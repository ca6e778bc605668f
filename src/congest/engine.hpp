#pragma once
// Synchronous CONGEST engine on the bipartite network N(E ∪ V) of §2.
//
// The network has one node per hypergraph vertex ("server") and one node
// per hyperedge ("client"); there is a link {v, e} iff v ∈ e. Execution
// proceeds in synchronous rounds, and the two sides alternate, as in the
// schedule of Appendix B: in round r only the vertex agents act when r is
// even, and only the edge agents when r is odd. An acting agent reads the
// messages the other side sent it in round r - 1, updates local state,
// and sends at most one message per incident link, read in round r + 1.
// Message sizes are accounted in bits and checked against the CONGEST
// bound.
//
// The engine is a template over a Protocol type:
//
//   struct Protocol {
//     using VertexMsg = ...;   // vertex -> edge payload, trivially copyable,
//                              // with  std::uint32_t bit_size() const
//     using EdgeMsg = ...;     // edge -> vertex payload, same requirements
//     struct VertexAgent {     // one per hypergraph vertex
//       template <class Ctx> void step(Ctx& ctx);  // even rounds only
//       bool halted() const;
//     };
//     struct EdgeAgent {       // one per hyperedge
//       template <class Ctx> void step(Ctx& ctx);  // odd rounds only
//       bool halted() const;
//     };
//   };
//
// Alternation is part of this contract, not a protocol option: the idle
// side is never stepped, so an agent needs no parity check of its own.
//
// Determinism: message buffers are flat per-link slots written by exactly
// one sender per round, and agents only mutate their own state. Each send
// is accounted as it is posted, into the sending shard's tally: one
// message, its bits, the max and the violation count, and its transcript
// term, a SplitMix64-finalized word of (round, receiver slot, bits),
// added mod 2^64. After the step phase the shards' tallies are folded by
// plain sums and a max, and a round that carried a message chains its
// term sum into the transcript hash (AdHash, Bellare-Micciancio '97, used
// as a fingerprint). (round, slot) is unique per message, so the hash
// fixes which link carried how many bits in which round, and no total
// depends on the send order or on the shard split. A protocol run is
// therefore a pure function of (hypergraph, agent construction) — with
// any Options::threads value.
//
// Mailbox layout: one mailbox per direction, each a payload lane and a
// uint8 presence lane over the receiver-side CSR, so four lanes live in
// one allocation per engine, each 64-byte aligned. One buffer per
// direction is enough because no direction is written and read in the
// same round. Only the presence lanes are zeroed; the payload lanes start
// uninitialized (poisoned in debug builds), because no payload is read
// unless its presence byte is set. A send stores the payload, sets the
// presence byte to 1 and marks its 64-slot presence line in its shard's
// bitmap. After round r the engine merges those bitmaps into the
// direction written in r, and retires the direction read in r by wiping
// its marked lines, so that direction is empty again when its senders
// act in round r + 1.
//
// Activity-driven execution: protocols in this codebase halt agents
// progressively — covered edges and tight vertices drop out within a few
// iterations — so the engine keeps per-shard worklists of live agents,
// compacted in place (preserving ascending id order) whenever an agent
// halts, and steps only the acting side's worklists. Retirement touches
// only the lines that carried a message, so a sparse round costs
// O(live acting agents + lines hit). Quiescence is a
// live-agent counter maintained at worklist compaction — O(1) per round
// instead of an O(n + m) scan.
//
// Halting is decided by an agent inside its own step(); once an agent
// reports halted() it is retired from its worklist and never stepped
// again. Changing an agent's halted state externally between rounds is
// outside the execution model.
//
// Parallel execution: within a round every acting agent reads only the
// direction addressed to its side and writes only its own slots of the
// other, so acting agents are mutually independent. The engine partitions
// both agent classes into contiguous shards balanced by incidence count
// and steps the acting side's shards on a fixed-size thread pool; when
// few agents are live, the dispatch shrinks to fewer workers (or runs
// inline) so sparse rounds do not pay the wakeup handshake.
//
// Pool ownership: by default the engine constructs its own ThreadPool from
// Options::threads. With Options::pool set it instead borrows that pool
// for its round dispatch (external-pool mode) — the batch scheduler lends
// one pool to many engines this way. The borrowed pool must outlive the
// engine, and two engines must not dispatch on it concurrently.

#include <algorithm>
#include <bit>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "congest/cycles.hpp"
#include "congest/stats.hpp"
#include "congest/thread_pool.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/math.hpp"
#include "util/prng.hpp"

namespace hypercover::congest {

template <class M>
concept Message = std::is_trivially_copyable_v<M> && requires(const M m) {
  { m.bit_size() } -> std::convertible_to<std::uint32_t>;
};

namespace detail {

/// Slots per presence line: one line is one cache line of presence bytes
/// and one bit of a line bitmap.
inline constexpr std::size_t kLineSlots = 64;

/// One message's transcript term; `slot` is the receiver-side slot. The
/// round's parity fixes the direction. Round and slot pack exactly into
/// one word, and the bits join it through a second SplitMix64 finalizer,
/// so the terms of different messages are unrelated 64-bit values. A
/// round's terms are summed mod 2^64, which makes the sum independent of
/// the send order; without the finalizers one link's +1 bit and another's
/// -1 bit could cancel in that sum.
inline std::uint64_t transcript_term(std::uint32_t round, std::uint32_t slot,
                                     std::uint32_t bits) noexcept {
  const std::uint64_t message = std::uint64_t{round} << 32 | slot;
  return util::SplitMix64(util::SplitMix64(message).next() + bits).next();
}

/// Marks the presence line holding `slot` in a line bitmap.
inline void mark_line(std::uint64_t* lines, std::size_t slot) noexcept {
  lines[slot / (kLineSlots * 64)] |= std::uint64_t{1}
                                     << (slot / kLineSlots % 64);
}

/// Per-direction mailbox: one slot per network link, flat over the CSR
/// positions of the receiving side. Its senders write it in one round and
/// its receivers read it in the next. The lanes point into the engine's
/// mailbox block; the presence lane is padded to whole lines and the
/// padding stays zero.
template <class M>
struct Mailbox {
  M* payload = nullptr;
  std::uint8_t* present = nullptr;
  // One bit per presence line that may hold a message; wiped on retire.
  std::vector<std::uint64_t> lines;

  /// Bytes of the payload lane for `links` slots, rounded to a line.
  static std::size_t payload_bytes(std::size_t links) noexcept {
    return (links * sizeof(M) + kLineSlots - 1) / kLineSlots * kLineSlots;
  }

  /// Points the lanes at `payload_at` and `present_at` (a zeroed presence
  /// lane of `line_count` lines) and advances both past them.
  void place(std::byte*& payload_at, std::uint8_t*& present_at,
             std::size_t links, std::size_t line_count) {
    payload = reinterpret_cast<M*>(payload_at);
    payload_at += payload_bytes(links);
    present = present_at;
    present_at += line_count * kLineSlots;
    lines.assign((line_count + 63) / 64, 0);
  }
};

/// Byte the payload lanes are filled with in debug builds, so a read of a
/// slot that was never sent shows up as garbage.
inline constexpr int kPayloadPoison = 0xA5;

/// Zero-copy view of one agent's incoming mailbox slots — the contiguous
/// segment [base, base + fan) of the receiver-side CSR. Protocols grab
/// one per step (`ctx.inbox()`), which hoists the slot-base math out of
/// their per-link read loops: `get(k)` is a single presence load off
/// cached pointers, and range-for
/// iterates only the present entries in ascending local order.
template <class M>
class Inbox {
 public:
  struct Entry {
    std::uint32_t local;  // index into edges_of(v) / vertices_of(e)
    const M* msg;
  };

  class iterator {
   public:
    Entry operator*() const noexcept { return {i_, in_->msgs_ + i_}; }
    iterator& operator++() noexcept {
      ++i_;
      skip();
      return *this;
    }
    bool operator!=(const iterator& o) const noexcept { return i_ != o.i_; }

   private:
    friend class Inbox;
    iterator(const Inbox* in, std::uint32_t i) noexcept : in_(in), i_(i) {
      skip();
    }
    void skip() noexcept {
      while (i_ < in_->fan_ && !in_->present(i_)) ++i_;
    }
    const Inbox* in_;
    std::uint32_t i_;
  };

  /// Number of slots (the agent's degree / edge size), present or not.
  [[nodiscard]] std::uint32_t size() const noexcept { return fan_; }
  /// True iff the incident link `local` carried a message last round.
  [[nodiscard]] bool present(std::uint32_t local) const noexcept {
    return present_[local] != 0;
  }
  /// Message from incident link `local` sent last round, or nullptr.
  [[nodiscard]] const M* get(std::uint32_t local) const noexcept {
    return present(local) ? msgs_ + local : nullptr;
  }
  [[nodiscard]] iterator begin() const noexcept { return iterator(this, 0); }
  [[nodiscard]] iterator end() const noexcept { return iterator(this, fan_); }

  // Constructed by Engine::make_inbox; the pointers alias the engine's
  // mailbox segment for one agent and stay valid for the current round.
  Inbox(const M* msgs, const std::uint8_t* present,
        std::uint32_t fan) noexcept
      : msgs_(msgs), present_(present), fan_(fan) {}

 private:
  const M* msgs_;
  const std::uint8_t* present_;
  std::uint32_t fan_;
};

/// One round's sends, tallied as they are posted.
struct SendTally {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t violations = 0;
  std::uint64_t term_sum = 0;  // transcript terms, mod 2^64
  std::uint32_t max_bits = 0;

  void add(const SendTally& o) noexcept {
    messages += o.messages;
    bits += o.bits;
    violations += o.violations;
    term_sum += o.term_sum;
    max_bits = std::max(max_bits, o.max_bits);
  }
};

/// Per-shard scratch: the line bitmap of the shard's sends, its send
/// tally and its step counter, folded single-threaded after the parallel
/// phase. One bitmap serves both directions: a round writes only one, and
/// both have one line per 64 links. Cache-line aligned so neighbouring
/// shards never false-share.
struct alignas(64) ShardScratch {
  std::vector<std::uint64_t> lines;
  SendTally sent;
  std::uint64_t agent_steps = 0;
};

}  // namespace detail

template <class Protocol>
  requires Message<typename Protocol::VertexMsg> &&
           Message<typename Protocol::EdgeMsg>
class Engine {
 public:
  using VertexMsg = typename Protocol::VertexMsg;
  using EdgeMsg = typename Protocol::EdgeMsg;
  using VertexAgent = typename Protocol::VertexAgent;
  using EdgeAgent = typename Protocol::EdgeAgent;
  using VertexInbox = detail::Inbox<EdgeMsg>;
  using EdgeInbox = detail::Inbox<VertexMsg>;

  /// Context handed to a vertex agent during its step. `local` indices
  /// enumerate the vertex's incident edges in edges_of(v) order.
  class VertexCtx {
   public:
    [[nodiscard]] std::uint32_t round() const noexcept { return eng_->round_; }
    [[nodiscard]] hg::VertexId id() const noexcept { return v_; }
    [[nodiscard]] std::uint32_t degree() const noexcept {
      return eng_->graph_->degree(v_);
    }
    [[nodiscard]] hg::EdgeId edge_at(std::uint32_t local) const noexcept {
      return eng_->graph_->edges_of(v_)[local];
    }
    /// View of this round's incoming messages; grab once per step and
    /// read through it (hoists the per-link slot math out of the loop).
    [[nodiscard]] VertexInbox inbox() const noexcept {
      return eng_->make_inbox(eng_->to_vertex_, eng_->vertex_base(v_),
                              degree());
    }
    /// Message from incident edge `local` sent last round, or nullptr.
    [[nodiscard]] const EdgeMsg* message_from(std::uint32_t local) const {
      const std::size_t slot = eng_->vertex_base(v_) + local;
      return eng_->slot_present(eng_->to_vertex_, slot)
                 ? &eng_->to_vertex_.payload[slot]
                 : nullptr;
    }
    /// Sends a message to incident edge `local`, delivered next round.
    void send(std::uint32_t local, const VertexMsg& msg) {
      eng_->send_to_edge(scratch_, v_, local, msg);
    }
    /// Sends `msg` on every incident link (one message per link).
    void broadcast(const VertexMsg& msg) {
      for (std::uint32_t k = 0; k < degree(); ++k) send(k, msg);
    }

   private:
    friend class Engine;
    VertexCtx(Engine* eng, hg::VertexId v, detail::ShardScratch* scratch)
        : eng_(eng), v_(v), scratch_(scratch) {}
    Engine* eng_;
    hg::VertexId v_;
    detail::ShardScratch* scratch_;
  };

  /// Context handed to an edge agent. `local` indices enumerate the edge's
  /// member vertices in vertices_of(e) order.
  class EdgeCtx {
   public:
    [[nodiscard]] std::uint32_t round() const noexcept { return eng_->round_; }
    [[nodiscard]] hg::EdgeId id() const noexcept { return e_; }
    [[nodiscard]] std::uint32_t size() const noexcept {
      return eng_->graph_->edge_size(e_);
    }
    [[nodiscard]] hg::VertexId vertex_at(std::uint32_t local) const noexcept {
      return eng_->graph_->vertices_of(e_)[local];
    }
    [[nodiscard]] EdgeInbox inbox() const noexcept {
      return eng_->make_inbox(eng_->to_edge_, eng_->edge_base(e_), size());
    }
    [[nodiscard]] const VertexMsg* message_from(std::uint32_t local) const {
      const std::size_t slot = eng_->edge_base(e_) + local;
      return eng_->slot_present(eng_->to_edge_, slot)
                 ? &eng_->to_edge_.payload[slot]
                 : nullptr;
    }
    void send(std::uint32_t local, const EdgeMsg& msg) {
      eng_->send_to_vertex(scratch_, e_, local, msg);
    }
    void broadcast(const EdgeMsg& msg) {
      for (std::uint32_t k = 0; k < size(); ++k) send(k, msg);
    }

   private:
    friend class Engine;
    EdgeCtx(Engine* eng, hg::EdgeId e, detail::ShardScratch* scratch)
        : eng_(eng), e_(e), scratch_(scratch) {}
    Engine* eng_;
    hg::EdgeId e_;
    detail::ShardScratch* scratch_;
  };

  /// The graph must outlive the engine. Agents are value-constructed;
  /// protocols initialize them via a set-up pass or first-round logic.
  Engine(const hg::Hypergraph& graph, Options options = {})
      : graph_(&graph), options_(options) {
    // Send-slot indices are uint32 (halving their cache traffic); the
    // hgb wire format already bounds incidence counts the same way.
    assert(graph.num_incidences() <=
           std::numeric_limits<std::uint32_t>::max());
    vertex_agents_.resize(graph.num_vertices());
    edge_agents_.resize(graph.num_edges());
    init_mailboxes();
    build_slot_bases();
    if (options_.pool != nullptr) {
      // External-pool mode: run rounds on the borrowed pool (its size
      // governs sharding; Options::threads is ignored). A 1-worker pool
      // is equivalent to no pool at all.
      if (options_.pool->size() > 1) pool_ = options_.pool;
    } else {
      const unsigned threads = ThreadPool::resolve(options_.threads);
      if (threads > 1) {
        owned_pool_ = std::make_unique<ThreadPool>(threads);
        pool_ = owned_pool_.get();
      }
    }
    const unsigned shards = shard_count();
    vertex_shards_ = balanced_shards(vertex_slot_base_, shards);
    edge_shards_ = balanced_shards(edge_slot_base_, shards);
    scratch_.resize(shards);
    for (auto& sc : scratch_) sc.lines.assign(to_edge_.lines.size(), 0);
    const std::uint64_t network_size =
        std::uint64_t{graph.num_vertices()} + graph.num_edges();
    stats_.bandwidth_limit_bits =
        options_.bandwidth_factor *
        static_cast<std::uint32_t>(util::ceil_log2(network_size + 1));
  }

  [[nodiscard]] std::span<VertexAgent> vertex_agents() noexcept {
    return vertex_agents_;
  }
  [[nodiscard]] std::span<EdgeAgent> edge_agents() noexcept {
    return edge_agents_;
  }
  [[nodiscard]] const VertexAgent& vertex_agent(hg::VertexId v) const {
    return vertex_agents_[v];
  }
  [[nodiscard]] const EdgeAgent& edge_agent(hg::EdgeId e) const {
    return edge_agents_[e];
  }
  [[nodiscard]] const hg::Hypergraph& graph() const noexcept { return *graph_; }

  /// Runs the protocol to quiescence (all agents halted) or to the round
  /// limit, then releases the round-scoped scratch memory. Returns the
  /// accumulated statistics.
  RunStats run() {
    ensure_frontier();
    while (round_ < options_.max_rounds) {
      if (all_halted()) {
        stats_.completed = true;
        break;
      }
      step_round();
    }
    stats_.rounds = round_;
    if (!stats_.completed && all_halted()) stats_.completed = true;
    release_round_memory();
    return stats_;
  }

  /// Executes exactly one synchronous round (exposed for lock-step tests):
  /// steps the acting side, folds the shards' send tallies, and retires
  /// the direction it read.
  void step_round() {
    ensure_frontier();
    if (options_.keep_round_stats) stats_.per_round.emplace_back();
    const std::uint64_t t0 = cycle_now();
    dispatch_frontier();
    stats_.step_cycles += cycle_now() - t0;
    if (vertices_act()) {
      close_round(to_edge_, to_vertex_);
    } else {
      close_round(to_vertex_, to_edge_);
    }
    ++round_;
  }

  /// Worker threads actually stepping agents (1 when sequential).
  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

  /// True once every agent halted: the O(1) live-agent counter once the
  /// worklists exist, else a full scan.
  [[nodiscard]] bool all_halted() const {
    if (frontier_built_) return live_vertices_ + live_edges_ == 0;
    for (const auto& a : vertex_agents_) {
      if (!a.halted()) return false;
    }
    for (const auto& a : edge_agents_) {
      if (!a.halted()) return false;
    }
    return true;
  }

  /// Number of non-halted agents (vertices + edges), exact at round
  /// boundaries.
  [[nodiscard]] std::size_t live_agents() {
    ensure_frontier();
    return live_vertices_ + live_edges_;
  }

  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }

  /// Releases the round-scoped scratch memory — the frontier worklists —
  /// back to the allocator. run() calls this at exit so long-lived holders
  /// (result caches, batch slots) don't pin peak-round footprints;
  /// stepping again afterwards is still valid (the worklists rebuild
  /// lazily from the halted flags). The line bitmaps are fixed-size and
  /// stay, so a direction retired later still wipes exactly its lines.
  void release_round_memory() {
    // Swap against empties: `v = {}` is assign(initializer_list), which
    // clears the contents but may keep the allocation alive.
    std::vector<std::vector<std::uint32_t>>().swap(vertex_work_);
    std::vector<std::vector<std::uint32_t>>().swap(edge_work_);
    frontier_built_ = false;  // rebuilt (identically) if stepped again
  }

  /// Bytes currently reserved by the round-scoped scratch structures
  /// (what release_round_memory frees). Exposed so tests can pin the
  /// bounded-capacity policy.
  [[nodiscard]] std::size_t scratch_capacity_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const auto& wl : vertex_work_) {
      bytes += wl.capacity() * sizeof(std::uint32_t);
    }
    for (const auto& wl : edge_work_) {
      bytes += wl.capacity() * sizeof(std::uint32_t);
    }
    return bytes;
  }

 private:
  friend class VertexCtx;
  friend class EdgeCtx;

  /// Target live agents per dispatched worker; rounds with less total work
  /// shrink to fewer workers (1 worker = inline, no pool handshake).
  static constexpr std::size_t kMinAgentsPerWorker = 256;

  [[nodiscard]] unsigned shard_count() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

  [[nodiscard]] std::size_t vertex_base(hg::VertexId v) const noexcept {
    return vertex_slot_base_[v];
  }
  [[nodiscard]] std::size_t edge_base(hg::EdgeId e) const noexcept {
    return edge_slot_base_[e];
  }

  /// Vertices act in even rounds, edges in odd ones.
  [[nodiscard]] bool vertices_act() const noexcept { return round_ % 2 == 0; }

  template <class M>
  [[nodiscard]] bool slot_present(const detail::Mailbox<M>& box,
                                  std::size_t slot) const noexcept {
    return box.present[slot] != 0;
  }

  template <class M>
  [[nodiscard]] detail::Inbox<M> make_inbox(const detail::Mailbox<M>& box,
                                            std::size_t base,
                                            std::uint32_t fan) const noexcept {
    return detail::Inbox<M>(box.payload + base, box.present + base, fan);
  }

  /// Makes the one allocation behind both directions' mailboxes: two
  /// payload lanes, then two presence lanes, each line-aligned. Only the
  /// presence lanes are zeroed.
  void init_mailboxes() {
    static_assert(alignof(VertexMsg) <= detail::kLineSlots &&
                  alignof(EdgeMsg) <= detail::kLineSlots);
    const std::size_t links = graph_->num_incidences();
    const std::size_t lines =
        (links + detail::kLineSlots - 1) / detail::kLineSlots;
    const std::size_t payload =
        detail::Mailbox<VertexMsg>::payload_bytes(links) +
        detail::Mailbox<EdgeMsg>::payload_bytes(links);
    const std::size_t present = 2 * lines * detail::kLineSlots;
    // Over-allocate and align by hand: an aligned operator new goes
    // through memalign, whose split-off remainders fragment the heap when
    // engines of one size are made and freed in turn.
    std::size_t space = payload + present + detail::kLineSlots - 1;
    mailbox_block_ = std::make_unique_for_overwrite<std::byte[]>(space);
    void* aligned = mailbox_block_.get();
    std::align(detail::kLineSlots, payload + present, aligned, space);
    auto* payload_at = static_cast<std::byte*>(aligned);
#ifndef NDEBUG
    std::memset(payload_at, detail::kPayloadPoison, payload);
#endif
    auto* present_at = reinterpret_cast<std::uint8_t*>(payload_at + payload);
    std::memset(present_at, 0, present);
    to_edge_.place(payload_at, present_at, links, lines);
    to_vertex_.place(payload_at, present_at, links, lines);
  }

  void build_slot_bases() {
    const std::uint32_t n = graph_->num_vertices();
    const std::uint32_t m = graph_->num_edges();
    vertex_slot_base_.resize(n + 1, 0);
    for (hg::VertexId v = 0; v < n; ++v) {
      vertex_slot_base_[v + 1] = vertex_slot_base_[v] + graph_->degree(v);
    }
    edge_slot_base_.resize(m + 1, 0);
    for (hg::EdgeId e = 0; e < m; ++e) {
      edge_slot_base_[e + 1] = edge_slot_base_[e] + graph_->edge_size(e);
    }
    // Cross indices: the slot on the *receiving* side for each link, from
    // the sender's local index. Edge ids in edges_of(v) ascend, so a cursor
    // per vertex assigns edge-side member positions in one pass and vice
    // versa.
    v_send_slot_.resize(graph_->num_incidences());
    e_send_slot_.resize(graph_->num_incidences());
    std::vector<std::uint32_t> cursor(n, 0);
    for (hg::EdgeId e = 0; e < m; ++e) {
      const auto members = graph_->vertices_of(e);
      for (std::uint32_t j = 0; j < members.size(); ++j) {
        const hg::VertexId v = members[j];
        const std::uint32_t k = cursor[v]++;  // e is v's k-th edge
        assert(graph_->edges_of(v)[k] == e);
        v_send_slot_[vertex_slot_base_[v] + k] = static_cast<std::uint32_t>(
            edge_slot_base_[e] + j);
        e_send_slot_[edge_slot_base_[e] + j] = static_cast<std::uint32_t>(
            vertex_slot_base_[v] + k);
      }
    }
  }

  // --- frontier worklists --------------------------------------------------

  /// Builds the per-shard live-agent worklists from the agents' current
  /// halted flags. Runs once, lazily, so protocols may configure agents
  /// after constructing the engine; agents constructed (or configured)
  /// halted are never scheduled.
  void ensure_frontier() {
    if (frontier_built_) return;
    frontier_built_ = true;
    const unsigned shards = shard_count();
    vertex_work_.resize(shards);
    edge_work_.resize(shards);
    live_vertices_ = live_edges_ = 0;
    for (unsigned s = 0; s < shards; ++s) {
      auto& vw = vertex_work_[s];
      vw.clear();
      vw.reserve(vertex_shards_[s + 1] - vertex_shards_[s]);
      for (std::uint32_t v = vertex_shards_[s]; v < vertex_shards_[s + 1];
           ++v) {
        if (!vertex_agents_[v].halted()) vw.push_back(v);
      }
      auto& ew = edge_work_[s];
      ew.clear();
      ew.reserve(edge_shards_[s + 1] - edge_shards_[s]);
      for (std::uint32_t e = edge_shards_[s]; e < edge_shards_[s + 1]; ++e) {
        if (!edge_agents_[e].halted()) ew.push_back(e);
      }
      live_vertices_ += vw.size();
      live_edges_ += ew.size();
    }
  }

  /// Steps every agent of one worklist and compacts it in place: an agent
  /// that halts during its step is dropped, preserving ascending id order.
  template <class Ctx, class Agent>
  void step_worklist(std::vector<std::uint32_t>& work,
                     std::vector<Agent>& agents, detail::ShardScratch& sc) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const std::uint32_t id = work[i];
      Agent& a = agents[id];
      Ctx ctx(this, id, &sc);
      a.step(ctx);
      if (!a.halted()) work[out++] = id;
    }
    sc.agent_steps += work.size();
    work.resize(out);
  }

  /// Steps the acting side's worklist of shard `s`.
  void step_shard(unsigned s) {
    if (vertices_act()) {
      step_worklist<VertexCtx>(vertex_work_[s], vertex_agents_, scratch_[s]);
    } else {
      step_worklist<EdgeCtx>(edge_work_[s], edge_agents_, scratch_[s]);
    }
  }

  /// Runs all shards, on as many workers as the acting side's live-agent
  /// count merits. Any worker count yields the same result: acting agents
  /// are independent and every shard is stepped exactly once by exactly
  /// one worker.
  void dispatch_frontier() {
    const unsigned shards = shard_count();
    unsigned workers = 1;
    if (pool_) {
      const std::size_t live = vertices_act() ? live_vertices_ : live_edges_;
      workers = static_cast<unsigned>(std::clamp<std::size_t>(
          live / kMinAgentsPerWorker, 1, pool_->size()));
    }
    if (workers <= 1) {
      for (unsigned s = 0; s < shards; ++s) step_shard(s);
    } else if (workers == shards) {
      pool_->run([this](unsigned s) { step_shard(s); });
    } else {
      pool_->run_some(workers, [this, shards, workers](unsigned w) {
        for (unsigned s = w; s < shards; s += workers) step_shard(s);
      });
    }
  }

  /// Ends the round after the step phase, on the calling thread. Merges
  /// the shards' line bitmaps (OR) into the direction written this round;
  /// folds their send tallies (sums and a max, so the shard split drops
  /// out) and step counters into the stats; refreshes the acting side's
  /// live count; retires `read`.
  template <class W, class R>
  void close_round(detail::Mailbox<W>& written, detail::Mailbox<R>& read) {
    const std::uint64_t t0 = cycle_now();
    detail::SendTally round;
    for (auto& sc : scratch_) {
      for (std::size_t w = 0; w < written.lines.size(); ++w) {
        written.lines[w] |= sc.lines[w];
        sc.lines[w] = 0;
      }
      round.add(sc.sent);
      sc.sent = {};
      stats_.agent_steps += sc.agent_steps;
      sc.agent_steps = 0;
    }
    // An empty round leaves the transcript unchanged.
    if (round.messages > 0) {
      stats_.transcript_hash =
          util::mix64(stats_.transcript_hash, round.term_sum);
    }
    stats_.total_messages += round.messages;
    stats_.total_bits += round.bits;
    stats_.max_message_bits = std::max(stats_.max_message_bits, round.max_bits);
    stats_.bandwidth_violations += round.violations;
    if (options_.keep_round_stats) {
      stats_.per_round.back() = {round.messages, round.bits, round.max_bits};
    }
    std::size_t live = 0;
    for (const auto& wl : vertices_act() ? vertex_work_ : edge_work_) {
      live += wl.size();
    }
    (vertices_act() ? live_vertices_ : live_edges_) = live;
    retire(read);
    stats_.account_cycles += cycle_now() - t0;
  }

  // --- sharding ------------------------------------------------------------

  /// Contiguous shard boundaries over [0, count) balanced by incidence
  /// weight, computed from a CSR base array of size count + 1.
  static std::vector<std::uint32_t> balanced_shards(
      const std::vector<std::size_t>& base, unsigned shards) {
    const auto count = static_cast<std::uint32_t>(base.size() - 1);
    std::vector<std::uint32_t> bounds(shards + 1, count);
    bounds[0] = 0;
    for (unsigned s = 1; s < shards; ++s) {
      const std::size_t target = base.back() * s / shards;
      const auto it = std::lower_bound(base.begin(), base.end(), target);
      const auto id = static_cast<std::uint32_t>(it - base.begin());
      bounds[s] = std::clamp(id, bounds[s - 1], count);
    }
    return bounds;
  }

  // --- sends ---------------------------------------------------------------

  void send_to_edge(detail::ShardScratch* sc, hg::VertexId v,
                    std::uint32_t local, const VertexMsg& msg) {
    const std::uint32_t slot = v_send_slot_[vertex_slot_base_[v] + local];
    post(to_edge_, *sc, slot, msg);
  }

  void send_to_vertex(detail::ShardScratch* sc, hg::EdgeId e,
                      std::uint32_t local, const EdgeMsg& msg) {
    const std::uint32_t slot = e_send_slot_[edge_slot_base_[e] + local];
    post(to_vertex_, *sc, slot, msg);
  }

  /// Stores `msg` in `slot`, marks the slot's line in the sending shard's
  /// bitmap, and tallies the message in the shard's send tally.
  template <class M>
  void post(detail::Mailbox<M>& box, detail::ShardScratch& sc,
            std::uint32_t slot, const M& msg) {
    assert(!box.present[slot] && "one message per link per round");
    box.payload[slot] = msg;
    box.present[slot] = 1;
    detail::mark_line(sc.lines.data(), slot);
    const std::uint32_t bits = msg.bit_size();
    detail::SendTally& t = sc.sent;
    ++t.messages;
    t.bits += bits;
    t.max_bits = std::max(t.max_bits, bits);
    t.violations += bits > stats_.bandwidth_limit_bits;
    t.term_sum += detail::transcript_term(round_, slot, bits);
  }

  // --- retirement ----------------------------------------------------------

  /// Wipes the marked lines of a direction its receivers have read, so it
  /// is empty when its senders act next, and counts the presence bytes
  /// wiped (64 per line, capped at the link count) in slots_processed.
  template <class M>
  void retire(detail::Mailbox<M>& box) {
    const std::size_t links = graph_->num_incidences();
    for (std::size_t w = 0; w < box.lines.size(); ++w) {
      for (std::uint64_t set = box.lines[w]; set != 0; set &= set - 1) {
        const std::size_t begin =
            (w * 64 + std::countr_zero(set)) * detail::kLineSlots;
        std::memset(box.present + begin, 0, detail::kLineSlots);
        stats_.slots_processed += std::min(detail::kLineSlots, links - begin);
      }
      box.lines[w] = 0;
    }
  }

  const hg::Hypergraph* graph_;
  Options options_;
  std::uint32_t round_ = 0;
  RunStats stats_;
  std::vector<VertexAgent> vertex_agents_;
  std::vector<EdgeAgent> edge_agents_;
  std::unique_ptr<std::byte[]> mailbox_block_;  // backs both mailboxes
  detail::Mailbox<VertexMsg> to_edge_;  // lanes in mailbox_block_
  detail::Mailbox<EdgeMsg> to_vertex_;
  std::vector<std::size_t> vertex_slot_base_;  // CSR bases, size n+1
  std::vector<std::size_t> edge_slot_base_;    // size m+1
  std::vector<std::uint32_t> v_send_slot_;     // (v,k) -> edge-side slot
  std::vector<std::uint32_t> e_send_slot_;     // (e,j) -> vertex-side slot
  ThreadPool* pool_ = nullptr;                 // null when single-threaded
  std::unique_ptr<ThreadPool> owned_pool_;     // empty in external-pool mode
  std::vector<std::uint32_t> vertex_shards_;   // shard bounds, size shards+1
  std::vector<std::uint32_t> edge_shards_;
  std::vector<detail::ShardScratch> scratch_;  // per shard
  std::vector<std::vector<std::uint32_t>> vertex_work_;  // live ids, per shard
  std::vector<std::vector<std::uint32_t>> edge_work_;
  bool frontier_built_ = false;
  std::size_t live_vertices_ = 0;  // maintained at worklist compaction
  std::size_t live_edges_ = 0;
};

}  // namespace hypercover::congest
