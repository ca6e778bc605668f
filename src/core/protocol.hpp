#pragma once
// Algorithm MWHVC (§3.2) as CONGEST agents.
//
// Round schedule (Appendix B). Two init rounds, then 4 rounds per
// iteration i >= 1:
//
//   r = 0  V->E  InitInfo{w(v), |E(v)|}                      (step 2)
//   r = 1  E->V  InitReply{w(v*), |E(v*)|, Delta(e)}         (step 2)
//   ---- iteration i, phase A: r ≡ 2 (mod 4) ----------------------------
//          V: fold in last iteration's Result (δ += bid),    (step 3f tail)
//             beta-tightness check -> join C + Covered msgs, (step 3a)
//             level increments k_v,                          (step 3d)
//          V->E  Covered | Levels{k_v}
//   ---- phase B: r ≡ 3 (mod 4) ------------------------------------------
//          E: covered propagation or halvings h_e = Σ k_v,   (steps 3b, 3d)
//          E->V  Covered | Halved{h_e}
//   ---- phase C: r ≡ 0 (mod 4) ------------------------------------------
//          V: drop covered edges (3c), halve local bids,
//             raise/stuck decision,                          (step 3e)
//          V->E  Raise | Stuck
//   ---- phase D: r ≡ 1 (mod 4) ------------------------------------------
//          E: multiply bid by alpha iff all said Raise,      (step 3f)
//             δ(e) += bid (or bid/2 in the Appendix C variant),
//          E->V  Result{raised}
//
// The engine steps vertex agents only in even rounds and edge agents only
// in odd ones, so each agent tells its phases apart by r mod 4 alone.
//
// Both endpoints of a link maintain bid(e) with bit-identical double
// operations, so no bid value ever travels in a message (matching
// Appendix B item 4: only the "was multiplied by alpha" bit is sent).

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/math.hpp"

namespace hypercover::core {

// ---------------------------------------------------------------------------
// Messages. Realistic bit sizes: 3 tag bits plus the payload width; weights
// and degrees cost their binary width (the paper assumes both are poly(n),
// i.e. O(log n) bits). Fields that never occur in the same tag share one
// slot, and the tag goes last, so the payloads stay small.
// ---------------------------------------------------------------------------

enum class VTag : std::uint8_t { kInitInfo, kCovered, kLevels, kRaise, kStuck };

struct VertexToEdgeMsg {
  std::int64_t weight = 0;  // kInitInfo
  union {
    std::uint32_t degree = 0;  // kInitInfo
    std::uint32_t levels;      // kLevels: number of level increments
  };
  VTag tag{VTag::kInitInfo};

  [[nodiscard]] std::uint32_t bit_size() const {
    constexpr std::uint32_t kTag = 3;
    switch (tag) {
      case VTag::kInitInfo:
        return kTag +
               util::bit_width_or_one(static_cast<std::uint64_t>(weight)) +
               util::bit_width_or_one(degree);
      case VTag::kLevels:
        return kTag + util::bit_width_or_one(levels);
      case VTag::kCovered:
      case VTag::kRaise:
      case VTag::kStuck:
        return kTag;
    }
    return kTag;
  }
};
static_assert(sizeof(VertexToEdgeMsg) == 16);

enum class ETag : std::uint8_t { kInitReply, kCovered, kHalved, kResult };

struct EdgeToVertexMsg {
  std::int64_t min_weight = 0;   // kInitReply: w(v*)
  std::uint32_t min_degree = 0;  // kInitReply: |E(v*)|
  union {
    std::uint32_t local_delta = 0;  // kInitReply: Delta(e)
    std::uint32_t halvings;         // kHalved: h_e
  };
  std::uint8_t raised = 0;  // kResult
  ETag tag{ETag::kInitReply};

  [[nodiscard]] std::uint32_t bit_size() const {
    constexpr std::uint32_t kTag = 3;
    switch (tag) {
      case ETag::kInitReply:
        return kTag +
               util::bit_width_or_one(static_cast<std::uint64_t>(min_weight)) +
               util::bit_width_or_one(min_degree) +
               util::bit_width_or_one(local_delta);
      case ETag::kHalved:
        return kTag + util::bit_width_or_one(halvings);
      case ETag::kResult:
        return kTag + 1;
      case ETag::kCovered:
        return kTag;
    }
    return kTag;
  }
};
static_assert(sizeof(EdgeToVertexMsg) == 24);

// ---------------------------------------------------------------------------
// Shared run configuration and instrumentation sink.
// ---------------------------------------------------------------------------

/// Optional per-run instrumentation. All counters are exact. The vectors
/// are sized by the driver when tracing is enabled; agents write only
/// their own disjoint slots, so tracing is safe under the parallel engine.
/// The scalar aggregates are folded out of per-agent counters by the
/// driver after the run (solve_mwhvc), never mutated inside a step.
struct Trace {
  bool enabled = false;
  std::uint64_t raise_events = 0;        // edge bid multiplied by alpha
  std::uint64_t stuck_events = 0;        // vertex sent "stuck"
  std::uint32_t max_level = 0;           // max l(v) ever reached
  std::uint32_t max_level_incr_per_iter = 0;  // Corollary 21 check
  std::vector<std::uint32_t> edge_raises;     // per edge (enabled only)
  std::vector<std::uint32_t> edge_halvings;   // per edge (enabled only)
  /// stuck_per_level[v * z + l] = # stuck iterations v spent at level l.
  std::vector<std::uint32_t> stuck_per_level;
  std::uint32_t z = 0;
};

struct Config {
  const hg::Hypergraph* graph = nullptr;
  std::uint32_t f = 0;  ///< rank bound used in beta (>= graph rank)
  double eps = 0.5;
  double beta = 0;
  std::uint32_t z = 0;
  AlphaMode alpha_mode = AlphaMode::kLocalPerEdge;
  double alpha_fixed = 2.0;   ///< used when alpha_mode == kFixed
  double alpha_global = 2.0;  ///< Theorem 9 on the global Delta
  double gamma = 0.001;
  bool appendix_c = false;  ///< one-level-per-iteration variant
  Trace* trace = nullptr;   ///< nullable
  /// Theorem 9 alpha indexed by local degree bound, for every bound up to
  /// the instance's max degree: filled once per run (kLocalPerEdge) so the
  /// agents look alpha up instead of evaluating log/pow per incidence.
  /// Bounds past its end fall back to the formula.
  std::vector<double> alpha_by_delta;

  /// The alpha an edge with local degree bound `local_delta` uses.
  [[nodiscard]] double alpha_for(std::uint32_t local_delta) const {
    switch (alpha_mode) {
      case AlphaMode::kFixed:
        return alpha_fixed;
      case AlphaMode::kGlobalDelta:
        return alpha_global;
      case AlphaMode::kLocalPerEdge:
        return local_delta < alpha_by_delta.size()
                   ? alpha_by_delta[local_delta]
                   : theorem9_alpha(f, eps, local_delta, gamma);
    }
    return 2.0;
  }
};

// ---------------------------------------------------------------------------
// Agents.
// ---------------------------------------------------------------------------

/// One link of a vertex agent: its local replica of bid(e), alpha(e), and
/// e's index in edges_of(v). MwhvcRun owns one array of them laid out over
/// the vertex CSR; configure() writes every field.
struct VertexLink {
  double bid;
  double alpha;
  std::uint32_t local;
};

/// Keeps E'(v) as E'(v) itself. Invariant: `links_` is the prefix of the
/// vertex's span that is still uncovered, in ascending local order. Phase
/// C drops covered links by a stable in-place compaction, so every fold
/// over the prefix adds in edges_of(v) order, skipping covered edges: δ,
/// the bids and the transcript do not depend on how E'(v) is stored.
class MwhvcVertexAgent {
 public:
  /// Must be called on every agent before the engine runs. `links` holds
  /// one element per incident edge and must outlive the agent.
  void configure(const Config* cfg, hg::VertexId id,
                 std::span<VertexLink> links) {
    assert(links.size() == cfg->graph->degree(id));
    cfg_ = cfg;
    id_ = id;
    weight_ = static_cast<double>(cfg_->graph->weight(id));
    links_ = links;
    for (std::uint32_t k = 0; k < links_.size(); ++k) {
      links_[k] = {0.0, 2.0, k};
    }
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    const std::uint32_t r = ctx.round();
    if (r == 0) {
      if (links_.empty()) {  // isolated vertex: nothing to cover
        halted_ = true;
        return;
      }
      VertexToEdgeMsg msg;
      msg.tag = VTag::kInitInfo;
      msg.weight = static_cast<std::int64_t>(weight_);
      msg.degree = active_edges();
      ctx.broadcast(msg);
      return;
    }
    if (r % 4 == 2) {
      phase_a(ctx);
    } else {
      phase_c(ctx);
    }
  }

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] bool in_cover() const noexcept { return in_cover_; }
  [[nodiscard]] std::uint32_t level() const noexcept { return level_; }
  [[nodiscard]] double dual_sum() const noexcept { return sum_delta_; }
  /// Sum of bids over still-uncovered incident edges (Claim 1 LHS).
  [[nodiscard]] double active_bid_sum() const noexcept {
    double s = 0;
    for (const VertexLink& l : links_) s += l.bid;
    return s;
  }
  [[nodiscard]] double weight() const noexcept { return weight_; }
  /// E'(v): the uncovered links, ascending local order.
  [[nodiscard]] std::span<const VertexLink> active_links() const noexcept {
    return links_;
  }
  [[nodiscard]] std::uint32_t active_edges() const noexcept {
    return static_cast<std::uint32_t>(links_.size());
  }
  /// Iterations this vertex reported "stuck" (Trace::stuck_events share).
  [[nodiscard]] std::uint64_t stuck_count() const noexcept {
    return stuck_count_;
  }
  /// Highest level reached while still below z (Trace::max_level share).
  [[nodiscard]] std::uint32_t traced_max_level() const noexcept {
    return traced_max_level_;
  }
  /// Most level increments in one iteration (Corollary 21 check).
  [[nodiscard]] std::uint32_t max_incr_per_iter() const noexcept {
    return max_incr_per_iter_;
  }

 private:
  // Phase A: fold Result/InitReply, beta-tightness (3a), levels (3d),
  // send Covered or Levels.
  template <class Ctx>
  void phase_a(Ctx& ctx) {
    if (ctx.round() == 2) {
      fold_init_replies(ctx);
    } else {
      fold_results(ctx);
    }

    // Step 3a: beta-tightness -> join the cover.
    if (sum_delta_ >= (1.0 - cfg_->beta) * weight_) {
      join_cover(ctx);
      return;
    }

    // Step 3d: raise level while the dual sum exceeds the level threshold.
    // The comparison carries an ulp-scale relative guard: the Appendix C
    // analysis is *tight* at sum == w(1 - 0.5^{l+1}) (where exact reals do
    // not increment), and non-dyadic bids make doubles land a few ulps
    // above such boundaries. See DESIGN.md, numeric-representation note.
    std::uint32_t incr = 0;
    while (level_ < cfg_->z &&
           sum_delta_ - weight_ * (1.0 - std::ldexp(1.0, -(int(level_) + 1))) >
               weight_ * 1e-12) {
      ++level_;
      ++incr;
    }
    if (level_ >= cfg_->z) {
      // Claim 4: reaching z implies beta-tightness; in exact arithmetic the
      // 3a check fires first, with doubles it may be a final-ulp tie.
      join_cover(ctx);
      return;
    }
    if (incr > max_incr_per_iter_) max_incr_per_iter_ = incr;
    if (level_ > traced_max_level_) traced_max_level_ = level_;
    // Halve the local copies now; the edge applies the same halvings in
    // phase B, plus those requested by sibling vertices (folded in phase C).
    if (incr > 0) {
      for (VertexLink& l : links_) l.bid = std::ldexp(l.bid, -int(incr));
    }
    pending_incr_ = incr;
    VertexToEdgeMsg msg;
    msg.tag = VTag::kLevels;
    msg.levels = incr;
    send_active(ctx, msg);
  }

  // Phase C: fold Covered/Halved (3b/3c/3d), decide raise/stuck (3e).
  template <class Ctx>
  void phase_c(Ctx& ctx) {
    const auto in = ctx.inbox();
    // Step 3c, E'(v) <- E'(v) \ {covered e}, as a stable compaction that
    // also sums the surviving bids (Claim 1 LHS) in ascending local order.
    // A covered edge's δ(e) stays frozen.
    std::size_t out = 0;
    double bid_sum = 0;
    for (const VertexLink& link : links_) {
      VertexLink l = link;
      if (const EdgeToVertexMsg* msg = in.get(l.local); msg != nullptr) {
        if (msg->tag == ETag::kCovered) continue;
        // Apply the halvings requested by *other* members of the edge; our
        // own pending_incr_ halvings were applied locally in phase A.
        const std::uint32_t others = msg->halvings - pending_incr_;
        if (others > 0) l.bid = std::ldexp(l.bid, -int(others));
      }
      bid_sum += l.bid;
      links_[out++] = l;
    }
    links_ = links_.first(out);
    pending_incr_ = 0;
    if (links_.empty()) {  // all incident edges covered: terminate
      halted_ = true;
      return;
    }
    // Step 3e: raise iff Σ_{e in E'(v)} bid(e) <= (1/alpha_v) 0.5^{l+1} w(v),
    // where alpha_v dominates every incident edge's multiplier so that an
    // all-raise iteration keeps Claim 1 intact.
    const double threshold =
        std::ldexp(weight_, -(int(level_) + 1)) / alpha_max_;
    const bool raise = bid_sum <= threshold;
    if (!raise) {
      ++stuck_count_;
      if (Trace* t = cfg_->trace; t != nullptr && t->enabled) {
        ++t->stuck_per_level[std::size_t{id_} * t->z + level_];
      }
    }
    VertexToEdgeMsg msg;
    msg.tag = raise ? VTag::kRaise : VTag::kStuck;
    send_active(ctx, msg);
  }

  template <class Ctx>
  void fold_init_replies(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (VertexLink& l : links_) {
      const EdgeToVertexMsg* msg = in.get(l.local);
      // Every edge replies in round 1.
      l.bid = 0.5 * static_cast<double>(msg->min_weight) /
              static_cast<double>(msg->min_degree);
      sum_delta_ += l.bid;
      l.alpha = cfg_->alpha_for(msg->local_delta);
      if (l.alpha > alpha_max_) alpha_max_ = l.alpha;
    }
  }

  template <class Ctx>
  void fold_results(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (VertexLink& l : links_) {
      const EdgeToVertexMsg* msg = in.get(l.local);
      if (msg->raised != 0) l.bid *= l.alpha;
      sum_delta_ += cfg_->appendix_c ? 0.5 * l.bid : l.bid;
    }
  }

  template <class Ctx>
  void join_cover(Ctx& ctx) {
    in_cover_ = true;
    halted_ = true;
    VertexToEdgeMsg msg;
    msg.tag = VTag::kCovered;
    send_active(ctx, msg);
  }

  template <class Ctx>
  void send_active(Ctx& ctx, const VertexToEdgeMsg& msg) {
    for (const VertexLink& l : links_) ctx.send(l.local, msg);
  }

  const Config* cfg_ = nullptr;
  hg::VertexId id_ = 0;
  double weight_ = 0;
  std::uint32_t level_ = 0;
  double sum_delta_ = 0;        // Σ_{e in E(v)} δ(e), covered edges included
  std::span<VertexLink> links_;  // E'(v), ascending local order
  double alpha_max_ = 2.0;
  std::uint32_t pending_incr_ = 0;  // own halvings already applied locally
  std::uint64_t stuck_count_ = 0;
  std::uint32_t traced_max_level_ = 0;
  std::uint32_t max_incr_per_iter_ = 0;
  bool in_cover_ = false;
  bool halted_ = false;
};

class MwhvcEdgeAgent {
 public:
  void configure(const Config* cfg, hg::EdgeId id) {
    cfg_ = cfg;
    id_ = id;
    size_ = cfg_->graph->edge_size(id);
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    const std::uint32_t r = ctx.round();
    if (r == 1) {
      init_reply(ctx);
    } else if (r % 4 == 3) {
      phase_b(ctx);
    } else {
      phase_d(ctx);
    }
  }

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] bool covered() const noexcept { return covered_; }
  [[nodiscard]] double dual() const noexcept { return delta_; }
  [[nodiscard]] double bid() const noexcept { return bid_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] std::uint32_t raises() const noexcept { return raises_; }

 private:
  // Step 2: gather (w, |E(v)|), pick the argmin normalized weight, announce.
  template <class Ctx>
  void init_reply(Ctx& ctx) {
    std::int64_t best_w = 0;
    std::uint32_t best_d = 1;
    std::uint32_t local_delta = 0;
    bool first = true;
    const auto in = ctx.inbox();
    for (std::uint32_t j = 0; j < size_; ++j) {
      const VertexToEdgeMsg* msg = in.get(j);
      if (local_delta < msg->degree) local_delta = msg->degree;
      const bool better =
          first || static_cast<double>(msg->weight) * best_d <
                       static_cast<double>(best_w) * msg->degree;
      if (better) {
        best_w = msg->weight;
        best_d = msg->degree;
        first = false;
      }
    }
    bid_ = 0.5 * static_cast<double>(best_w) / static_cast<double>(best_d);
    delta_ = bid_;
    alpha_ = cfg_->alpha_for(local_delta);
    EdgeToVertexMsg msg;
    msg.tag = ETag::kInitReply;
    msg.min_weight = best_w;
    msg.min_degree = best_d;
    msg.local_delta = local_delta;
    ctx.broadcast(msg);
  }

  // Phase B: covered propagation (3b) else apply halvings (3d).
  template <class Ctx>
  void phase_b(Ctx& ctx) {
    std::uint32_t halvings = 0;
    bool now_covered = false;
    const auto in = ctx.inbox();
    for (std::uint32_t j = 0; j < size_; ++j) {
      const VertexToEdgeMsg* msg = in.get(j);
      if (msg->tag == VTag::kCovered) {
        now_covered = true;
      } else {
        halvings += msg->levels;
      }
    }
    if (now_covered) {
      covered_ = true;
      halted_ = true;
      EdgeToVertexMsg msg;
      msg.tag = ETag::kCovered;
      ctx.broadcast(msg);  // step 3b; the cover vertex has already halted
      return;
    }
    if (halvings > 0) {
      bid_ = std::ldexp(bid_, -int(halvings));
      if (Trace* t = cfg_->trace; t != nullptr && t->enabled) {
        t->edge_halvings[id_] += halvings;
      }
    }
    EdgeToVertexMsg msg;
    msg.tag = ETag::kHalved;
    msg.halvings = halvings;
    ctx.broadcast(msg);
  }

  // Phase D (step 3f): multiply by alpha iff unanimous raise; grow δ(e).
  template <class Ctx>
  void phase_d(Ctx& ctx) {
    bool all_raise = true;
    const auto in = ctx.inbox();
    for (std::uint32_t j = 0; j < size_; ++j) {
      const VertexToEdgeMsg* msg = in.get(j);
      if (msg->tag != VTag::kRaise) all_raise = false;
    }
    if (all_raise) {
      bid_ *= alpha_;
      ++raises_;
      if (Trace* t = cfg_->trace; t != nullptr && t->enabled) {
        ++t->edge_raises[id_];
      }
    }
    delta_ += cfg_->appendix_c ? 0.5 * bid_ : bid_;
    EdgeToVertexMsg msg;
    msg.tag = ETag::kResult;
    msg.raised = all_raise ? 1 : 0;
    ctx.broadcast(msg);
  }

  const Config* cfg_ = nullptr;
  hg::EdgeId id_ = 0;
  std::uint32_t size_ = 0;
  double bid_ = 0;
  double delta_ = 0;
  double alpha_ = 2.0;
  std::uint32_t raises_ = 0;
  bool covered_ = false;
  bool halted_ = false;
};

/// Protocol bundle for congest::Engine.
struct MwhvcProtocol {
  using VertexMsg = VertexToEdgeMsg;
  using EdgeMsg = EdgeToVertexMsg;
  using VertexAgent = MwhvcVertexAgent;
  using EdgeAgent = MwhvcEdgeAgent;
};

}  // namespace hypercover::core
