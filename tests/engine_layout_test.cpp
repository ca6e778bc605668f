// Golden-digest and lock-step tests for the engine's byte-presence
// mailboxes: every protocol must keep its pinned transcripts, covers,
// and duals at every thread count, send-time accounting must count every
// message size exactly, the transcript hash must tell apart what it
// claims to and nothing else, and an engine stepped again after run()
// released its round memory must continue bit-identically.
//
// The golden table below locks every registry algorithm to the pinned
// transcripts: an engine change that moves, resizes or drops a single
// message fails the engine rows at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "congest/engine.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/weights.hpp"
#include "util/math.hpp"

namespace hypercover {
namespace {

// --- golden digests -------------------------------------------------------

/// Folds a solution into one word the same way the capture program did:
/// transcript, cover weight, cover bitmap, then raw dual bits.
std::uint64_t result_digest(const api::Solution& s) {
  std::uint64_t h = s.net.transcript_hash;
  h = util::mix64(h, static_cast<std::uint64_t>(s.cover_weight));
  for (const bool b : s.in_cover) h = util::mix64(h, b ? 1 : 0);
  for (const double d : s.duals) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = util::mix64(h, bits);
  }
  return h;
}

struct GoldenRow {
  const char* family;
  const char* algo;
  std::uint64_t transcript;
  std::uint64_t digest;
};

// Captured from the byte-presence engine (eps = 0.5, default options)
// when the transcript became a per-round multiset hash; covers, duals,
// messages and bits are those of the earlier slot-order chain. The
// sequential baselines (greedy, local-ratio) never enter the engine, so
// their transcript is 0 but their digest still locks cover + duals.
constexpr GoldenRow kGolden[] = {
    {"random_uniform", "mwhvc", 0x201250ce8fcdc3b0ull, 0xf37a6a13d1bc74ebull},
    {"random_uniform", "mwhvc-apxc", 0x502b1f9fbb3de1a6ull,
     0x65572ae708ab1eccull},
    {"random_uniform", "kmw", 0x7e5c883c99841e1dull, 0xa4e0e0eb3c08cfebull},
    {"random_uniform", "kvy", 0xe6b2c231306f20e0ull, 0xe5dbfb76c4636ba9ull},
    {"random_uniform", "greedy", 0x0000000000000000ull, 0xe7c75e98faa2dc5full},
    {"random_uniform", "local-ratio", 0x0000000000000000ull,
     0xcf835f795e6bccefull},
    {"bounded_degree", "mwhvc", 0x406784b72ce8f4f1ull, 0x57bce9fdf2908632ull},
    {"bounded_degree", "mwhvc-apxc", 0x0a827f79d1f3b0ebull,
     0xe244d677b639cdcdull},
    {"bounded_degree", "kmw", 0x60a40ecb7bbdfcf2ull, 0x7d432ed174ab1820ull},
    {"bounded_degree", "kvy", 0x1f2b4dec2d76cc9dull, 0xf1c7b9de2a06fecaull},
    {"bounded_degree", "greedy", 0x0000000000000000ull, 0xa70cfcc07dd56d9full},
    {"bounded_degree", "local-ratio", 0x0000000000000000ull,
     0x34e0f7a07babc32dull},
    {"hyper_star", "mwhvc", 0xaea38f3001d67082ull, 0x8058a37ab8473eaeull},
    {"hyper_star", "mwhvc-apxc", 0x0754eb550f0041b5ull, 0x1b35090881fbe0fdull},
    {"hyper_star", "kmw", 0x6d63ff5a834dc409ull, 0xb7b35fa0c7bb610dull},
    {"hyper_star", "kvy", 0x651ddb6406e7ff4bull, 0x8e01d198ef8216b2ull},
    {"hyper_star", "greedy", 0x0000000000000000ull, 0xd17d7b7b318abecbull},
    {"hyper_star", "local-ratio", 0x0000000000000000ull,
     0x7c878813c1092b62ull},
    {"gnp", "mwhvc", 0x950883b4d3e38b10ull, 0x90991070b4ab33b3ull},
    {"gnp", "mwhvc-apxc", 0xb8229b428a5a4247ull, 0xcbb5db43e58b57abull},
    {"gnp", "kmw", 0x931f75e470dddd82ull, 0xe832a548b402426dull},
    {"gnp", "kvy", 0x40bef67e0f074357ull, 0x490f2271460e116aull},
    {"gnp", "greedy", 0x0000000000000000ull, 0xc1a9598aaae07c2cull},
    {"gnp", "local-ratio", 0x0000000000000000ull, 0xb8f1901a8baea687ull},
    {"isolated", "mwhvc", 0xab8cd9c75521b8b3ull, 0xcfd6d2053b07c191ull},
    {"isolated", "mwhvc-apxc", 0xbd143f66685ee750ull, 0x79d2e9cb306c285eull},
    {"isolated", "kmw", 0xf285af1c5ee713ffull, 0x2b8122723b182ab5ull},
    {"isolated", "kvy", 0xedb7b409990a6aecull, 0x98ef568a104da907ull},
    {"isolated", "greedy", 0x0000000000000000ull, 0xb83522a0215c7207ull},
    {"isolated", "local-ratio", 0x0000000000000000ull,
     0x2d149a6c6c0bd2e3ull},
};

struct Family {
  const char* name;
  hg::Hypergraph graph;
};

std::vector<Family> golden_families() {
  hg::Builder isolated;
  isolated.add_vertices(12, 5);
  isolated.add_edge({0, 3, 7});
  isolated.add_edge({1, 3});
  isolated.add_edge({7, 9});
  std::vector<Family> fams;
  fams.push_back({"random_uniform", hg::random_uniform(150, 320, 3,
                                                       hg::exponential_weights(
                                                           10),
                                                       21)});
  fams.push_back({"bounded_degree",
                  hg::random_bounded_degree(200, 340, 4, 8,
                                            hg::uniform_weights(99), 22)});
  fams.push_back({"hyper_star",
                  hg::hyper_star(48, 3, hg::uniform_weights(17), 23)});
  fams.push_back({"gnp", hg::gnp(64, 0.08, hg::uniform_weights(13), 24)});
  fams.push_back({"isolated", isolated.build()});
  return fams;
}

const GoldenRow& golden_row(const char* family, std::string_view algo) {
  for (const GoldenRow& row : kGolden) {
    if (algo == row.algo && std::string_view(family) == row.family) return row;
  }
  ADD_FAILURE() << "no golden row for " << family << "/" << algo
                << " — capture one before extending the registry";
  static GoldenRow missing{"", "", 0, 0};
  return missing;
}

TEST(EngineLayoutGolden, EveryAlgorithmMatchesGoldenDigests) {
  for (const Family& fam : golden_families()) {
    for (const api::Solver& solver : api::solvers()) {
      const GoldenRow& want = golden_row(fam.name, solver.name);
      SCOPED_TRACE(std::string(fam.name) + "/" + std::string(solver.name));
      api::SolveRequest req;
      req.eps = 0.5;
      const api::Solution sol = api::solve(solver.name, fam.graph, req);
      EXPECT_EQ(sol.net.transcript_hash, want.transcript);
      EXPECT_EQ(result_digest(sol), want.digest);
    }
  }
}

// --- Oscillating saturated <-> sparse protocol -----------------------------
//
// Vertices act in even rounds and edges in odd ones. Four rounds of
// all-agents broadcast (saturated: full-line wipes), then the chorus
// (15/16 of the vertices) halts and a beacon minority oscillates: every
// beacon sends in rounds r % 4 == 0, only every fourth beacon in rounds
// r % 4 == 2. Edges echo while they keep hearing something and retire
// after two silent rounds of their own. The engine therefore flips
// between full-line wipes and targeted ones for the rest of the run: a
// stale presence byte or an unmarked presence line changes the
// transcript.

struct OscMsg {
  std::uint64_t value = 0;
  [[nodiscard]] std::uint32_t bit_size() const {
    return util::bit_width_or_one(value);
  }
};

struct OscVertex {
  std::uint64_t acc = 1;
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (std::uint32_t k = 0; k < in.size(); ++k) {
      if (const OscMsg* m = in.get(k)) acc += m->value * (k + 1);
    }
    const std::uint32_t r = ctx.round();
    if (r < 4) {  // saturated prefix: everyone talks
      ctx.broadcast(OscMsg{acc + ctx.id()});
      return;
    }
    if (ctx.id() % 16 != 0) {  // chorus retires after the prefix
      halted_flag = true;
      return;
    }
    if (r >= 20) {  // beacons retire last
      halted_flag = true;
      return;
    }
    if (r % 4 == 0 || ctx.id() % 64 == 0) {  // oscillating beacon duty
      ctx.broadcast(OscMsg{acc ^ (std::uint64_t{r} << 8)});
    }
  }
  [[nodiscard]] bool halted() const { return halted_flag; }
};

struct OscEdge {
  std::uint64_t acc = 2;
  std::uint32_t silent_rounds = 0;
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
    bool heard = false;
    for (const auto entry : ctx.inbox()) {  // present-only iteration
      acc ^= entry.msg->value * (entry.local + 1);
      heard = true;
    }
    if (heard) {
      silent_rounds = 0;
      ctx.broadcast(OscMsg{acc});
      return;
    }
    if (ctx.round() >= 5 && ++silent_rounds >= 2) halted_flag = true;
  }
  [[nodiscard]] bool halted() const { return halted_flag; }
};

struct OscProtocol {
  using VertexMsg = OscMsg;
  using EdgeMsg = OscMsg;
  using VertexAgent = OscVertex;
  using EdgeAgent = OscEdge;
};

using OscEngine = congest::Engine<OscProtocol>;

hg::Hypergraph osc_graph() {
  return hg::random_uniform(192, 400, 3, hg::exponential_weights(9), 41);
}

/// The Osc run on osc_graph(). Rounds, messages, bits and agent states
/// were pinned from the dense reference sweep before it was retired; the
/// transcript was re-pinned for the per-round multiset hash.
constexpr std::uint32_t kOscRounds = 24;
constexpr std::uint64_t kOscTranscript = 0xc9863547fd7e6782ull;
constexpr std::uint64_t kOscMessages = 6144;
constexpr std::uint64_t kOscBits = 99721;
constexpr std::uint64_t kOscAgents = 0xd73e9f57bb24e10full;

congest::Options osc_options(std::uint32_t threads) {
  congest::Options opt;
  opt.threads = threads;
  return opt;
}

/// One way to run an engine: its own pool of `threads`, or a borrowed
/// pool of `pool` workers. Pools of 3 and 5 split the shards unevenly.
struct Execution {
  std::uint32_t threads = 1;
  unsigned pool = 0;
  [[nodiscard]] std::string label() const {
    return pool > 0 ? "pool=" + std::to_string(pool)
                    : "threads=" + std::to_string(threads);
  }
};

constexpr Execution kExecutions[] = {{1, 0}, {2, 0}, {4, 0}, {8, 0},
                                     {1, 2}, {1, 3}, {1, 5}};

/// Options for `exec`; a borrowed pool is made into `pool`, which must
/// outlive the engine.
congest::Options options_for(const Execution& exec,
                             std::unique_ptr<congest::ThreadPool>& pool) {
  congest::Options opt = osc_options(exec.threads);
  if (exec.pool > 0) {
    pool = std::make_unique<congest::ThreadPool>(exec.pool);
    opt.pool = pool.get();
  }
  return opt;
}

/// Folds every agent's state word `word(agent)`, vertices then edges,
/// into one digest.
template <class Protocol, class Word>
std::uint64_t agent_digest(const congest::Engine<Protocol>& eng,
                           const hg::Hypergraph& g, Word word) {
  std::uint64_t h = 0;
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    h = util::mix64(h, word(eng.vertex_agent(v)));
  }
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    h = util::mix64(h, word(eng.edge_agent(e)));
  }
  return h;
}

std::uint64_t osc_digest(const OscEngine& eng, const hg::Hypergraph& g) {
  return agent_digest(eng, g, [](const auto& a) { return a.acc; });
}

TEST(EngineLayout, OscillatingProtocolLockStepAcrossThreads) {
  const auto g = osc_graph();
  std::vector<std::unique_ptr<OscEngine>> engines;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    engines.push_back(std::make_unique<OscEngine>(g, osc_options(threads)));
  }
  const OscEngine& seq = *engines.front();
  std::uint32_t rounds = 0;
  while (!seq.all_halted() && rounds < 2 * kOscRounds) {
    for (auto& eng : engines) eng->step_round();
    ++rounds;
    for (std::size_t i = 1; i < engines.size(); ++i) {
      ASSERT_EQ(engines[i]->stats().transcript_hash,
                seq.stats().transcript_hash)
          << "engine " << i << " diverged at round " << rounds - 1;
      ASSERT_EQ(engines[i]->stats().total_messages,
                seq.stats().total_messages)
          << "engine " << i;
    }
  }
  EXPECT_EQ(rounds, kOscRounds);
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const auto& s = engines[i]->stats();
    EXPECT_TRUE(engines[i]->all_halted()) << "engine " << i;
    EXPECT_EQ(s.transcript_hash, kOscTranscript) << "engine " << i;
    EXPECT_EQ(s.total_messages, kOscMessages) << "engine " << i;
    EXPECT_EQ(s.total_bits, kOscBits) << "engine " << i;
    EXPECT_EQ(osc_digest(*engines[i], g), kOscAgents) << "engine " << i;
  }
}

// Round r retires what round r - 1 sent, and slots_processed counts the
// presence bytes it wipes. Stepped lock-step, each round's delta must be
// every link after a saturated round, nothing after a silent one, and
// otherwise at least one slot per message but at most every link. The
// oscillation must reach both full-line wipes and targeted ones.
TEST(EngineLayout, OscillationExercisesFullAndTargetedWipes) {
  const auto g = osc_graph();
  const std::uint64_t links = g.num_incidences();
  congest::Options opt = osc_options(1);
  opt.keep_round_stats = true;
  OscEngine eng(g, opt);
  std::uint64_t sent = 0;  // messages the previous round sent
  std::uint32_t full = 0, targeted = 0;
  while (!eng.all_halted()) {
    ASSERT_LT(eng.stats().per_round.size(), 2 * kOscRounds);
    const std::uint64_t before = eng.stats().slots_processed;
    eng.step_round();
    const std::uint64_t wiped = eng.stats().slots_processed - before;
    const auto round = eng.stats().per_round.size() - 1;
    if (sent == links) {
      EXPECT_EQ(wiped, links) << "round " << round;
    } else if (sent == 0) {
      EXPECT_EQ(wiped, 0u) << "round " << round;
    } else {
      EXPECT_GE(wiped, sent) << "round " << round;
      EXPECT_LE(wiped, links) << "round " << round;
    }
    full += wiped == links;
    targeted += wiped > 0 && wiped < links;
    sent = eng.stats().per_round.back().messages;
  }
  EXPECT_EQ(eng.stats().transcript_hash, kOscTranscript);
  EXPECT_GT(full, 0u);
  EXPECT_GT(targeted, 0u);
}

// --- message sizes and send-time accounting --------------------------------
//
// Each send is tallied as it is posted. This protocol sends 0-, 1-, 254-,
// 255- and 300-bit messages (the sizes around the escape of an earlier
// one-byte size lane) in both directions for kLaneRounds rounds (vertices
// in the even ones, edges in the odd ones), after the first round of each
// side only to the receivers in one window of ids (so some presence lines
// stay empty), on a graph of 210 links (the last line is partial). Every
// accounted quantity must equal a hand fold, and the fold visits each
// round's messages in descending slot order, so the send order drops out.

constexpr std::uint32_t kLaneSizes[] = {0, 1, 254, 255, 300};
constexpr std::uint32_t kLaneRounds = 6;

/// The Lane run (the hand fold below derives the same transcript).
constexpr std::uint64_t kLaneTranscript = 0x28b9ad34f4df5da9ull;
constexpr std::uint64_t kLaneAgents = 0x81c921defccd0b83ull;

struct LaneMsg {
  std::uint32_t bits = 0;
  [[nodiscard]] std::uint32_t bit_size() const { return bits; }
};

/// Whether a sender sends to the receiver `to` in round r: everyone in
/// rounds 0 and 1, then one window of receiver ids in four.
bool lane_sends(std::uint32_t to, std::uint32_t window, std::uint32_t r) {
  return r < 2 || to / window % 4 == r % 4;
}
/// The bit size sender `id` uses on its link `local` in round r.
std::uint32_t lane_bits(std::uint32_t id, std::uint32_t local,
                        std::uint32_t r) {
  return kLaneSizes[(id + local + r) % std::size(kLaneSizes)];
}

struct LaneVertex {
  std::uint64_t heard = 0;
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
    for (const auto entry : ctx.inbox()) heard += entry.msg->bits + 1;
    const std::uint32_t r = ctx.round();
    if (r >= kLaneRounds) {
      halted_flag = true;
      return;
    }
    for (std::uint32_t k = 0; k < ctx.degree(); ++k) {
      if (lane_sends(ctx.edge_at(k), 16, r)) {
        ctx.send(k, LaneMsg{lane_bits(ctx.id(), k, r)});
      }
    }
  }
  [[nodiscard]] bool halted() const { return halted_flag; }
};

struct LaneEdge {
  std::uint64_t heard = 0;
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
    for (const auto entry : ctx.inbox()) heard += entry.msg->bits + 1;
    const std::uint32_t r = ctx.round();
    if (r >= kLaneRounds) {
      halted_flag = true;
      return;
    }
    for (std::uint32_t j = 0; j < ctx.size(); ++j) {
      if (lane_sends(ctx.vertex_at(j), 8, r)) {
        ctx.send(j, LaneMsg{lane_bits(ctx.id(), j, r)});
      }
    }
  }
  [[nodiscard]] bool halted() const { return halted_flag; }
};

struct LaneProtocol {
  using VertexMsg = LaneMsg;
  using EdgeMsg = LaneMsg;
  using VertexAgent = LaneVertex;
  using EdgeAgent = LaneEdge;
};

std::uint32_t local_index(std::span<const std::uint32_t> ids,
                          std::uint32_t id) {
  return static_cast<std::uint32_t>(std::find(ids.begin(), ids.end(), id) -
                                    ids.begin());
}

hg::Hypergraph lane_graph() {
  return hg::random_uniform(40, 70, 3, hg::uniform_weights(9), 43);
}

TEST(EngineLayout, MessageSizesMatchDescendingHandFold) {
  const auto g = lane_graph();
  ASSERT_EQ(g.num_incidences(), 210u);  // 3 full presence lines + 18 slots
  const std::uint32_t limit =
      4 * static_cast<std::uint32_t>(
              util::ceil_log2(g.num_vertices() + g.num_edges() + 1));
  congest::RunStats want;
  std::uint64_t heard = 0;
  for (std::uint32_t r = 0; r < kLaneRounds; ++r) {
    // This round's messages as (receiver slot, bits), slots ascending.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> sent;
    std::uint32_t slot = 0;
    if (r % 2 == 0) {  // edge-side slots: edges ascending, members
      for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
        for (const hg::VertexId v : g.vertices_of(e)) {
          const std::uint32_t k = local_index(g.edges_of(v), e);
          if (lane_sends(e, 16, r)) sent.emplace_back(slot, lane_bits(v, k, r));
          ++slot;
        }
      }
    } else {  // vertex-side slots: vertices ascending, incident edges
      for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
        for (const hg::EdgeId e : g.edges_of(v)) {
          const std::uint32_t j = local_index(g.vertices_of(e), v);
          if (lane_sends(v, 8, r)) sent.emplace_back(slot, lane_bits(e, j, r));
          ++slot;
        }
      }
    }
    ASSERT_FALSE(sent.empty());
    std::uint64_t term_sum = 0;
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      const auto [at, bits] = *it;
      ++want.total_messages;
      want.total_bits += bits;
      want.max_message_bits = std::max(want.max_message_bits, bits);
      want.bandwidth_violations += bits > limit;
      term_sum += congest::detail::transcript_term(r, at, bits);
      heard += bits + 1;
    }
    want.transcript_hash = util::mix64(want.transcript_hash, term_sum);
  }
  ASSERT_EQ(want.max_message_bits, 300u);
  ASSERT_GT(want.bandwidth_violations, 0u);
  ASSERT_EQ(want.transcript_hash, kLaneTranscript);

  // Every thread count and shard split folds the same tallies.
  for (const Execution& exec : kExecutions) {
    const std::string label = exec.label();
    std::unique_ptr<congest::ThreadPool> pool;
    congest::Engine<LaneProtocol> eng(g, options_for(exec, pool));
    const auto got = eng.run();
    EXPECT_TRUE(got.completed) << label;
    EXPECT_EQ(got.rounds, kLaneRounds + 2) << label;  // one halting round each
    EXPECT_EQ(got.bandwidth_limit_bits, limit) << label;
    EXPECT_EQ(got.total_messages, want.total_messages) << label;
    EXPECT_EQ(got.total_bits, want.total_bits) << label;
    EXPECT_EQ(got.max_message_bits, want.max_message_bits) << label;
    EXPECT_EQ(got.bandwidth_violations, want.bandwidth_violations) << label;
    EXPECT_EQ(got.transcript_hash, want.transcript_hash) << label;
    // Every message, 0-bit ones included, reached its receiver intact.
    std::uint64_t got_heard = 0;
    for (const auto& a : eng.vertex_agents()) got_heard += a.heard;
    for (const auto& a : eng.edge_agents()) got_heard += a.heard;
    EXPECT_EQ(got_heard, heard) << label;
    EXPECT_EQ(agent_digest(eng, g, [](const auto& a) { return a.heard; }),
              kLaneAgents)
        << label;
  }
}

// --- transcript hash properties --------------------------------------------
//
// A script protocol on a hand-built graph sends exactly the listed
// messages, so two scripts that differ in one respect must hash apart,
// and one script must hash alike at every thread count and shard split.

struct ScriptSend {
  std::uint32_t round;   // vertex `sender` sends in even rounds, edge in odd
  std::uint32_t sender;
  std::uint32_t local;   // the sender's incident link
  std::uint32_t bits;
};
using Script = std::vector<ScriptSend>;

constexpr std::uint32_t kScriptRounds = 6;

struct ScriptAgent {
  const Script* script = nullptr;
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
    if (ctx.round() >= kScriptRounds) {
      halted_flag = true;
      return;
    }
    for (const ScriptSend& s : *script) {
      if (s.round == ctx.round() && s.sender == ctx.id()) {
        ctx.send(s.local, LaneMsg{s.bits});
      }
    }
  }
  [[nodiscard]] bool halted() const { return halted_flag; }
};

struct ScriptProtocol {
  using VertexMsg = LaneMsg;
  using EdgeMsg = LaneMsg;
  using VertexAgent = ScriptAgent;
  using EdgeAgent = ScriptAgent;
};

/// edges_of: v0 {e0, e2}, v1 {e0, e1}, v2 {e1}, v3 {e1, e2}.
hg::Hypergraph script_graph() {
  hg::Builder b;
  b.add_vertices(4, 1);
  b.add_edge({0, 1});
  b.add_edge({1, 2, 3});
  b.add_edge({0, 3});
  return b.build();
}

congest::RunStats run_script(const hg::Hypergraph& g, const Script& script,
                             const Execution& exec = {}) {
  std::unique_ptr<congest::ThreadPool> pool;
  congest::Engine<ScriptProtocol> eng(g, options_for(exec, pool));
  for (auto& a : eng.vertex_agents()) a.script = &script;
  for (auto& a : eng.edge_agents()) a.script = &script;
  return eng.run();
}

TEST(EngineLayout, TranscriptTermSeparatesEveryField) {
  using congest::detail::transcript_term;
  const std::uint64_t base = transcript_term(4, 10, 7);
  EXPECT_NE(transcript_term(5, 10, 7), base);  // round
  EXPECT_NE(transcript_term(4, 11, 7), base);  // slot
  EXPECT_NE(transcript_term(4, 10, 8), base);  // bits
  // A packed key such as round << 40 ^ slot << 8 ^ bits lets one field
  // spill into the next: slot 1 with 0 bits and slot 0 with 256 bits
  // would share it.
  EXPECT_NE(transcript_term(0, 1, 0), transcript_term(0, 0, 256));
  // Two links of one round trading adjacent bit sizes must change the
  // round's term sum. Terms without avalanche (a bare mix64 chain) shift
  // by about +-1 per bit, so such trades cancel for many slot pairs.
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (std::uint32_t s = 0; s < 16; ++s) {
      for (std::uint32_t t = s + 1; t < 16; ++t) {
        for (std::uint32_t b = 0; b < 8; ++b) {
          EXPECT_NE(transcript_term(r, s, b) + transcript_term(r, t, b + 1),
                    transcript_term(r, s, b + 1) + transcript_term(r, t, b))
              << "round " << r << " slots " << s << ", " << t << " bits "
              << b;
        }
      }
    }
  }
}

TEST(EngineLayout, TranscriptHashSeparatesScripts) {
  const auto g = script_graph();
  const Script base = {{0, 0, 0, 5}, {0, 1, 1, 9}, {1, 1, 2, 3}};
  struct Row {
    const char* change;
    Script a;
    Script b;
  };
  const Row rows[] = {
      {"swap the bit sizes of two links in one round", base,
       {{0, 0, 0, 9}, {0, 1, 1, 5}, {1, 1, 2, 3}}},
      // v0 and v1 reach e0's receiver slots 0 and 1.
      {"swap adjacent bit sizes on receiver slots 0 and 1",
       {{0, 0, 0, 4}, {0, 1, 0, 5}}, {{0, 0, 0, 5}, {0, 1, 0, 4}}},
      {"move a message to its side's next round", {{0, 2, 0, 7}},
       {{2, 2, 0, 7}}},
      // Round parity fixes the direction, so the flip moves the message
      // to a round of the other side.
      {"flip a link's direction (v0 -> e2 vs e2 -> v0)", {{2, 0, 1, 7}},
       {{1, 2, 0, 7}}},
      {"drop one message", base, {{0, 0, 0, 5}, {1, 1, 2, 3}}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.change);
    const auto a = run_script(g, row.a);
    const auto b = run_script(g, row.b);
    EXPECT_EQ(a.total_messages, row.a.size());
    EXPECT_EQ(b.total_messages, row.b.size());
    EXPECT_NE(a.transcript_hash, b.transcript_hash);
    for (const Script* script : {&row.a, &row.b}) {
      const std::uint64_t want = run_script(g, *script).transcript_hash;
      for (const Execution& exec : kExecutions) {
        EXPECT_EQ(run_script(g, *script, exec).transcript_hash, want)
            << exec.label();
      }
    }
  }
}


// --- bounded round memory --------------------------------------------------

TEST(EngineLayout, RunReleasesRoundScratchMemory) {
  const auto g = osc_graph();
  OscEngine eng(g, osc_options(4));
  eng.step_round();
  eng.step_round();
  eng.step_round();
  // Mid-run the worklists hold their CSR-bounded reservations...
  EXPECT_GT(eng.scratch_capacity_bytes(), 0u);
  const auto stats = eng.run();
  EXPECT_TRUE(stats.completed);
  // ...and a finished run hands every byte of round scratch back.
  EXPECT_EQ(eng.scratch_capacity_bytes(), 0u);
}

// run() releases the round memory on exit but keeps the line bitmaps.
// At the cut, the direction written in the last round is still unread;
// stepping the engine again must read it, then wipe every line it
// marked when it retires, or its stale presence bytes read as messages
// the next time that direction is written. Stop after every round k —
// the saturated prefix (k <= 4) and the sparse phase, where only some
// lines are marked — then step to quiescence and compare against an
// uninterrupted run. The beacons' sends repeat with period 4, so stale
// bytes only surface when the sends after the cut differ from those
// before it (around the beacons' retirement at round 20); hence every
// k, not a sample.
TEST(EngineLayout, SteppingResumesAfterRunReleasesRoundMemory) {
  const auto g = osc_graph();
  for (const std::uint32_t threads : {1u, 4u}) {
    OscEngine whole(g, osc_options(threads));
    const auto want = whole.run();
    ASSERT_TRUE(want.completed);
    ASSERT_EQ(want.rounds, kOscRounds);
    ASSERT_EQ(want.transcript_hash, kOscTranscript);
    for (std::uint32_t k = 1; k < want.rounds; ++k) {
      const std::string label =
          "threads=" + std::to_string(threads) + " k=" + std::to_string(k);
      congest::Options opt = osc_options(threads);
      opt.max_rounds = k;
      OscEngine resumed(g, opt);
      const auto cut = resumed.run();
      ASSERT_FALSE(cut.completed) << label;
      ASSERT_EQ(cut.rounds, k) << label;
      std::uint32_t rounds = k;  // bounded: stale messages can keep
                                 // agents alive forever
      while (!resumed.all_halted() && rounds < 2 * want.rounds) {
        resumed.step_round();
        ++rounds;
      }
      EXPECT_EQ(rounds, want.rounds) << label;
      EXPECT_EQ(resumed.stats().transcript_hash, want.transcript_hash)
          << label;
      EXPECT_EQ(resumed.stats().total_messages, want.total_messages)
          << label;
      EXPECT_EQ(osc_digest(resumed, g), kOscAgents) << label;
    }
  }
}

}  // namespace
}  // namespace hypercover
