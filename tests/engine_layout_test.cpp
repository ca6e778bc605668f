// Golden-digest and lock-step tests for the engine's byte-presence
// mailboxes: every protocol must keep its historical transcripts, covers,
// and duals at every thread count, the bit-size lane must account every
// message size exactly, and an engine stepped again after run() released
// its round memory must continue bit-identically.
//
// The golden table below locks every registry algorithm to the
// historical transcripts: an engine change that reorders or drops a
// single message fails 30 rows at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
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

// Captured from the byte-presence engine (eps = 0.5, default options). The sequential baselines (greedy, local-ratio) never
// enter the engine, so their transcript is 0 but their digest still locks
// cover + duals.
constexpr GoldenRow kGolden[] = {
    {"random_uniform", "mwhvc", 0x426fe00900c20e96ull, 0x6f868c76c8960f42ull},
    {"random_uniform", "mwhvc-apxc", 0x35480e00c53a5a24ull,
     0xeb3f1862c4e7d811ull},
    {"random_uniform", "kmw", 0x797bab1de3bf7a0eull, 0x7a8cfcf932ff7741ull},
    {"random_uniform", "kvy", 0x2caf89ca4fb1dfabull, 0x1e9b842b963281d4ull},
    {"random_uniform", "greedy", 0x0000000000000000ull, 0xe7c75e98faa2dc5full},
    {"random_uniform", "local-ratio", 0x0000000000000000ull,
     0xcf835f795e6bccefull},
    {"bounded_degree", "mwhvc", 0x74400653c6d76437ull, 0xda8f6c81deae96ceull},
    {"bounded_degree", "mwhvc-apxc", 0x93d4d5e03d06e690ull,
     0xba4a8d8325f860ccull},
    {"bounded_degree", "kmw", 0xb42539270cc7eec4ull, 0xfde2d5bc54d50567ull},
    {"bounded_degree", "kvy", 0xd56bdcd3bc426adeull, 0xb598d4efa2ac39fcull},
    {"bounded_degree", "greedy", 0x0000000000000000ull, 0xa70cfcc07dd56d9full},
    {"bounded_degree", "local-ratio", 0x0000000000000000ull,
     0x34e0f7a07babc32dull},
    {"hyper_star", "mwhvc", 0x68669a86e00d8917ull, 0x49c89d58f3a22b20ull},
    {"hyper_star", "mwhvc-apxc", 0xf886c61f276b161aull, 0x182da5632692aa31ull},
    {"hyper_star", "kmw", 0xb6eed915cf62132bull, 0xda267e7a85c88302ull},
    {"hyper_star", "kvy", 0x22798c81a5457ec5ull, 0x8834839599d3032dull},
    {"hyper_star", "greedy", 0x0000000000000000ull, 0xd17d7b7b318abecbull},
    {"hyper_star", "local-ratio", 0x0000000000000000ull,
     0x7c878813c1092b62ull},
    {"gnp", "mwhvc", 0x358783f9dc0c7551ull, 0xf850949f8eba044bull},
    {"gnp", "mwhvc-apxc", 0x8103efcdce59a2bbull, 0x1a9905b606b1acb1ull},
    {"gnp", "kmw", 0x84cd1f0561dda51dull, 0xd1f273cff58ffa4aull},
    {"gnp", "kvy", 0x7cad6c810d14e886ull, 0x0cdc8ca77264aa08ull},
    {"gnp", "greedy", 0x0000000000000000ull, 0xc1a9598aaae07c2cull},
    {"gnp", "local-ratio", 0x0000000000000000ull, 0xb8f1901a8baea687ull},
    {"isolated", "mwhvc", 0xa30f5b618fbbb259ull, 0x96de3a9059c7ae20ull},
    {"isolated", "mwhvc-apxc", 0xff7160191a9a493dull, 0x6936c0bba905848eull},
    {"isolated", "kmw", 0xdb73010498de8b21ull, 0xb7f2d1c9e565c897ull},
    {"isolated", "kvy", 0x628ee2b2df888be6ull, 0x2a8b0158e79c7ac8ull},
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
// all-agents broadcast (saturated: dense accounting, full-line wipes),
// then the chorus (15/16 of the vertices) halts and a beacon minority
// oscillates: every beacon sends in rounds r % 4 == 0, only every fourth
// beacon in rounds r % 4 == 2. Edges echo while they keep hearing
// something and retire after two silent rounds of their own. The engine
// therefore flips between dense and sparse accounting, and between
// full-line wipes and targeted ones, for the rest of the run: a stale
// presence byte or an unmarked presence line changes the transcript.

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

/// The Osc run on osc_graph(), pinned from the dense reference sweep
/// before it was retired (that sweep stepped both sides every round, with
/// each agent then skipping its idle parity itself).
constexpr std::uint32_t kOscRounds = 24;
constexpr std::uint64_t kOscTranscript = 0x882fa59a5a5abedaull;
constexpr std::uint64_t kOscMessages = 6144;
constexpr std::uint64_t kOscBits = 99721;
constexpr std::uint64_t kOscAgents = 0xd73e9f57bb24e10full;

congest::Options osc_options(std::uint32_t threads) {
  congest::Options opt;
  opt.threads = threads;
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

TEST(EngineLayout, OscillationExercisesBothAccountingAndClearPaths) {
  const auto g = osc_graph();
  OscEngine eng(g, osc_options(1));
  const auto s = eng.run();
  EXPECT_EQ(s.transcript_hash, kOscTranscript);
  // One accounting pass (the direction written) and one clearing pass
  // (the direction read) per round.
  EXPECT_EQ(s.dense_account_passes + s.sparse_account_passes, s.rounds);
  EXPECT_EQ(s.dense_clear_passes + s.sparse_clear_passes, s.rounds);
  // The protocol's density oscillation reached both accounting paths and
  // both clearing paths.
  EXPECT_GT(s.dense_account_passes, 0u);
  EXPECT_GT(s.sparse_account_passes, 0u);
  EXPECT_GT(s.dense_clear_passes, 0u);
  EXPECT_GT(s.sparse_clear_passes, 0u);
  // Full passes would touch every presence slot of one direction per
  // pass; the line-marked passes wipe and scan only the lines sends
  // marked.
  const std::uint64_t full = g.num_incidences() * std::uint64_t{s.rounds};
  EXPECT_GT(s.clear_slots, 0u);
  EXPECT_LT(s.clear_slots, full);
  EXPECT_LT(s.slots_processed, 2 * full);
}

// --- bit-size lane ---------------------------------------------------------
//
// A send stores its bit size in the presence byte, escaping 0 and >= 255
// to "reread the payload". This protocol sends 0-, 1-, 254-, 255- and
// 300-bit messages in both directions for kLaneRounds rounds (vertices in
// the even ones, edges in the odd ones), after the first round of each
// side only to the receivers in one window of ids (so some presence lines
// stay empty), on a graph of 210 links (the last line is partial). Every
// accounted quantity must equal a hand fold over the ascending slots.

constexpr std::uint32_t kLaneSizes[] = {0, 1, 254, 255, 300};
constexpr std::uint32_t kLaneRounds = 6;

/// The Lane run, pinned from the dense reference sweep before it was
/// retired (the hand fold below derives the same transcript).
constexpr std::uint64_t kLaneTranscript = 0xcc228023670fa32cull;
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

TEST(EngineLayout, BitSizeLaneEscapesMatchHandFold) {
  const auto g = hg::random_uniform(40, 70, 3, hg::uniform_weights(9), 43);
  ASSERT_EQ(g.num_incidences(), 210u);  // 3 full presence lines + 18 slots
  const std::uint32_t limit =
      4 * static_cast<std::uint32_t>(
              util::ceil_log2(g.num_vertices() + g.num_edges() + 1));
  congest::RunStats want;
  std::uint64_t heard = 0;
  const auto fold = [&](std::uint32_t r, std::uint64_t slot,
                        std::uint64_t key_bit, std::uint32_t bits) {
    ++want.total_messages;
    want.total_bits += bits;
    want.max_message_bits = std::max(want.max_message_bits, bits);
    want.bandwidth_violations += bits > limit;
    want.transcript_hash = util::mix64(
        want.transcript_hash,
        (std::uint64_t{r} << 40) ^ ((slot * 2 + key_bit) << 8) ^ bits);
    heard += bits + 1;
  };
  for (std::uint32_t r = 0; r < kLaneRounds; ++r) {
    std::uint64_t slot = 0;
    if (r % 2 == 0) {  // edge-side slots: edges ascending, members
      for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
        for (const hg::VertexId v : g.vertices_of(e)) {
          const std::uint32_t k = local_index(g.edges_of(v), e);
          if (lane_sends(e, 16, r)) fold(r, slot, 0, lane_bits(v, k, r));
          ++slot;
        }
      }
    } else {  // vertex-side slots: vertices ascending, incident edges
      for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
        for (const hg::EdgeId e : g.edges_of(v)) {
          const std::uint32_t j = local_index(g.vertices_of(e), v);
          if (lane_sends(v, 8, r)) fold(r, slot, 1, lane_bits(e, j, r));
          ++slot;
        }
      }
    }
  }
  ASSERT_EQ(want.max_message_bits, 300u);
  ASSERT_GT(want.bandwidth_violations, 0u);
  ASSERT_EQ(want.transcript_hash, kLaneTranscript);

  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);
    congest::Engine<LaneProtocol> eng(g, osc_options(threads));
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
    EXPECT_GT(got.sparse_account_passes, 0u) << label;
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
