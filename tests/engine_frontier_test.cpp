// Tests for the activity-driven engine: frontier worklists, alternating
// sides, and line-marked accounting and retirement must be invisible to
// the protocol. The references are pinned constants and the sequential
// run: every test here locks the engine per round, at every thread
// count, across generator families including graphs with isolated
// vertices and protocols with empty (message-free) rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/kmw.hpp"
#include "baselines/kvy.hpp"
#include "congest/engine.hpp"
#include "congest/thread_pool.hpp"
#include "core/mwhvc.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/weights.hpp"

namespace hypercover {
namespace {

// --- ThreadPool::run_some -------------------------------------------------

TEST(ThreadPoolRunSome, DispatchesOnlyActivePrefix) {
  congest::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_some(2, [&](unsigned w) { ++hits[w]; });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
  EXPECT_EQ(hits[2].load(), 0);
  EXPECT_EQ(hits[3].load(), 0);
  // The pool still serves full dispatches afterwards.
  pool.run([&](unsigned w) { ++hits[w]; });
  for (const auto& h : hits) EXPECT_GE(h.load(), 1);
}

TEST(ThreadPoolRunSome, ClampsAndRunsInline) {
  congest::ThreadPool pool(3);
  int calls = 0;
  pool.run_some(1, [&](unsigned w) {
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  std::vector<std::atomic<int>> hits(3);
  pool.run_some(99, [&](unsigned w) { ++hits[w]; });  // clamped to size()
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolRunSome, PropagatesExceptionsFromActiveWorkers) {
  congest::ThreadPool pool(4);
  EXPECT_THROW(pool.run_some(2,
                             [](unsigned w) {
                               if (w == 1) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  std::atomic<int> ok{0};
  pool.run_some(3, [&](unsigned) { ++ok; });
  EXPECT_EQ(ok.load(), 3);
}

// --- Toy protocol with halting waves and empty rounds ---------------------
//
// Vertices act in even rounds and edges in odd ones. Both sides halt in
// waves keyed by id, and the acting side goes silent on rounds
// r % 5 == 3 (an empty round: zero messages), so the line-marked path
// must handle M = 0 and the next round must still read a fully retired
// mailbox. Each agent also records its step() calls, so a test can see
// which side the engine stepped in which round.

constexpr std::uint32_t kNever = ~0u;

struct WaveMsg {
  std::uint64_t value = 0;
  [[nodiscard]] std::uint32_t bit_size() const {
    return util::bit_width_or_one(value);
  }
};

struct WaveVertex {
  std::uint64_t acc = 1;
  std::uint32_t steps = 0;
  std::uint32_t last_round = kNever;  // round of the latest step()
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
    ++steps;
    last_round = ctx.round();
    for (std::uint32_t k = 0; k < ctx.degree(); ++k) {
      if (const WaveMsg* m = ctx.message_from(k)) acc += m->value;
    }
    if (ctx.round() >= 4 + (ctx.id() % 11)) {  // staggered halting
      halted_flag = true;
      return;
    }
    if (ctx.round() % 5 == 3) return;  // silent round
    ctx.broadcast(WaveMsg{acc + ctx.id()});
  }
  [[nodiscard]] bool halted() const { return halted_flag; }
};

struct WaveEdge {
  std::uint64_t acc = 2;
  std::uint32_t steps = 0;
  std::uint32_t last_round = kNever;
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
    ++steps;
    last_round = ctx.round();
    for (std::uint32_t j = 0; j < ctx.size(); ++j) {
      if (const WaveMsg* m = ctx.message_from(j)) acc ^= m->value * (j + 1);
    }
    if (ctx.round() >= 6 + (ctx.id() % 7)) {
      halted_flag = true;
      return;
    }
    if (ctx.round() % 5 == 3) return;  // silent round
    ctx.broadcast(WaveMsg{acc});
  }
  [[nodiscard]] bool halted() const { return halted_flag; }
};

struct WaveProtocol {
  using VertexMsg = WaveMsg;
  using EdgeMsg = WaveMsg;
  using VertexAgent = WaveVertex;
  using EdgeAgent = WaveEdge;
};

using WaveEngine = congest::Engine<WaveProtocol>;

/// gnp keeps isolated vertices; they are live until their wave hits.
hg::Hypergraph wave_graph() {
  return hg::gnp(160, 0.02, hg::uniform_weights(9), 77);
}

/// The Wave run on wave_graph(), pinned from the dense reference sweep
/// before it was retired (that sweep stepped both sides every round, with
/// each agent then skipping its idle parity itself).
constexpr std::uint32_t kWaveRounds = 15;
constexpr std::uint64_t kWaveTranscript = 0xd4db67ef8fd8e0c9ull;
constexpr std::uint64_t kWaveMessages = 3573;
constexpr std::uint64_t kWaveBits = 35126;
constexpr std::uint64_t kWaveAgents = 0x0a261294d9b3c92eull;

/// Folds every agent's accumulator, vertices then edges, into one word.
std::uint64_t agent_digest(const WaveEngine& eng, const hg::Hypergraph& g) {
  std::uint64_t h = 0;
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    h = util::mix64(h, eng.vertex_agent(v).acc);
  }
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    h = util::mix64(h, eng.edge_agent(e).acc);
  }
  return h;
}

TEST(EngineFrontier, WaveProtocolLockStepMatchesPinnedReference) {
  const auto g = wave_graph();
  std::vector<std::unique_ptr<WaveEngine>> engines;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    congest::Options opt;
    opt.threads = threads;
    opt.keep_round_stats = true;
    engines.push_back(std::make_unique<WaveEngine>(g, opt));
  }
  const WaveEngine& seq = *engines.front();
  std::uint32_t rounds = 0;
  while (!seq.all_halted() && rounds < 2 * kWaveRounds) {
    for (auto& eng : engines) eng->step_round();
    ++rounds;
    for (std::size_t i = 1; i < engines.size(); ++i) {
      const auto& got = engines[i]->stats();
      SCOPED_TRACE("engine " + std::to_string(i) + " round " +
                   std::to_string(rounds - 1));
      ASSERT_EQ(got.transcript_hash, seq.stats().transcript_hash);
      ASSERT_EQ(got.total_messages, seq.stats().total_messages);
      ASSERT_EQ(got.total_bits, seq.stats().total_bits);
      const auto& gr = got.per_round.back();
      const auto& sr = seq.stats().per_round.back();
      ASSERT_EQ(gr.messages, sr.messages);
      ASSERT_EQ(gr.bits, sr.bits);
      ASSERT_EQ(gr.max_message_bits, sr.max_message_bits);
    }
  }
  EXPECT_EQ(rounds, kWaveRounds);
  for (const auto& eng : engines) {
    const auto& s = eng->stats();
    EXPECT_TRUE(eng->all_halted());
    EXPECT_EQ(eng->live_agents(), 0u);
    EXPECT_EQ(s.transcript_hash, kWaveTranscript);
    EXPECT_EQ(s.total_messages, kWaveMessages);
    EXPECT_EQ(s.total_bits, kWaveBits);
    EXPECT_EQ(agent_digest(*eng, g), kWaveAgents);
    // Both empty rounds (3 and 8) carried no message.
    EXPECT_EQ(s.per_round[3].messages, 0u);
    EXPECT_EQ(s.per_round[8].messages, 0u);
  }
  // A progressively halting protocol makes the frontier do less work
  // than full passes would: some accounting passes skip lines, and the
  // presence slots touched stay below two full passes per round.
  const auto& s = seq.stats();
  EXPECT_GT(s.sparse_account_passes, 0u);
  EXPECT_LT(s.slots_processed, 2 * g.num_incidences() * std::uint64_t{rounds});
}

// The engine steps only the acting side: vertices in even rounds, edges
// in odd ones, each exactly its live agents, and agent_steps counts
// exactly those steps.
TEST(EngineFrontier, IdleSideIsNeverStepped) {
  const auto g = wave_graph();
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    congest::Options opt;
    opt.threads = threads;
    WaveEngine eng(g, opt);
    std::uint64_t want_steps = 0;
    for (std::uint32_t r = 0; !eng.all_halted(); ++r) {
      ASSERT_LT(r, 2 * kWaveRounds);
      std::uint64_t live_v = 0, live_e = 0;
      for (const auto& a : eng.vertex_agents()) live_v += !a.halted();
      for (const auto& a : eng.edge_agents()) live_e += !a.halted();
      const std::uint64_t acting = r % 2 == 0 ? live_v : live_e;
      const std::uint64_t steps_before = eng.stats().agent_steps;
      eng.step_round();
      std::uint64_t stepped_v = 0, stepped_e = 0;
      for (const auto& a : eng.vertex_agents()) stepped_v += a.last_round == r;
      for (const auto& a : eng.edge_agents()) stepped_e += a.last_round == r;
      EXPECT_EQ(stepped_v, r % 2 == 0 ? live_v : 0) << "round " << r;
      EXPECT_EQ(stepped_e, r % 2 == 0 ? 0 : live_e) << "round " << r;
      EXPECT_EQ(eng.stats().agent_steps - steps_before, acting)
          << "round " << r;
      want_steps += acting;
    }
    EXPECT_EQ(eng.stats().agent_steps, want_steps);
    std::uint64_t calls = 0;
    for (const auto& a : eng.vertex_agents()) calls += a.steps;
    for (const auto& a : eng.edge_agents()) calls += a.steps;
    EXPECT_EQ(calls, want_steps);
  }
}

// --- MWHVC lock-step via MwhvcRun -----------------------------------------

void expect_bit_identical(const core::MwhvcResult& a,
                          const core::MwhvcResult& b) {
  EXPECT_EQ(a.net.transcript_hash, b.net.transcript_hash);
  EXPECT_EQ(a.net.total_messages, b.net.total_messages);
  EXPECT_EQ(a.net.total_bits, b.net.total_bits);
  EXPECT_EQ(a.net.rounds, b.net.rounds);
  EXPECT_EQ(a.net.completed, b.net.completed);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.in_cover, b.in_cover);
  EXPECT_EQ(a.cover_weight, b.cover_weight);
  EXPECT_EQ(a.levels, b.levels);
  ASSERT_EQ(a.duals.size(), b.duals.size());
  for (std::size_t e = 0; e < a.duals.size(); ++e) {
    // Bitwise, not epsilon, equality: the sharded engine must execute
    // the exact same double operations in the exact same per-agent order.
    EXPECT_EQ(std::memcmp(&a.duals[e], &b.duals[e], sizeof(double)), 0)
        << "dual " << e << " differs: " << a.duals[e] << " vs " << b.duals[e];
  }
}

TEST(EngineFrontier, MwhvcLockStepAcrossFamiliesAndThreads) {
  hg::Builder isolated;  // hand-built: isolated vertices + tiny edges
  isolated.add_vertices(12, 5);
  isolated.add_edge({0, 3, 7});
  isolated.add_edge({1, 3});
  isolated.add_edge({7, 9});
  // vertices 2, 4, 5, 6, 8, 10, 11 are isolated (halt in round 0)
  const struct {
    const char* name;
    hg::Hypergraph graph;
  } families[] = {
      {"isolated_vertices", isolated.build()},
      {"gnp_sparse", hg::gnp(220, 0.012, hg::exponential_weights(8), 91)},
      {"random_uniform",
       hg::random_uniform(150, 320, 3, hg::exponential_weights(10), 21)},
      {"hyper_star", hg::hyper_star(48, 3, hg::uniform_weights(17), 23)},
      {"set_cover",
       hg::random_set_cover(60, 140, 4, hg::exponential_weights(8), 24)},
      {"grid", hg::grid(9, 13, hg::bimodal_weights(64), 25)},
  };
  for (const auto& fam : families) {
    core::MwhvcOptions seq_opts;
    seq_opts.eps = 0.25;
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(fam.name) + " threads=" +
                   std::to_string(threads));
      core::MwhvcOptions opts = seq_opts;
      opts.engine.threads = threads;
      core::MwhvcRun seq(fam.graph, seq_opts);
      core::MwhvcRun par(fam.graph, opts);
      while (!seq.done() && seq.rounds() < seq_opts.engine.max_rounds) {
        seq.step_round();
        par.step_round();
        ASSERT_EQ(par.stats().transcript_hash, seq.stats().transcript_hash)
            << "diverged at round " << seq.rounds();
        ASSERT_EQ(par.stats().total_messages, seq.stats().total_messages);
        ASSERT_EQ(par.live_agents(), seq.live_agents());
      }
      EXPECT_TRUE(par.done());
      EXPECT_EQ(par.live_agents(), 0u);
      expect_bit_identical(par.finish_result(), seq.finish_result());
    }
  }
}

TEST(EngineFrontier, AppendixCInvariantsHoldAcrossThreads) {
  const auto g =
      hg::random_uniform(120, 260, 3, hg::exponential_weights(12), 31);
  core::MwhvcOptions opts;
  opts.eps = 0.5;
  opts.appendix_c = true;
  opts.check_invariants = true;
  const auto seq = core::solve_mwhvc(g, opts);
  ASSERT_TRUE(seq.invariants_ok) << seq.invariant_violation;
  opts.engine.threads = 4;
  const auto par = core::solve_mwhvc(g, opts);
  EXPECT_TRUE(par.invariants_ok) << par.invariant_violation;
  expect_bit_identical(par, seq);
}

// --- KMW / KVY baselines ---------------------------------------------------

TEST(EngineFrontier, KmwAndKvyMatchAcrossThreads) {
  const auto g =
      hg::random_uniform(150, 300, 3, hg::exponential_weights(10), 55);
  const auto seq_kmw = baselines::solve_kmw(g, {});
  const auto seq_kvy = baselines::solve_kvy(g, {});
  for (const std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      baselines::KmwOptions o;
      o.engine.threads = threads;
      const auto par = baselines::solve_kmw(g, o);
      EXPECT_EQ(par.net.transcript_hash, seq_kmw.net.transcript_hash);
      EXPECT_EQ(par.net.rounds, seq_kmw.net.rounds);
      EXPECT_EQ(par.in_cover, seq_kmw.in_cover);
      EXPECT_EQ(par.duals, seq_kmw.duals);
    }
    {
      baselines::KvyOptions o;
      o.engine.threads = threads;
      const auto par = baselines::solve_kvy(g, o);
      EXPECT_EQ(par.net.transcript_hash, seq_kvy.net.transcript_hash);
      EXPECT_EQ(par.net.rounds, seq_kvy.net.rounds);
      EXPECT_EQ(par.in_cover, seq_kvy.in_cover);
      EXPECT_EQ(par.duals, seq_kvy.duals);
    }
  }
}

// --- Quiescence and work accounting ---------------------------------------

TEST(EngineFrontier, LiveAgentCounterTracksHalting) {
  const auto g = hg::random_uniform(80, 170, 3, hg::uniform_weights(20), 13);
  core::MwhvcOptions opts;
  opts.eps = 0.5;
  core::MwhvcRun run(g, opts);
  const std::size_t total =
      std::size_t{g.num_vertices()} + g.num_edges();
  EXPECT_EQ(run.live_agents(), total);  // nothing halted before round 0
  std::size_t prev = total;
  std::uint64_t live_sum = 0;
  while (!run.done() && run.rounds() < opts.engine.max_rounds) {
    run.step_round();
    const std::size_t live = run.live_agents();
    EXPECT_LE(live, prev);  // halting is monotone in MWHVC
    live_sum += prev;
    prev = live;
  }
  EXPECT_EQ(run.live_agents(), 0u);
  const auto res = run.finish_result();
  EXPECT_TRUE(res.net.completed);
  // Work accounting: each round stepped only one side's live agents, and
  // the sparse tail visited only some presence lines. One accounting and
  // one clearing pass ran per round.
  EXPECT_GT(res.net.agent_steps, 0u);
  EXPECT_LT(res.net.agent_steps, live_sum);
  EXPECT_GT(res.net.sparse_account_passes, 0u);
  EXPECT_EQ(res.net.sparse_account_passes + res.net.dense_account_passes,
            res.net.rounds);
  EXPECT_EQ(res.net.sparse_clear_passes + res.net.dense_clear_passes,
            res.net.rounds);
}

TEST(EngineFrontier, EdgeFreeInstanceCompletesInstantly) {
  hg::Builder b;
  b.add_vertices(5, 3);
  const auto g = b.build();
  core::MwhvcRun run(g, {});
  EXPECT_TRUE(run.done());
  EXPECT_EQ(run.live_agents(), 0u);
  run.step_round();  // no-op, must not crash
  const auto res = run.finish_result();
  EXPECT_TRUE(res.net.completed);
  EXPECT_EQ(res.net.rounds, 0u);
  EXPECT_EQ(res.cover_weight, 0);
}

}  // namespace
}  // namespace hypercover
