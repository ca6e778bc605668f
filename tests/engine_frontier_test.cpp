// Equivalence tests for the activity-driven engine: frontier worklists and
// line-marked accounting and clearing must be invisible to the protocol.
// Scheduling::kDense is the reference path (dense sweeps, accounting over
// every presence line, full clears), so every test here locks the
// optimized schedule against it — per round, at every thread count,
// across generator families including graphs with isolated vertices and
// protocols with empty (message-free) rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
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
// Vertices halt in waves keyed by id; everyone goes silent on rounds
// r % 5 == 3 (an empty round: zero messages in either direction), so the
// line-marked path must handle M = 0 and the next round must still read a
// fully cleared mailbox.

struct WaveMsg {
  std::uint64_t value = 0;
  [[nodiscard]] std::uint32_t bit_size() const {
    return util::bit_width_or_one(value);
  }
};

struct WaveVertex {
  std::uint64_t acc = 1;
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
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
  bool halted_flag = false;
  template <class Ctx>
  void step(Ctx& ctx) {
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

TEST(EngineFrontier, WaveProtocolLockStepMatchesDense) {
  // gnp keeps isolated vertices; they are live until their wave hits.
  const auto g = hg::gnp(160, 0.02, hg::uniform_weights(9), 77);
  congest::Options dense_opt;
  dense_opt.scheduling = congest::Scheduling::kDense;
  dense_opt.keep_round_stats = true;
  congest::Engine<WaveProtocol> dense(g, dense_opt);
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    congest::Options opt;
    opt.threads = threads;
    opt.keep_round_stats = true;
    congest::Engine<WaveProtocol> active(g, opt);
    congest::Engine<WaveProtocol> dense2(g, dense_opt);
    while (!dense2.all_halted()) {
      dense2.step_round();
      active.step_round();
      ASSERT_EQ(active.stats().transcript_hash, dense2.stats().transcript_hash)
          << "threads=" << threads;
      ASSERT_EQ(active.stats().total_messages, dense2.stats().total_messages);
      ASSERT_EQ(active.stats().total_bits, dense2.stats().total_bits);
      const auto& ar = active.stats().per_round.back();
      const auto& dr = dense2.stats().per_round.back();
      ASSERT_EQ(ar.messages, dr.messages);
      ASSERT_EQ(ar.bits, dr.bits);
      ASSERT_EQ(ar.max_message_bits, dr.max_message_bits);
    }
    EXPECT_TRUE(active.all_halted());
    EXPECT_EQ(active.live_agents(), 0u);
    for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(active.vertex_agent(v).acc, dense2.vertex_agent(v).acc);
    }
    for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(active.edge_agent(e).acc, dense2.edge_agent(e).acc);
    }
  }
  // The frontier engine must do strictly less scheduler work than the
  // dense sweeps on a progressively halting protocol.
  congest::Options active_opt;
  congest::Engine<WaveProtocol> active(g, active_opt);
  const auto sa = active.run();
  const auto sd = dense.run();
  EXPECT_EQ(sa.transcript_hash, sd.transcript_hash);
  EXPECT_LT(sa.agents_visited, sd.agents_visited);
  EXPECT_LT(sa.slots_processed, sd.slots_processed);
  EXPECT_EQ(sa.agent_steps, sd.agent_steps);  // same protocol work
  EXPECT_GT(sa.sparse_account_passes, 0u);
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
    // Bitwise, not epsilon, equality: the frontier engine must execute
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
    core::MwhvcOptions dense_opts;
    dense_opts.eps = 0.25;
    dense_opts.engine.scheduling = congest::Scheduling::kDense;
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(fam.name) + " threads=" +
                   std::to_string(threads));
      core::MwhvcOptions opts = dense_opts;
      opts.engine.scheduling = congest::Scheduling::kActive;
      opts.engine.threads = threads;
      core::MwhvcRun dense(fam.graph, dense_opts);
      core::MwhvcRun active(fam.graph, opts);
      while (!dense.done() &&
             dense.rounds() < dense_opts.engine.max_rounds) {
        dense.step_round();
        active.step_round();
        ASSERT_EQ(active.stats().transcript_hash,
                  dense.stats().transcript_hash)
            << "diverged at round " << dense.rounds();
        ASSERT_EQ(active.stats().total_messages,
                  dense.stats().total_messages);
      }
      EXPECT_TRUE(active.done());
      EXPECT_EQ(active.live_agents(), 0u);
      expect_bit_identical(active.finish_result(), dense.finish_result());
    }
  }
}

TEST(EngineFrontier, SolveMatchesDenseEndToEnd) {
  const auto g =
      hg::random_uniform(200, 420, 3, hg::exponential_weights(12), 33);
  core::MwhvcOptions opts;
  opts.eps = 0.5;
  opts.collect_trace = true;
  opts.engine.scheduling = congest::Scheduling::kDense;
  const auto dense = core::solve_mwhvc(g, opts);
  opts.engine.scheduling = congest::Scheduling::kActive;
  for (const std::uint32_t threads : {1u, 4u}) {
    opts.engine.threads = threads;
    const auto active = core::solve_mwhvc(g, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(active, dense);
    EXPECT_EQ(active.trace.edge_raises, dense.trace.edge_raises);
    EXPECT_EQ(active.trace.edge_halvings, dense.trace.edge_halvings);
    EXPECT_EQ(active.trace.stuck_per_level, dense.trace.stuck_per_level);
    EXPECT_EQ(active.trace.raise_events, dense.trace.raise_events);
    EXPECT_EQ(active.trace.stuck_events, dense.trace.stuck_events);
  }
}

TEST(EngineFrontier, AppendixCAndInvariantsMatchDense) {
  const auto g =
      hg::random_uniform(120, 260, 3, hg::exponential_weights(12), 31);
  core::MwhvcOptions opts;
  opts.eps = 0.5;
  opts.appendix_c = true;
  opts.check_invariants = true;
  opts.engine.scheduling = congest::Scheduling::kDense;
  const auto dense = core::solve_mwhvc(g, opts);
  ASSERT_TRUE(dense.invariants_ok) << dense.invariant_violation;
  opts.engine.scheduling = congest::Scheduling::kActive;
  opts.engine.threads = 4;
  const auto active = core::solve_mwhvc(g, opts);
  EXPECT_TRUE(active.invariants_ok) << active.invariant_violation;
  expect_bit_identical(active, dense);
}

// --- KMW / KVY baselines ---------------------------------------------------

TEST(EngineFrontier, KmwAndKvyMatchDense) {
  const auto g =
      hg::random_uniform(150, 300, 3, hg::exponential_weights(10), 55);
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      baselines::KmwOptions dense_o, active_o;
      dense_o.engine.scheduling = congest::Scheduling::kDense;
      active_o.engine.threads = threads;
      const auto dense = baselines::solve_kmw(g, dense_o);
      const auto active = baselines::solve_kmw(g, active_o);
      EXPECT_EQ(active.net.transcript_hash, dense.net.transcript_hash);
      EXPECT_EQ(active.net.rounds, dense.net.rounds);
      EXPECT_EQ(active.in_cover, dense.in_cover);
      EXPECT_EQ(active.duals, dense.duals);
    }
    {
      baselines::KvyOptions dense_o, active_o;
      dense_o.engine.scheduling = congest::Scheduling::kDense;
      active_o.engine.threads = threads;
      const auto dense = baselines::solve_kvy(g, dense_o);
      const auto active = baselines::solve_kvy(g, active_o);
      EXPECT_EQ(active.net.transcript_hash, dense.net.transcript_hash);
      EXPECT_EQ(active.net.rounds, dense.net.rounds);
      EXPECT_EQ(active.in_cover, dense.in_cover);
      EXPECT_EQ(active.duals, dense.duals);
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
  while (!run.done() && run.rounds() < opts.engine.max_rounds) {
    run.step_round();
    const std::size_t live = run.live_agents();
    EXPECT_LE(live, prev);  // halting is monotone in MWHVC
    prev = live;
  }
  EXPECT_EQ(run.live_agents(), 0u);
  const auto res = run.finish_result();
  EXPECT_TRUE(res.net.completed);
  // Work accounting: every scheduled visit stepped a live agent at least
  // once, and the sparse tail visited only some presence lines.
  EXPECT_GE(res.net.agents_visited, res.net.agent_steps);
  EXPECT_GT(res.net.sparse_account_passes, 0u);
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
