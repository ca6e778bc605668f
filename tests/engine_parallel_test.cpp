// Determinism tests for the sharded CONGEST engine: at every thread count
// the engine must produce the same per-round transcript digest and the same
// bit-identical MwhvcResult as the sequential schedule, because accounting
// runs in slot order after the agents step and agents never share mutable
// state. Also covers the thread pool itself.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "congest/engine.hpp"
#include "congest/thread_pool.hpp"
#include "core/mwhvc.hpp"
#include "core/params.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/weights.hpp"

namespace hypercover {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  congest::ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](unsigned w) { ++hits[w]; });
  pool.run([&](unsigned w) { ++hits[w]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  congest::ThreadPool pool(0);  // clamped to 1
  ASSERT_EQ(pool.size(), 1u);
  int calls = 0;
  pool.run([&](unsigned w) {
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  congest::ThreadPool pool(3);
  EXPECT_THROW(
      pool.run([](unsigned w) {
        if (w == 1) throw std::runtime_error("shard failed");
      }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ok{0};
  pool.run([&](unsigned) { ++ok; });
  EXPECT_EQ(ok.load(), 3);
}

TEST(ThreadPool, ResolveZeroMeansHardware) {
  EXPECT_GE(congest::ThreadPool::resolve(0), 1u);
  EXPECT_EQ(congest::ThreadPool::resolve(6), 6u);
}

// --- Lock-step per-round digest on a chatty toy protocol ------------------

struct PingMsg {
  std::uint64_t value = 0;
  [[nodiscard]] std::uint32_t bit_size() const {
    return util::bit_width_or_one(value);
  }
};

constexpr std::uint32_t kPingRounds = 12;

struct PingVertex {
  std::uint64_t acc = 1;
  template <class Ctx>
  void step(Ctx& ctx) {
    for (std::uint32_t k = 0; k < ctx.degree(); ++k) {
      if (const PingMsg* m = ctx.message_from(k)) acc += m->value;
    }
    ctx.broadcast(PingMsg{acc + ctx.id()});
  }
  [[nodiscard]] bool halted() const { return false; }
};

struct PingEdge {
  std::uint64_t acc = 1;
  template <class Ctx>
  void step(Ctx& ctx) {
    for (std::uint32_t j = 0; j < ctx.size(); ++j) {
      if (const PingMsg* m = ctx.message_from(j)) acc ^= m->value * (j + 1);
    }
    ctx.broadcast(PingMsg{acc});
  }
  [[nodiscard]] bool halted() const { return false; }
};

struct PingProtocol {
  using VertexMsg = PingMsg;
  using EdgeMsg = PingMsg;
  using VertexAgent = PingVertex;
  using EdgeAgent = PingEdge;
};

TEST(EngineParallel, PerRoundDigestMatchesSequential) {
  const auto g = hg::random_uniform(120, 260, 3, hg::uniform_weights(50), 11);
  congest::Options seq_opt;
  seq_opt.max_rounds = kPingRounds;
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    congest::Options par_opt = seq_opt;
    par_opt.threads = threads;
    congest::Engine<PingProtocol> seq2(g, seq_opt), par(g, par_opt);
    EXPECT_EQ(par.thread_count(), threads);
    for (std::uint32_t r = 0; r < kPingRounds; ++r) {
      seq2.step_round();
      par.step_round();
      ASSERT_EQ(par.stats().transcript_hash, seq2.stats().transcript_hash)
          << "threads=" << threads << " diverged at round " << r;
      ASSERT_EQ(par.stats().total_bits, seq2.stats().total_bits);
      ASSERT_EQ(par.stats().total_messages, seq2.stats().total_messages);
    }
    // Agent state is also identical, not just the transcript.
    for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(par.vertex_agent(v).acc, seq2.vertex_agent(v).acc);
    }
    for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(par.edge_agent(e).acc, seq2.edge_agent(e).acc);
    }
  }
}

TEST(EngineParallel, PerRoundStatsMatchSequential) {
  const auto g = hg::random_uniform(60, 120, 3, hg::uniform_weights(9), 3);
  congest::Options opt;
  opt.max_rounds = 6;
  opt.keep_round_stats = true;
  congest::Engine<PingProtocol> seq(g, opt);
  opt.threads = 4;
  congest::Engine<PingProtocol> par(g, opt);
  const auto ss = seq.run();
  const auto sp = par.run();
  ASSERT_EQ(sp.per_round.size(), ss.per_round.size());
  for (std::size_t r = 0; r < ss.per_round.size(); ++r) {
    EXPECT_EQ(sp.per_round[r].messages, ss.per_round[r].messages);
    EXPECT_EQ(sp.per_round[r].bits, ss.per_round[r].bits);
    EXPECT_EQ(sp.per_round[r].max_message_bits, ss.per_round[r].max_message_bits);
  }
}

// --- Full MWHVC solves across generator families and thread counts --------

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
    // Bitwise, not epsilon, equality: the parallel engine must execute the
    // exact same double operations in the exact same per-agent order.
    EXPECT_EQ(std::memcmp(&a.duals[e], &b.duals[e], sizeof(double)), 0)
        << "dual " << e << " differs: " << a.duals[e] << " vs " << b.duals[e];
  }
  EXPECT_EQ(a.trace.raise_events, b.trace.raise_events);
  EXPECT_EQ(a.trace.stuck_events, b.trace.stuck_events);
  EXPECT_EQ(a.trace.max_level, b.trace.max_level);
  EXPECT_EQ(a.trace.max_level_incr_per_iter, b.trace.max_level_incr_per_iter);
}

TEST(EngineParallel, MwhvcBitIdenticalAcrossThreadCounts) {
  const struct {
    const char* name;
    hg::Hypergraph graph;
  } families[] = {
      {"random_uniform",
       hg::random_uniform(150, 320, 3, hg::exponential_weights(10), 21)},
      {"bounded_degree",
       hg::random_bounded_degree(200, 340, 4, 8, hg::uniform_weights(99), 22)},
      {"hyper_star", hg::hyper_star(48, 3, hg::uniform_weights(17), 23)},
      {"set_cover",
       hg::random_set_cover(60, 140, 4, hg::exponential_weights(8), 24)},
      {"grid", hg::grid(9, 13, hg::bimodal_weights(64), 25)},
  };
  for (const auto& fam : families) {
    core::MwhvcOptions opts;
    opts.eps = 0.25;
    opts.collect_trace = true;
    const auto seq = core::solve_mwhvc(fam.graph, opts);
    ASSERT_TRUE(seq.net.completed) << fam.name;
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      core::MwhvcOptions par_opts = opts;
      par_opts.engine.threads = threads;
      const auto par = core::solve_mwhvc(fam.graph, par_opts);
      SCOPED_TRACE(std::string(fam.name) + " threads=" +
                   std::to_string(threads));
      expect_bit_identical(seq, par);
      EXPECT_EQ(par.trace.edge_raises, seq.trace.edge_raises);
      EXPECT_EQ(par.trace.edge_halvings, seq.trace.edge_halvings);
      EXPECT_EQ(par.trace.stuck_per_level, seq.trace.stuck_per_level);
    }
  }
}

TEST(EngineParallel, AppendixCVariantBitIdentical) {
  const auto g =
      hg::random_uniform(120, 260, 3, hg::exponential_weights(12), 31);
  core::MwhvcOptions opts;
  opts.eps = 0.5;
  opts.appendix_c = true;
  const auto seq = core::solve_mwhvc(g, opts);
  opts.engine.threads = 4;
  const auto par = core::solve_mwhvc(g, opts);
  expect_bit_identical(seq, par);
}

}  // namespace
}  // namespace hypercover
