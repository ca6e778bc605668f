// E11 — engineering micro-benchmarks (not a paper experiment): simulator
// throughput per round and per link, generator cost, end-to-end solve wall
// time, and the sparse-regime activity benchmarks that gate the frontier
// scheduler. These size the substrate, so regressions in the engine are
// visible independently of the algorithmic experiments.
//
// The *DigestGuard* benches double as correctness checks: every timed run
// is compared against a reference transcript hash (pinned, or the
// sequential solve's) and aborts on drift, so the engine can never
// silently change protocol semantics while looking fast.

#include "bench/common.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/weights.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

namespace {

using namespace hypercover;

void BM_GeneratorRandomUniform(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto g =
        hg::random_uniform(n, 3 * n, 3, hg::uniform_weights(100), seed++);
    benchmark::DoNotOptimize(g.num_incidences());
  }
  state.SetItemsProcessed(state.iterations() * n * 3);
}
BENCHMARK(BM_GeneratorRandomUniform)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GeneratorBoundedDegree(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto g = hg::random_bounded_degree(n, 2 * n, 3, 16,
                                             hg::uniform_weights(100), seed++);
    benchmark::DoNotOptimize(g.num_incidences());
  }
}
BENCHMARK(BM_GeneratorBoundedDegree)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SolveMwhvcEndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto g =
      hg::random_uniform(n, 3 * n, 3, hg::exponential_weights(16), 7);
  bench::Metrics last;
  for (auto _ : state) last = bench::run_mwhvc(g, 0.5);
  state.counters["rounds"] = last.rounds;
  state.counters["links"] = static_cast<double>(g.num_incidences());
  // Normalized engine cost: messages processed per second.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(last.messages));
}
BENCHMARK(BM_SolveMwhvcEndToEnd)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SolveKmwEndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto g =
      hg::random_uniform(n, 3 * n, 3, hg::exponential_weights(16), 7);
  bench::Metrics last;
  for (auto _ : state) last = bench::run_kmw(g, 0.5);
  state.counters["rounds"] = last.rounds;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(last.messages));
}
BENCHMARK(BM_SolveKmwEndToEnd)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Minor page faults of the whole process so far (every thread).
double minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_minflt);
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Sharded engine scaling: the same MWHVC solve at 1/2/4/8 worker threads,
// on the engine_solve perfbench instance size (n = 10k) and at n = 100k.
// The digest guard makes this double as a correctness check — a parallel
// run that drifted from the sequential transcript aborts the bench. The
// solve drives an MwhvcRun by hand (what solve_mwhvc does) so it can also
// report, per solve, the construction time (make_run_ms: engine, agents,
// mailboxes, and the pool when threads > 1), the destruction time
// (teardown_ms) and the process's minor page faults (minflt_per_solve).
// These are report-only counters.
void BM_EngineParallelSolve(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  const auto g =
      hg::random_uniform(n, 3 * n, 3, hg::exponential_weights(16), 7);
  core::MwhvcOptions opts;
  opts.eps = 0.5;
  const std::uint64_t want_digest =
      core::solve_mwhvc(g, opts).net.transcript_hash;
  opts.engine.threads = threads;
  bench::Metrics last;
  double make_ms = 0, teardown_ms = 0, faults = 0;
  for (auto _ : state) {
    const double faults0 = minor_faults();
    const auto t0 = std::chrono::steady_clock::now();
    auto run = std::make_unique<core::MwhvcRun>(g, opts);
    const auto t1 = std::chrono::steady_clock::now();
    api::drive(*run);
    const core::MwhvcResult res = run->finish_result();
    const auto t2 = std::chrono::steady_clock::now();
    run.reset();
    const auto t3 = std::chrono::steady_clock::now();
    faults += minor_faults() - faults0;
    make_ms += ms_between(t0, t1);
    teardown_ms += ms_between(t2, t3);
    if (res.net.transcript_hash != want_digest) {
      throw std::runtime_error("parallel run diverged from sequential digest");
    }
    last = bench::metrics_from(g, res, res.iterations);
    bench::set_activity_counters(state, res.net);
  }
  state.counters["threads"] = threads;
  state.counters["rounds"] = last.rounds;
  state.counters["make_run_ms"] =
      benchmark::Counter(make_ms, benchmark::Counter::kAvgIterations);
  state.counters["teardown_ms"] =
      benchmark::Counter(teardown_ms, benchmark::Counter::kAvgIterations);
  state.counters["minflt_per_solve"] =
      benchmark::Counter(faults, benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(last.messages));
}
BENCHMARK(BM_EngineParallelSolve)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Transcript hash of the e11 instance random_uniform(n, 3n, 3, 2^16, 7)
/// under MWHVC at eps = 0.5, as pinned when each size was added (the
/// same hashes the retired dense reference sweep produced).
std::uint64_t reference_digest(std::uint32_t n) {
  switch (n) {
    case 10000:
      return 0xd2937577f2094278ull;
    case 100000:
      return 0xad33ba4bde5c0daaull;
  }
  throw std::invalid_argument("no pinned e11 digest for this n");
}

// Full MWHVC solve, guarded by the pinned transcript hash. The trailing
// /1 in the point names is the frontier engine's index from when a dense
// reference path (/0) ran beside it; it stays so the points keep
// matching earlier records, whose step_cycles bench_json.py gates on.
void BM_SchedulingDigestGuard(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto g =
      hg::random_uniform(n, 3 * n, 3, hg::exponential_weights(16), 7);
  core::MwhvcOptions opts;
  opts.eps = 0.5;
  const std::uint64_t want_digest = reference_digest(n);
  core::MwhvcResult last;
  for (auto _ : state) {
    last = core::solve_mwhvc(g, opts);
    if (last.net.transcript_hash != want_digest) {
      throw std::runtime_error("solve diverged from the reference digest");
    }
  }
  state.counters["rounds"] = last.net.rounds;
  bench::set_activity_counters(state, last.net);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(last.net.total_messages));
}
BENCHMARK(BM_SchedulingDigestGuard)
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Sparse-regime tail: advance a solve (untimed) until >90% of the agents
// have halted, then time only the remaining rounds. A tail round steps
// only the acting side's live agents and touches only the presence lines
// its sends marked (64 slots each); items_per_round counts those agent
// steps plus the presence slots accounted and wiped. bench_json.py gates
// it at >= 5x below a full sweep, agents + 4 * links items per round:
// every agent stepped, and every presence slot of both directions
// accounted and wiped, as the retired dense reference path measured it
// (400k at n = 10k, 4.0M at n = 100k). The trailing /1 in the point
// names stays for the same reason as above. Manual timing;
// digest-guarded end to end.
void BM_SparseTailRoundsDigestGuard(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto g =
      hg::random_uniform(n, 3 * n, 3, hg::exponential_weights(16), 7);
  const std::size_t agents = std::size_t{g.num_vertices()} + g.num_edges();
  core::MwhvcOptions opts;
  opts.eps = 0.5;

  // Find the tail via a dry run: the round where live agents first drop
  // below 10%.
  std::uint32_t tail_start = 0, total_rounds = 0;
  {
    core::MwhvcRun probe(g, opts);
    while (!probe.done() && probe.rounds() < opts.engine.max_rounds) {
      probe.step_round();
      if (tail_start == 0 && probe.live_agents() * 10 < agents) {
        tail_start = probe.rounds();
      }
    }
    total_rounds = probe.rounds();
    if (tail_start == 0 || tail_start + 2 > total_rounds) {
      tail_start = total_rounds > 4 ? total_rounds - 4 : 0;
    }
  }

  const std::uint64_t want_digest = reference_digest(n);
  double tail_rounds = 0, tail_items = 0, tail_steps = 0;
  for (auto _ : state) {
    core::MwhvcRun run(g, opts);
    for (std::uint32_t r = 0; r < tail_start; ++r) run.step_round();
    const auto& pre = run.stats();
    const double items_before =
        static_cast<double>(pre.agent_steps + pre.slots_processed);
    const double steps_before = static_cast<double>(pre.agent_steps);
    const auto t0 = std::chrono::steady_clock::now();
    while (!run.done() && run.rounds() < opts.engine.max_rounds) {
      run.step_round();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const auto& post = run.stats();
    if (post.transcript_hash != want_digest) {
      throw std::runtime_error("tail run diverged from the reference digest");
    }
    tail_rounds = run.rounds() - tail_start;
    tail_items =
        static_cast<double>(post.agent_steps + post.slots_processed) -
        items_before;
    tail_steps = static_cast<double>(post.agent_steps) - steps_before;
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.counters["tail_rounds"] = tail_rounds;
  state.counters["items_per_round"] =
      tail_rounds > 0 ? tail_items / tail_rounds : 0;
  state.counters["steps_per_round"] =
      tail_rounds > 0 ? tail_steps / tail_rounds : 0;
  state.counters["agents"] = static_cast<double>(agents);
  state.counters["links"] = static_cast<double>(g.num_incidences());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tail_items));
}
BENCHMARK(BM_SparseTailRoundsDigestGuard)
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

void BM_BruteForceOpt(benchmark::State& state) {
  const auto g = hg::random_uniform(static_cast<std::uint32_t>(state.range(0)),
                                    2 * state.range(0), 3,
                                    hg::uniform_weights(9), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::brute_force_opt(g));
  }
}
BENCHMARK(BM_BruteForceOpt)->Arg(12)->Arg(16)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
