// E7 — §5 / Claim 15 / Claim 18 / Theorem 19: covering ILPs solved through
// the reduction chain.
//
// For each ILP family: reduced sizes are checked against the analytic
// bounds (f' <= f(A) * B with B = bit_width(M); Delta' < 2^{f(ZO)} *
// Delta(ZO)), the assembled integral solution is verified feasible, its
// objective is compared against the dual certificate's (f' + eps) bound,
// and rounds are reported both raw and with the Claim 15 simulation
// factor O(1 + f(A)/log n). The inner solver is also swapped for the
// KVY baseline on the same reduced hypergraph as a comparison.

#include "api/batch.hpp"
#include "bench/common.hpp"
#include "ilp/generators.hpp"
#include "ilp/pipeline.hpp"
#include "ilp/simulation.hpp"

#include <cmath>

namespace {

using namespace hypercover;

struct Family {
  const char* name;
  ilp::IlpGenParams params;
  std::uint64_t seed;
};

std::vector<Family> families() {
  std::vector<Family> fams;
  {
    Family f{"small f=2, M small", {}, 41};
    f.params.num_vars = 40;
    f.params.num_constraints = 80;
    f.params.max_row_support = 2;
    f.params.max_coeff = 3;
    f.params.rhs_multiple = 2;
    fams.push_back(f);
  }
  {
    Family f{"f=3, M moderate", {}, 42};
    f.params.num_vars = 60;
    f.params.num_constraints = 120;
    f.params.max_row_support = 3;
    f.params.max_coeff = 4;
    f.params.rhs_multiple = 3;
    fams.push_back(f);
  }
  {
    Family f{"f=2, M large", {}, 43};
    f.params.num_vars = 50;
    f.params.num_constraints = 100;
    f.params.max_row_support = 2;
    f.params.max_coeff = 2;
    f.params.rhs_multiple = 15;
    fams.push_back(f);
  }
  {
    Family f{"zero-one f=4", {}, 44};
    f.params.num_vars = 80;
    f.params.num_constraints = 150;
    f.params.max_row_support = 4;
    f.params.max_coeff = 1;  // pure set-cover-like rows
    f.params.rhs_multiple = 1;
    fams.push_back(f);
  }
  return fams;
}

void print_reduction_table() {
  bench::banner("E7a: reduction bookkeeping vs analytic bounds",
                "Claim 18: f(ZO) <= f(A)*B, Delta(ZO) = Delta(A); "
                "Lemma 14: f' <= f(ZO), Delta' < 2^{f(ZO)} Delta(ZO).");
  util::Table t({"family", "f(A)", "M", "B", "f(ZO)", "f(ZO) bound", "f'",
                 "Delta'", "Delta' bound"});
  for (const auto& fam : families()) {
    const auto ilp = ilp::random_covering_ilp(fam.params, fam.seed);
    const auto zo = ilp::to_zero_one(ilp);
    const auto red = ilp::zero_one_to_hypergraph(zo.program);
    t.row()
        .add(fam.name)
        .add(std::uint64_t{ilp.row_support()})
        .add(ilp.box_bound())
        .add(std::uint64_t{zo.bits_per_var})
        .add(std::uint64_t{zo.program.row_support()})
        .add(std::uint64_t{ilp.row_support() * zo.bits_per_var})
        .add(std::uint64_t{red.graph.rank()})
        .add(std::uint64_t{red.graph.max_degree()})
        .add(std::pow(2.0, zo.program.row_support()) *
                 std::max(zo.program.col_support(), 1u),
             0);
  }
  t.print(std::cout);
}

void print_solve_table() {
  bench::banner("E7b: end-to-end distributed ILP solving (Theorem 19)",
                "objective vs the dual lower bound; rounds raw and with the "
                "Claim 15 simulation factor; inner mwhvc vs inner kvy.");
  util::Table t({"family", "objective", "dual LB", "ratio<=", "guarantee f'+e",
                 "rounds", "sim factor", "sim rounds", "kvy rounds"});
  for (const auto& fam : families()) {
    const auto ilp_prog = ilp::random_covering_ilp(fam.params, fam.seed);
    ilp::PipelineOptions opts;
    opts.eps = 0.5;
    const auto res = ilp::solve_covering_ilp(ilp_prog, opts);
    if (!res.feasible) throw std::runtime_error("E7: infeasible solution");
    // Inner-solver comparison: KVY on the same reduced hypergraph.
    const auto zo = ilp::to_zero_one(ilp_prog);
    const auto red = ilp::zero_one_to_hypergraph(zo.program);
    const auto kvy = bench::run_kvy(red.graph, 0.5);
    const double ratio =
        res.inner.dual_total > 0
            ? static_cast<double>(res.objective) / res.inner.dual_total
            : 1.0;
    t.row()
        .add(fam.name)
        .add(res.objective)
        .add(res.inner.dual_total, 1)
        .add(ratio, 3)
        .add(res.rank + 0.5, 1)
        .add(std::uint64_t{res.inner.net.rounds})
        .add(res.simulated_round_factor, 2)
        .add(res.simulated_rounds, 0)
        .add(std::uint64_t{kvy.rounds});
  }
  t.print(std::cout);
  std::cout << "\nevery objective is certified <= (f'+eps) x the LP lower "
               "bound; solutions verified feasible for the original ILP.\n";
}

void print_simulation_table() {
  bench::banner(
      "E7c: Claim 15 executed - MWHVC simulated on N(ILP) itself",
      "zero-one programs; variable nodes simulate their clause edges from "
      "f(A)-bit masks. Same covers and iteration counts as the direct run "
      "on H, with the network being |X|+|C| nodes instead of |V|+|E|.");
  util::Table t({"f(A)", "vars+cons", "H nodes", "sim rounds",
                 "direct rounds", "max msg bits", "objective", "ratio<="});
  for (const std::uint32_t support : {2u, 3u, 4u}) {
    ilp::IlpGenParams params;
    params.num_vars = 60;
    params.num_constraints = 120;
    params.max_row_support = support;
    params.max_coeff = 3;
    const auto zo = ilp::random_zero_one_ilp(params, 99);
    ilp::SimulationOptions sopts;
    sopts.eps = 0.5;
    const auto sim = ilp::simulate_zero_one(zo, sopts);
    const auto red = ilp::zero_one_to_hypergraph(zo, 22, false);
    core::MwhvcOptions dopts;
    dopts.eps = 0.5;
    dopts.appendix_c = true;
    const auto direct = core::solve_mwhvc(red.graph, dopts);
    if (!sim.feasible) throw std::runtime_error("E7c: infeasible");
    t.row()
        .add(std::uint64_t{zo.row_support()})
        .add(std::uint64_t{zo.num_vars() + zo.num_constraints()})
        .add(std::uint64_t{red.graph.num_vertices() + red.graph.num_edges()})
        .add(std::uint64_t{sim.net.rounds})
        .add(std::uint64_t{direct.net.rounds})
        .add(std::uint64_t{sim.net.max_message_bits})
        .add(sim.objective)
        .add(sim.dual_total > 0
                 ? static_cast<double>(sim.objective) / sim.dual_total
                 : 1.0,
             3);
  }
  t.print(std::cout);
  std::cout << "\nsim rounds == direct rounds: the simulation costs no extra "
               "iterations, only wider (<= 2 f(A)-bit) messages.\n";
}

void BM_Pipeline(benchmark::State& state) {
  const auto fam = families()[static_cast<std::size_t>(state.range(0))];
  const auto ilp_prog = ilp::random_covering_ilp(fam.params, fam.seed);
  ilp::PipelineOptions opts;
  opts.eps = 0.5;
  double rounds = 0;
  for (auto _ : state) {
    const auto res = ilp::solve_covering_ilp(ilp_prog, opts);
    benchmark::DoNotOptimize(res.objective);
    rounds = res.inner.net.rounds;
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_Pipeline)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

// The inner solves of all ILP families are independent MWHVC instances on
// their reduced hypergraphs — the batch-solver shape. Measures draining
// them through api::BatchScheduler on a 1- vs 4-worker pool.
void BM_PipelineInnerBatch(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  std::vector<hg::Hypergraph> reduced;
  for (const auto& fam : families()) {
    const auto zo = ilp::to_zero_one(ilp::random_covering_ilp(fam.params, fam.seed));
    reduced.push_back(ilp::zero_one_to_hypergraph(zo.program).graph);
  }
  std::vector<api::BatchJob> jobs(reduced.size());
  for (std::size_t i = 0; i < reduced.size(); ++i) {
    jobs[i].graph = &reduced[i];
    jobs[i].request.eps = 0.5;
    jobs[i].request.mwhvc.appendix_c = true;  // footnote 6, as in the pipeline
    jobs[i].request.certify = false;          // time the solves only
  }
  api::BatchOptions opts;
  opts.threads = threads;
  api::BatchScheduler scheduler(opts);
  for (auto _ : state) {
    const auto results = scheduler.solve_all(jobs);
    benchmark::DoNotOptimize(results.back().cover_weight);
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_PipelineInnerBatch)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  print_reduction_table();
  print_solve_table();
  print_simulation_table();
  return hypercover::bench::finish_main(argc, argv);
}
