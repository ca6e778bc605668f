// E4 — dependence on the approximation slack eps (Table 1 "2+eps" rows;
// Corollaries 11 and 12).
//
// Paper claims: our eps enters only additively through z = O(log(f/eps))
// (times the (log Delta)^0.001 factor), so shrinking eps by orders of
// magnitude adds a handful of iterations; the uniform-increase mechanism
// pays Theta(1/eps) multiplicatively. Corollary 12: even
// eps = 2^{-c (log D)^{0.99}} keeps our round count O(logD/loglogD).

#include "bench/common.hpp"
#include "core/params.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/weights.hpp"

#include <cmath>

namespace {

using namespace hypercover;

hg::Hypergraph instance(std::uint32_t f) {
  // Random 3-uniform hypergraph with cascading weights; stars and other
  // regular topologies saturate in O(1) iterations at any eps and would
  // hide the z = O(log(f/eps)) term this experiment isolates.
  return hg::random_uniform(2000, 8000, f, hg::exponential_weights(10),
                            /*seed=*/9);
}

void print_table() {
  bench::banner(
      "E4: rounds vs eps (random 3-uniform hypergraph, n=2000)",
      "paper: ours additive O(f log(f/eps)); KMW multiplicative Theta(1/eps) "
      "(skipped below 2^-10: round count explodes as predicted).");
  util::Table t({"eps", "z", "mwhvc rounds", "kvy rounds", "kmw rounds",
                 "mwhvc ratio<="});
  const auto g = instance(3);
  const std::vector<int> ks = {0, 1, 2, 4, 6, 8, 10, 14, 17};
  for (const int k : ks) {
    const double eps = std::ldexp(1.0, -k);
    core::MwhvcOptions opts;
    opts.eps = eps;
    const auto res = core::solve_mwhvc(g, opts);
    const auto ours = bench::metrics_from(g, res, res.iterations);
    const auto kvy = bench::run_kvy(g, eps);
    const bool kmw_feasible = k <= 10;
    bench::Metrics kmw;
    if (kmw_feasible) kmw = bench::run_kmw(g, eps);
    t.row()
        .add("2^-" + std::to_string(k))
        .add(std::uint64_t{core::level_cap(3, eps)})
        .add(std::uint64_t{ours.rounds})
        .add(std::uint64_t{kvy.rounds})
        .add(kmw_feasible ? std::to_string(kmw.rounds) : std::string("-"))
        .add(ours.certified_ratio, 4);
  }
  t.print(std::cout);
}

void print_corollary12() {
  bench::banner(
      "E4b: Corollary 12 - eps = 2^{-(log D)^{0.99}}, f = 2",
      "the almost-exponentially-small eps for which rounds remain "
      "O(logD/loglogD).");
  util::Table t({"Delta", "eps exponent", "mwhvc rounds", "logD/loglogD"});
  for (const std::uint32_t d : {64u, 128u, 256u, 512u, 1024u}) {
    const double exp99 = std::pow(std::log2(static_cast<double>(d)), 0.99);
    const double eps = std::max(std::ldexp(1.0, -static_cast<int>(exp99)),
                                1e-12);
    const auto g = hg::random_uniform(3000, 3000 * d / 64, 2,
                                      hg::exponential_weights(10), 9);
    const auto ours = bench::run_mwhvc(g, eps);
    const double ld = std::log2(static_cast<double>(d));
    t.row()
        .add(std::uint64_t{d})
        .add("-" + std::to_string(static_cast<int>(exp99)))
        .add(std::uint64_t{ours.rounds})
        .add(ld / std::max(std::log2(ld), 1.0), 2);
  }
  t.print(std::cout);
}

void BM_MwhvcEps(benchmark::State& state) {
  const auto g = instance(3);
  const double eps = std::ldexp(1.0, -static_cast<int>(state.range(0)));
  bench::Metrics last;
  for (auto _ : state) last = bench::run_mwhvc(g, eps);
  state.counters["rounds"] = last.rounds;
}
BENCHMARK(BM_MwhvcEps)->Arg(1)->Arg(8)->Arg(17)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  print_corollary12();
  return hypercover::bench::finish_main(argc, argv);
}
