#pragma once
// Shared helpers for the experiment binaries (E1–E11, DESIGN.md §5).
//
// Every bench point runs an algorithm through the CONGEST simulator,
// re-verifies the result (cover validity + dual feasibility + certified
// ratio), and reports the paper's complexity measures. Wall-clock time is
// measured separately via google-benchmark on representative points; the
// reproduction metric is *rounds*, which is deterministic.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "api/registry.hpp"
#include "congest/stats.hpp"
#include "core/mwhvc.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"
#include "verify/verify.hpp"

namespace hypercover::bench {

struct Metrics {
  std::uint32_t rounds = 0;
  std::uint32_t iterations = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint32_t max_msg_bits = 0;
  std::uint32_t bandwidth_limit = 0;
  std::uint64_t bandwidth_violations = 0;
  hg::Weight cover_weight = 0;
  double dual_total = 0;
  double certified_ratio = 0;
  bool verified = false;
};

/// Fills the metric row from an already-verified result + certificate;
/// the single place a Metrics field is populated. Throws
/// std::runtime_error on an invalid certificate or incomplete run — a
/// bench must never report numbers for a wrong answer.
inline Metrics metrics_row(const api::SolutionCore& res,
                           std::uint32_t iterations,
                           const verify::Certificate& cert) {
  if (!cert.valid() || !res.net.completed) {
    throw std::runtime_error("bench point failed verification: " + cert.error);
  }
  Metrics m;
  m.rounds = res.net.rounds;
  m.iterations = iterations;
  m.messages = res.net.total_messages;
  m.total_bits = res.net.total_bits;
  m.max_msg_bits = res.net.max_message_bits;
  m.bandwidth_limit = res.net.bandwidth_limit_bits;
  m.bandwidth_violations = res.net.bandwidth_violations;
  m.cover_weight = res.cover_weight;
  m.dual_total = cert.dual_total;
  m.certified_ratio = cert.certified_ratio;
  m.verified = true;
  return m;
}

/// Independently re-verifies any solver result (certificate computed
/// here, never trusted) and fills the metric row.
inline Metrics metrics_from(const hg::Hypergraph& g,
                            const api::SolutionCore& res,
                            std::uint32_t iterations) {
  return metrics_row(res, iterations,
                     verify::certify(g, res.in_cover, res.duals));
}

/// Registry-dispatched bench point: solves with the named algorithm via
/// api::solve and fills the metric row from the auto-attached
/// certificate. `mwhvc_base` forwards the MWHVC-family knobs (alpha
/// rule, appendix_c, engine, f_override); the registry's common knobs
/// are lifted from it.
inline Metrics run_algo(std::string_view algo, const hg::Hypergraph& g,
                        double eps, const core::MwhvcOptions& mwhvc_base = {}) {
  const api::Solution sol =
      api::solve(algo, g, api::request_from(mwhvc_base, eps));
  return metrics_row(sol, sol.iterations, sol.certificate);
}

/// The comparative experiments' algorithm set (Tables 1–2: the paper's
/// algorithm vs both baselines), dispatched through the solver registry:
/// extending every comparison sweep is one name here.
constexpr const char* kComparedAlgos[] = {"mwhvc", "kvy", "kmw"};

/// One row's worth of comparison points, keyed by registry name.
inline std::map<std::string, Metrics> run_compared(const hg::Hypergraph& g,
                                                   double eps) {
  std::map<std::string, Metrics> res;
  for (const char* algo : kComparedAlgos) res[algo] = run_algo(algo, g, eps);
  return res;
}

inline Metrics run_mwhvc(const hg::Hypergraph& g, double eps,
                         const core::MwhvcOptions& base = {}) {
  return run_algo("mwhvc", g, eps, base);
}

inline Metrics run_kmw(const hg::Hypergraph& g, double eps) {
  return run_algo("kmw", g, eps);
}

inline Metrics run_kvy(const hg::Hypergraph& g, double eps) {
  return run_algo("kvy", g, eps);
}

/// Attaches the engine's activity counters to a benchmark point so the
/// JSON export (scripts/bench_json.py -> BENCH_engine.json) records the
/// scheduler's work — agent steps and presence slots wiped — alongside
/// the wall-clock numbers.
inline void set_activity_counters(benchmark::State& state,
                                  const congest::RunStats& net) {
  state.counters["agent_steps"] = static_cast<double>(net.agent_steps);
  state.counters["slots_processed"] = static_cast<double>(net.slots_processed);
  state.counters["step_cycles"] = static_cast<double>(net.step_cycles);
  state.counters["cycles_per_step"] =
      net.agent_steps > 0 ? static_cast<double>(net.step_cycles) /
                                static_cast<double>(net.agent_steps)
                          : 0.0;
}

/// Windows a process-global obs histogram so a bench point can report
/// quantiles over just its OWN observations: the registry outlives the
/// point (histograms accumulate across benchmark variants in the same
/// process), so we snapshot the cumulative bucket counts at construction
/// and answer quantiles from the delta. Same upper-bucket-bound
/// semantics as obs::Histogram::quantile — the reported value is the
/// log2 bucket bound holding the quantile, a deterministic
/// over-estimate, which is what scripts/bench_json.py cross-checks
/// against the wall-clock percentiles.
class HistWindow {
 public:
  explicit HistWindow(const obs::Histogram& h) : h_(h) { reset(); }

  void reset() {
    for (int b = 0; b <= obs::Histogram::kBuckets; ++b) {
      base_[b] = h_.cumulative(b);
    }
  }

  /// Observations recorded since the last reset().
  [[nodiscard]] std::uint64_t count() const {
    return h_.cumulative(obs::Histogram::kBuckets) -
           base_[obs::Histogram::kBuckets];
  }

  /// Upper log2 bucket bound (in the histogram's unit, ms for the
  /// hc_*_ms families) of the q-quantile of observations since the last
  /// reset(); 0 when none arrived.
  [[nodiscard]] double quantile(double q) const {
    std::uint64_t cum[obs::Histogram::kBuckets + 1];
    for (int b = 0; b <= obs::Histogram::kBuckets; ++b) {
      cum[b] = h_.cumulative(b) - base_[b];
    }
    const std::uint64_t n = cum[obs::Histogram::kBuckets];
    if (n == 0) return 0.0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      if (cum[b] >= rank) {
        return b == 0 ? 1.0 : static_cast<double>(std::uint64_t{1} << b);
      }
    }
    return static_cast<double>(std::uint64_t{1} << obs::Histogram::kBuckets);
  }

 private:
  const obs::Histogram& h_;
  std::uint64_t base_[obs::Histogram::kBuckets + 1] = {};
};

/// Prints the experiment banner + table and forwards to google-benchmark.
/// Call as the tail of each bench main().
inline int finish_main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

}  // namespace hypercover::bench
