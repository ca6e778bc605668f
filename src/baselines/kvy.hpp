#pragma once
// Baseline: synchronized proportional dual raising, our rendering of the
// Khuller–Vishkin–Young primal-dual mechanism [15].
//
// Mechanism: in every iteration each uncovered edge e raises its dual by
//   b(e) = min_{v in e} resid(v) / |E'(v)|,
// where resid(v) = w(v) - Σ_{e ∋ v} δ(e). For every vertex the received
// raises total at most resid(v), so the packing stays feasible; vertices
// join the cover at beta-tightness (beta = eps/(f+eps)), giving the same
// (f + eps) certificate as Algorithm MWHVC (Claim 20).
//
// Progress: every uncovered edge raises at least the *global* minimum
// normalized residual, so the argmin vertex saturates each iteration and
// every vertex within a factor 2 of the minimum at least halves its
// residual — the multiplicative-drop behaviour behind [15]'s
// O(f log(f/eps) log n) bound. Unlike Algorithm MWHVC, per-iteration
// messages carry residual values (O(log n + precision) bits), the cost
// the paper's bid/level machinery avoids.
//
// Schedule: 1 init round, then 2 rounds per iteration
//   E->V: Covered | Bid{resid*, deg*}      V->E: Covered | Resid{resid, deg'}

#include <memory>

#include "api/run.hpp"
#include "baselines/result.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hypercover::baselines {

struct KvyOptions {
  double eps = 0.5;  ///< approximation slack, in (0, 1]
  std::uint32_t f_override = 0;
  /// Engine knobs; `engine.pool` lends a shared ThreadPool to the run
  /// (external-pool mode, used by api::BatchScheduler's single-job path).
  congest::Options engine;
};

/// Steppable KVY run: the proportional dual-raising protocol on a
/// configured CONGEST engine, exposed round by round through
/// api::ProtocolRun. solve_kvy() is a thin api::drive() loop over this
/// class; a stepped run is bit-identical to the one-shot solve at every
/// thread count.
///
/// The graph must outlive the run. After finish() / finish_result() the
/// run is exhausted and must not be stepped again.
class KvyRun final : public api::ProtocolRun {
 public:
  /// Validates options (throws std::invalid_argument) and configures the
  /// engine. An edge-free instance is complete immediately.
  KvyRun(const hg::Hypergraph& g, const KvyOptions& opts = {});
  ~KvyRun() override;
  KvyRun(KvyRun&&) noexcept;
  KvyRun& operator=(KvyRun&&) noexcept;

  void step_round() override;
  [[nodiscard]] bool done() const override;
  [[nodiscard]] std::uint32_t rounds() const override;
  [[nodiscard]] std::size_t live_agents() const override;
  [[nodiscard]] const congest::RunStats& stats() const override;
  [[nodiscard]] std::uint32_t max_rounds() const override;
  [[nodiscard]] const KvyOptions& options() const;
  /// Result in the baseline vocabulary (solve_kvy's return type).
  [[nodiscard]] BaselineResult finish_result();
  /// api::ProtocolRun interface: finish_result() as a unified Solution.
  [[nodiscard]] api::Solution finish() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

[[nodiscard]] BaselineResult solve_kvy(const hg::Hypergraph& g,
                                       const KvyOptions& opts = {});

}  // namespace hypercover::baselines
