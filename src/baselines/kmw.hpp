#pragma once
// Baseline: guarded multiplicative dual scaling, our rendering of the
// uniform-increase mechanism behind Kuhn–Moscibroda–Wattenhofer [17, 18]
// (and Hochbaum [13]): all uncovered edges grow their duals by a uniform
// (1 + beta) factor per iteration until incident vertices become
// beta-tight and join the cover.
//
// Duals start at the globally uniform value δ0 = w_min/(2 Delta) — the
// weight-oblivious start that makes the mechanism's round count
//   Theta(log_{1+beta}(Delta * W)) = Theta((f/eps) * (log Delta + log W)),
// exactly the log W and log Delta dependencies Tables 1 and 2 attribute
// to [13, 18], with the same (f + eps) approximation certificate as
// Algorithm MWHVC. (The real [18] pays eps^-4 f^4; our version is
// *stronger* than the published baseline, so any separation we measure
// against it is conservative. w_min and Delta are assumed globally known,
// standard for that era of algorithms; the paper's algorithm needs
// neither.)
//
// Guardedness: a vertex blocks scaling only if (1+beta)-scaled duals would
// exceed w(v); one shows such a vertex is already beta-tight, so blocking
// and joining the cover coincide and the protocol never stalls:
//   (1+b)·Σ_{E'}δ + Σ_cov δ > w  ⇒  b·Σ_{E'}δ > w − Σδ = slack;
//   if v were not beta-tight, slack > b·w ≥ b·Σδ ≥ b·Σ_{E'}δ — contradiction.
//
// Schedule: 2 rounds per iteration (1-bit messages, no init rounds)
//   V->E: Covered | Continue        E->V: Covered | Scaled

#include <memory>

#include "api/run.hpp"
#include "baselines/result.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hypercover::baselines {

struct KmwOptions {
  double eps = 0.5;  ///< approximation slack, in (0, 1]
  std::uint32_t f_override = 0;
  /// Engine knobs; `engine.pool` lends a shared ThreadPool to the run
  /// (external-pool mode, used by api::BatchScheduler's single-job path).
  congest::Options engine;
};

/// Steppable KMW run: the guarded multiplicative-scaling protocol on a
/// configured CONGEST engine, exposed round by round through
/// api::ProtocolRun. solve_kmw() is a thin api::drive() loop over this
/// class; a stepped run is bit-identical to the one-shot solve at every
/// thread count.
///
/// The graph must outlive the run. After finish() / finish_result() the
/// run is exhausted and must not be stepped again.
class KmwRun final : public api::ProtocolRun {
 public:
  /// Validates options (throws std::invalid_argument) and configures the
  /// engine. An edge-free instance is complete immediately.
  KmwRun(const hg::Hypergraph& g, const KmwOptions& opts = {});
  ~KmwRun() override;
  KmwRun(KmwRun&&) noexcept;
  KmwRun& operator=(KmwRun&&) noexcept;

  void step_round() override;
  [[nodiscard]] bool done() const override;
  [[nodiscard]] std::uint32_t rounds() const override;
  [[nodiscard]] std::size_t live_agents() const override;
  [[nodiscard]] const congest::RunStats& stats() const override;
  [[nodiscard]] std::uint32_t max_rounds() const override;
  [[nodiscard]] const KmwOptions& options() const;
  /// Result in the baseline vocabulary (solve_kmw's return type).
  [[nodiscard]] BaselineResult finish_result();
  /// api::ProtocolRun interface: finish_result() as a unified Solution.
  [[nodiscard]] api::Solution finish() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

[[nodiscard]] BaselineResult solve_kmw(const hg::Hypergraph& g,
                                       const KmwOptions& opts = {});

}  // namespace hypercover::baselines
