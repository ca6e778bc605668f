#pragma once
// Public entry point for Algorithm MWHVC (the paper's §3 contribution).
//
// Computes an (f + eps)-approximate minimum-weight hypergraph vertex cover
// by executing the distributed protocol of core/protocol.hpp on the CONGEST
// simulator, and returns the cover together with the dual certificate and
// the full execution statistics (rounds, messages, bits, raise/stuck
// counters) that the benches report.

#include <memory>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "api/solution.hpp"
#include "congest/stats.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hypercover::core {

struct MwhvcOptions {
  /// Approximation slack: the returned cover weighs at most (f + eps) * OPT.
  /// Must lie in (0, 1]. Use eps = 1/(nW) for an f-approximation
  /// (Corollary 10); see f_approx_epsilon().
  double eps = 0.5;
  /// Rank bound used for beta; 0 means "use the instance rank". Values
  /// larger than the true rank are allowed (looser guarantee).
  std::uint32_t f_override = 0;
  AlphaMode alpha_mode = AlphaMode::kLocalPerEdge;
  /// Multiplier used when alpha_mode == kFixed; must be >= 2 (Theorem 8).
  double alpha_fixed = 2.0;
  /// Theorem 9's gamma constant.
  double gamma = 0.001;
  /// Appendix C variant: duals grow by bid/2, guaranteeing at most one
  /// level increment per vertex per iteration (Corollary 21).
  bool appendix_c = false;
  /// Populate per-edge / per-vertex trace vectors (costs O(n z + m)).
  bool collect_trace = false;
  /// Re-verify Claims 1 and 2 (Eq. 1) and dual feasibility after every
  /// iteration; failures are reported in MwhvcResult. O(links) per
  /// iteration — intended for tests.
  bool check_invariants = false;
  /// Engine configuration, including `engine.threads`: worker threads used
  /// to step agents inside a round (1 = sequential, 0 = hardware). Every
  /// thread count produces a bit-identical MwhvcResult and transcript hash.
  /// `engine.pool` lends a caller-owned shared ThreadPool to the run
  /// instead (external-pool mode; see congest::Options::pool).
  congest::Options engine;
};

/// MWHVC result: the unified api::Solution (cover, duals δ(e) whose sum
/// certifies w(C) <= (f + eps) * Σδ <= (f + eps) * OPT by Claim 20,
/// per-vertex levels — always < z by Claim 4 —, iterations at 4 network
/// rounds each + 2 init rounds, trace, net stats) extended with the
/// derived protocol parameters. `algorithm`, `wall_ms`, and `certificate`
/// are stamped by the api::solve() registry path; the raw solve_mwhvc()
/// entry point leaves them default.
struct MwhvcResult : api::Solution {
  // Derived parameters of the run.
  double beta = 0;
  std::uint32_t z = 0;
  std::uint32_t f = 0;
  double alpha_global = 0;
  // Invariant checking (only meaningful when check_invariants was set).
  bool invariants_ok = true;
  std::string invariant_violation;
};

/// Runs Algorithm MWHVC on g. Throws std::invalid_argument on bad options.
[[nodiscard]] MwhvcResult solve_mwhvc(const hg::Hypergraph& g,
                                      const MwhvcOptions& opts = {});

/// Steppable MWHVC run: a configured CONGEST engine plus the derived
/// protocol parameters, exposed round by round through the
/// api::ProtocolRun interface. solve_mwhvc() is a thin api::drive() loop
/// over this class; lock-step tests and the sparse-regime benchmarks use
/// it directly to observe the engine between rounds (transcript hash,
/// live-agent counts, work counters) without re-deriving the parameter
/// rules. Invariant checking (MwhvcOptions::check_invariants) runs inside
/// step_round() at the paper's iteration boundaries.
///
/// The graph must outlive the run. After finish() / finish_result() the
/// run is exhausted and must not be stepped again.
class MwhvcRun final : public api::ProtocolRun {
 public:
  /// Validates options (throws std::invalid_argument) and configures the
  /// engine. An edge-free instance is complete immediately.
  MwhvcRun(const hg::Hypergraph& g, const MwhvcOptions& opts);
  ~MwhvcRun() override;
  MwhvcRun(MwhvcRun&&) noexcept;
  MwhvcRun& operator=(MwhvcRun&&) noexcept;

  /// Executes one synchronous round (no-op on an edge-free instance).
  void step_round() override;
  /// True once every agent halted — the protocol is complete.
  [[nodiscard]] bool done() const override;
  /// Rounds executed so far.
  [[nodiscard]] std::uint32_t rounds() const override;
  /// Non-halted agents (vertices + edges); 0 once done.
  [[nodiscard]] std::size_t live_agents() const override;
  /// Engine statistics accumulated so far.
  [[nodiscard]] const congest::RunStats& stats() const override;
  /// The engine's hard round stop.
  [[nodiscard]] std::uint32_t max_rounds() const override;
  /// The options the run was started with.
  [[nodiscard]] const MwhvcOptions& options() const;
  /// Extracts the full MWHVC result (cover, duals, levels, trace, net
  /// stats, derived parameters, invariant verdict).
  [[nodiscard]] MwhvcResult finish_result();
  /// api::ProtocolRun interface: finish_result() narrowed to the unified
  /// Solution (drops the derived parameters and invariant verdict).
  [[nodiscard]] api::Solution finish() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The eps of Corollary 10: eps = 1/(nW) turns the (f+eps) guarantee into
/// a clean f-approximation for integral weights. Clamped to (0, 1].
[[nodiscard]] double f_approx_epsilon(const hg::Hypergraph& g);

}  // namespace hypercover::core
