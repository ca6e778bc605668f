#pragma once
// The solver registry: every algorithm in the codebase behind one
// name-keyed interface.
//
//   api::solve("kmw", g, req)   — one-shot solve, certificate attached
//   api::make_run("mwhvc", ...) — steppable ProtocolRun for lock-step use
//   api::solvers()              — enumeration (CLI --list-algos, tests)
//
// Adding an algorithm is one registration in registry.cpp; the CLI, the
// set-cover and covering-ILP pipelines, and the comparative benches all
// dispatch through here, so a new entry is immediately available
// everywhere.

#include <memory>
#include <span>
#include <string_view>

#include "api/run.hpp"
#include "api/solution.hpp"
#include "congest/stats.hpp"
#include "core/mwhvc.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hypercover::api {

/// Uniform solve request. The common knobs (`eps` / `f_approx` /
/// `f_override` / `engine`) apply to every algorithm and OVERRIDE the
/// same-named fields inside the per-algorithm parameter block, so a
/// caller never has to know which block an algorithm reads.
struct SolveRequest {
  /// Approximation slack, in (0, 1]: the returned cover weighs at most
  /// (f + eps) * OPT for the certificate-producing algorithms.
  double eps = 0.5;
  /// Use Corollary 10's eps = 1/(nW) instead of `eps` (clean
  /// f-approximation for integral weights).
  bool f_approx = false;
  /// Rank bound override; 0 means "use the instance rank".
  std::uint32_t f_override = 0;
  /// Engine configuration (threads, max_rounds, ...). Setting
  /// `engine.pool` lends a caller-owned congest::ThreadPool to the run's
  /// engine (external-pool mode): successive solves reuse one warm pool
  /// instead of spawning threads per call. api::BatchScheduler manages
  /// this pointer itself — jobs inside a batch must leave it null.
  congest::Options engine;
  /// Per-algorithm parameters for the MWHVC family (alpha rule, gamma,
  /// appendix_c, trace/invariant collection). Its eps / f_override /
  /// engine fields are ignored in favour of the common knobs above.
  core::MwhvcOptions mwhvc;
  /// Observer, round budget, and cancellation for the driven run.
  RunControl control;
  /// Attach a verify::Certificate to the returned Solution (O(links)).
  bool certify = true;
};

/// Registry metadata for one algorithm.
struct Solver {
  std::string_view name;
  std::string_view description;
  /// True if the algorithm runs on the CONGEST engine and supports
  /// make_run(); false for the sequential references.
  bool steppable = false;
};

/// All registered algorithms, in registration order (each entry carries
/// its name — this is the one enumeration entry point).
[[nodiscard]] std::span<const Solver> solvers();

/// Looks a solver up by name; nullptr if unknown.
[[nodiscard]] const Solver* find_solver(std::string_view name);

/// Builds a request from an MWHVC-family options block plus eps: the
/// common knobs are lifted out of the block (f_override, engine) and the
/// block itself becomes the per-algorithm parameters. The one conversion
/// the pipelines and benches share.
[[nodiscard]] SolveRequest request_from(const core::MwhvcOptions& mwhvc,
                                        double eps);

/// Creates a steppable run for a distributed algorithm. Throws
/// std::invalid_argument for an unknown name or a non-steppable solver
/// (check Solver::steppable first), and propagates the algorithm's own
/// option validation.
[[nodiscard]] std::unique_ptr<ProtocolRun> make_run(std::string_view name,
                                                    const hg::Hypergraph& g,
                                                    const SolveRequest& req = {});

/// Solves `g` with the named algorithm: drives a fresh run under
/// `req.control` (or calls the sequential solver), stamps the algorithm
/// name, outcome, and wall time, and attaches the certificate. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Solution solve(std::string_view name, const hg::Hypergraph& g,
                             const SolveRequest& req = {});

}  // namespace hypercover::api
