#pragma once
// The steppable protocol-run interface of the solver API.
//
// Every distributed algorithm in the registry exposes its execution as a
// `ProtocolRun`: a configured CONGEST engine advanced one synchronous
// round at a time. `core::MwhvcRun`, `baselines::KmwRun`, and
// `baselines::KvyRun` implement it; the one-shot `solve_*` entry points
// are thin `drive()` loops over the corresponding run, so a stepped run
// is bit-identical to a one-shot solve (same transcript hash, duals,
// cover) at every thread count.
//
// `drive()` adds the run-level conveniences the lock-step tests, the
// registry, and long-running callers share: a per-round observer,
// a round budget, and cooperative cancellation.

#include <atomic>
#include <cstdint>
#include <functional>

#include "api/solution.hpp"
#include "congest/stats.hpp"

namespace hypercover::api {

struct RunControl;

/// One distributed solver execution, stepped round by round. The
/// hypergraph passed at construction must outlive the run; after
/// finish() the run is exhausted and must not be stepped again.
class ProtocolRun {
 public:
  virtual ~ProtocolRun() = default;

  /// Executes one synchronous round (no-op once done()).
  virtual void step_round() = 0;
  /// True once every agent halted — the protocol is complete.
  [[nodiscard]] virtual bool done() const = 0;
  /// Rounds executed so far.
  [[nodiscard]] virtual std::uint32_t rounds() const = 0;
  /// Non-halted agents (vertices + edges); 0 once done.
  [[nodiscard]] virtual std::size_t live_agents() const = 0;
  /// Engine statistics accumulated so far.
  [[nodiscard]] virtual const congest::RunStats& stats() const = 0;
  /// The engine's hard round stop (Options::max_rounds).
  [[nodiscard]] virtual std::uint32_t max_rounds() const = 0;
  /// Extracts the result. A run stopped early (budget, cancel, round
  /// limit) yields a well-formed partial Solution with
  /// `net.completed == false` and the stop reason in Solution::outcome.
  [[nodiscard]] virtual Solution finish() = 0;

  /// The stop reason recorded by the most recent drive() over this run
  /// (kCompleted before any drive).
  [[nodiscard]] RunOutcome last_outcome() const noexcept { return outcome_; }

 protected:
  /// Outcome to stamp on a Solution extracted now: kCompleted for a
  /// finished protocol, otherwise the recorded drive() stop reason — or,
  /// for a manually-stepped partial run, a reason derived from the round
  /// state (the caller stepping by hand exhausted its own budget).
  [[nodiscard]] RunOutcome finish_outcome(bool completed) const {
    if (completed) return RunOutcome::kCompleted;
    if (outcome_ != RunOutcome::kCompleted) return outcome_;
    return rounds() >= max_rounds() ? RunOutcome::kRoundLimit
                                    : RunOutcome::kBudgetExhausted;
  }

 private:
  friend RunOutcome drive(ProtocolRun& run, const RunControl& control);
  RunOutcome outcome_ = RunOutcome::kCompleted;
};

/// Per-round callback: invoked after every executed round with the run
/// itself, so observers can read rounds(), live_agents(), and stats().
using RoundObserver = std::function<void(const ProtocolRun&)>;

/// Run-level execution controls shared by drive() and the registry.
struct RunControl {
  /// Called once per executed round (exactly rounds() times in total).
  RoundObserver on_round;
  /// Stop after this many rounds from where the run currently is
  /// (0 = no budget; the engine's max_rounds still applies).
  std::uint32_t round_budget = 0;
  /// Checked before every round; a set flag stops the run cooperatively.
  /// The pointee must outlive the drive() call.
  const std::atomic<bool>* cancel = nullptr;
};

/// Steps `run` until completion, its engine round limit, the control's
/// round budget, or cancellation — whichever comes first.
RunOutcome drive(ProtocolRun& run, const RunControl& control = {});

}  // namespace hypercover::api
