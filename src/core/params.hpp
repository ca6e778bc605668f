#pragma once
// Parameter selection for Algorithm MWHVC (§3.1 and Theorem 9).
//
//   beta = eps / (f + eps)            — tightness threshold (§3.1)
//   z    = ceil(log2(1/beta))         — level cap (§4.2, Claim 4)
//   alpha — the bid multiplier (Theorem 9): for a constant gamma > 0,
//
//       alpha = max(2, log D / (f log(f/eps) loglog D))
//                   if log D / (f log(f/eps) loglog D) >= (log D)^(gamma/2)
//       alpha = 2   otherwise
//
// Alpha may be derived from the global maximum degree Delta or, per the
// remark before Theorem 9, from the local degree Delta(e) = max_{v in e}
// |E(v)| of each hyperedge independently.

#include <cstdint>

namespace hypercover::core {

/// How the bid multiplier alpha is chosen.
enum class AlphaMode {
  kGlobalDelta,   ///< Theorem 9 formula on the global max degree Delta.
  kLocalPerEdge,  ///< Theorem 9 formula on Delta(e) per edge (default).
  kFixed,         ///< A caller-supplied constant (ablation studies).
};

/// beta = eps/(f + eps). Requires f >= 1 and 0 < eps <= 1.
[[nodiscard]] double beta_for(std::uint32_t f, double eps);

/// z = ceil(log2(1/beta)): the number of levels; every level stays < z
/// (Claim 4). z = O(log(f/eps)).
[[nodiscard]] std::uint32_t level_cap(std::uint32_t f, double eps);

/// The Theorem 9 alpha rule evaluated on degree bound `delta`.
/// Always returns a value >= 2. `gamma` is the paper's constant (0.001 in
/// the stated bound); smaller gamma widens the range where the optimal
/// log D / loglog D term dominates.
[[nodiscard]] double theorem9_alpha(std::uint32_t f, double eps,
                                    std::uint32_t delta, double gamma);

/// Analytic iteration bound of Theorem 8 for the given parameters:
///   #iterations <= C * (log_alpha(Delta * 2^(f z)) + f * z * alpha)
/// evaluated with C = 1 for the e-raise term (Lemma 6 is exact, not
/// asymptotic) and per-level stuck budget alpha (Lemma 7; 2 alpha in the
/// Appendix C variant). Used by tests/benches to compare measured counts
/// against the proof's budget.
struct IterationBudget {
  double raise_budget = 0;  ///< log_alpha(Delta * 2^(f z))  (Lemma 6)
  double stuck_budget = 0;  ///< f * z * alpha               (Lemma 7, per edge)
  [[nodiscard]] double total() const noexcept {
    return raise_budget + stuck_budget;
  }
};

[[nodiscard]] IterationBudget theorem8_budget(std::uint32_t f, double eps,
                                              std::uint32_t delta, double alpha,
                                              bool appendix_c_variant);

}  // namespace hypercover::core
