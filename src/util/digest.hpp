#pragma once
// Public instance and solve digests.
//
// One key function shared by the solve-service result cache
// (server::SolveServer), `hypercover_cli --stats-json`, and the tests —
// instead of three ad-hoc hashes. Built from the same util::mix64 step
// the CONGEST engine folds its message transcript with, so the digests
// live in the one hash family the repo already trusts.
//
// `solve_digest` keys exactly the inputs that determine a Solution:
// the instance (graph_digest), the registry algorithm name, and every
// result-affecting knob of the SolveRequest. Execution-only knobs —
// engine threads and external pool — are deliberately
// EXCLUDED: the engine guarantees bit-identical runs across both
// (locked by tests/engine_parallel_test.cpp and tests/batch_test.cpp),
// so two requests differing only there must share one cache entry.
//
// Layering note: this header sits in util/ because the digest is a leaf
// utility used across layers, but it speaks api::SolveRequest — it is
// the one util header that includes api/.

#include <cstdint>
#include <span>
#include <string_view>

#include "api/registry.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/math.hpp"

namespace hypercover::util {

/// graph_digest's mix chain, fed one field at a time in its fixed order:
/// n and m (the constructor), every vertex weight in id order, then every
/// edge in id order as its size followed by its members ascending.
/// graph_digest(g) feeds it from g; the text scanner (hypergraph/io.cpp)
/// feeds it as it reads, so a scanned graph is hashed in the same pass.
class GraphDigest {
 public:
  GraphDigest(std::uint64_t n, std::uint64_t m) noexcept;

  void weight(hg::Weight w) noexcept {
    h_ = mix64(h_, static_cast<std::uint64_t>(w));
  }

  void edge(std::span<const hg::VertexId> members) noexcept {
    h_ = mix64(h_, members.size());
    for (const hg::VertexId v : members) h_ = mix64(h_, v);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_;
};

/// Order-sensitive digest of the full instance: n, m, every vertex
/// weight, and every edge's member list. O(n + links). Equal graphs give
/// equal digests; any weight or membership change gives (with 64-bit
/// probability) a different one.
[[nodiscard]] std::uint64_t graph_digest(const hg::Hypergraph& g);

/// Digest of one solve: graph_digest(g) x algorithm name x the
/// result-affecting request knobs (eps, f_approx, f_override,
/// engine.max_rounds / bandwidth_factor / keep_round_stats, the MWHVC
/// parameter block, the round budget, and the certify flag).
[[nodiscard]] std::uint64_t solve_digest(const hg::Hypergraph& g,
                                         std::string_view algorithm,
                                         const api::SolveRequest& req);

/// Same, with the graph digest precomputed (the server computes it once
/// per SubmitGraph and keys many solves against it).
[[nodiscard]] std::uint64_t solve_digest(std::uint64_t graph_digest,
                                         std::string_view algorithm,
                                         const api::SolveRequest& req);

}  // namespace hypercover::util
