#include "util/digest.hpp"

#include <bit>

namespace hypercover::util {

namespace {

// Domain-separation seeds so a graph digest can never collide with a
// solve digest of the same byte content.
constexpr std::uint64_t kGraphSeed = 0x6879706372677231ULL;  // "hypcgr1"
constexpr std::uint64_t kSolveSeed = 0x68797063736f6c31ULL;  // "hypcsol1"

std::uint64_t mix_string(std::uint64_t h, std::string_view s) {
  h = mix64(h, s.size());
  for (const char c : s) h = mix64(h, static_cast<unsigned char>(c));
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  return mix64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

GraphDigest::GraphDigest(std::uint64_t n, std::uint64_t m) noexcept
    : h_(mix64(mix64(kGraphSeed, n), m)) {}

std::uint64_t graph_digest(const hg::Hypergraph& g) {
  GraphDigest d(g.num_vertices(), g.num_edges());
  for (const hg::Weight w : g.weights()) d.weight(w);
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) d.edge(g.vertices_of(e));
  return d.value();
}

std::uint64_t solve_digest(std::uint64_t graph_digest,
                           std::string_view algorithm,
                           const api::SolveRequest& req) {
  std::uint64_t h = kSolveSeed;
  h = mix64(h, graph_digest);
  h = mix_string(h, algorithm);
  h = mix_double(h, req.eps);
  h = mix64(h, req.f_approx ? 1 : 0);
  h = mix64(h, req.f_override);
  // Engine knobs that change the *result* (an earlier hard stop truncates
  // the run; the bandwidth factor and per-round stats land in RunStats).
  // threads / scheduling / pool are excluded: bit-identical by contract.
  h = mix64(h, req.engine.max_rounds);
  h = mix64(h, req.engine.bandwidth_factor);
  h = mix64(h, req.engine.keep_round_stats ? 1 : 0);
  // The MWHVC parameter block (ignored by non-MWHVC algorithms, but the
  // algorithm name above already separates those key spaces).
  h = mix64(h, static_cast<std::uint64_t>(req.mwhvc.alpha_mode));
  h = mix_double(h, req.mwhvc.alpha_fixed);
  h = mix_double(h, req.mwhvc.gamma);
  h = mix64(h, req.mwhvc.appendix_c ? 1 : 0);
  h = mix64(h, req.mwhvc.collect_trace ? 1 : 0);
  h = mix64(h, req.mwhvc.check_invariants ? 1 : 0);
  // Run-control budget truncates the run; observers/cancel are live-only
  // state and cannot be part of a key.
  h = mix64(h, req.control.round_budget);
  h = mix64(h, req.certify ? 1 : 0);
  return h;
}

std::uint64_t solve_digest(const hg::Hypergraph& g, std::string_view algorithm,
                           const api::SolveRequest& req) {
  return solve_digest(graph_digest(g), algorithm, req);
}

}  // namespace hypercover::util
