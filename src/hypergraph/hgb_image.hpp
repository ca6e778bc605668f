#pragma once
// The hgb image writer and trusted adoption, shared by the binary format
// (hypergraph/binary.cpp) and the text scan (hypergraph/io.cpp), and the
// vertex-side derivation they share with Builder::build. Private to the
// hypergraph module: callers use Builder, write_binary,
// append_text_binary and from_text.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hypergraph/binary.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hypercover::hg::detail {

/// The derived scalars derive_vertex_side returns.
struct VertexSideMaxima {
  std::uint32_t max_degree = 0;
  std::uint32_t max_local_degree = 0;
};

/// Derives a graph's vertex side from its edge side and degree histogram
/// (the one rule every built, scanned and written graph follows):
/// `vertex_offsets` (n + 1 entries) gets the prefix sums of `degree`;
/// `vertex_edges` (one entry per incidence) each vertex's edge ids,
/// ascending because edges are walked in id order; `local_max_degree`
/// (m entries) the largest member degree of each edge.
VertexSideMaxima derive_vertex_side(std::span<const std::uint32_t> degree,
                                    std::span<const Offset> edge_offsets,
                                    std::span<const VertexId> edge_vertices,
                                    std::span<Offset> vertex_offsets,
                                    std::span<EdgeId> vertex_edges,
                                    std::span<std::uint32_t> local_max_degree);

/// The edge side of a graph that already meets every format invariant
/// (positive weights, non-empty edges with strictly ascending in-range
/// members), plus what a pass over it yields: each vertex's degree, the
/// rank and util::graph_digest. The image writer derives the rest.
struct EdgeSide {
  std::span<const Weight> weights;
  std::span<const Offset> edge_offsets;  // m + 1 entries, from 0
  std::span<const VertexId> edge_vertices;
  std::span<const std::uint32_t> degree;  // n entries
  std::uint32_t rank = 0;
  std::uint64_t graph_digest = 0;
};

/// Appends the hgb image of `s` to `out` (the vertex side derived by
/// derive_vertex_side) and returns its header. Byte for byte what
/// append_binary writes for the same graph. The image may start at any
/// offset of `out`.
HgbInfo append_image(std::vector<std::uint8_t>& out, const EdgeSide& s);

/// Adopts an image that append_image wrote at offset 0 of `image`,
/// without re-validating it (Debug builds re-validate and throw
/// BinaryFormatError if the writer broke an invariant).
[[nodiscard]] Hypergraph adopt_image(
    std::shared_ptr<const std::vector<std::uint8_t>> image);

}  // namespace hypercover::hg::detail
