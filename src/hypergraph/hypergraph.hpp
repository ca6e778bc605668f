#pragma once
// Immutable weighted hypergraph in compressed-sparse-row form, stored in
// both directions (vertex -> incident edges, edge -> member vertices).
//
// This is the problem input of the paper (§2): G = (V, E) with positive
// integer vertex weights, rank f = max edge size, maximum degree
// Delta = max number of edges containing a vertex. It doubles as the
// topology of the CONGEST communication network N(E ∪ V, {{e,v} | v ∈ e}).
//
// Storage model: every accessor reads through span views. For a graph
// built by Builder the views point at vectors the graph owns; a graph
// adopted from a validated `hgb` binary buffer (hypergraph/binary.hpp)
// points the same views into that external buffer — zero copies, zero
// CSR rebuilding — and keeps it alive through a shared keepalive handle.
// Copies of an adopted graph share the buffer; copies of an owned graph
// deep-copy the vectors.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace hypercover::hg {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;
using Weight = std::int64_t;
/// CSR offset type — fixed 64-bit so the in-memory layout matches the
/// on-disk `hgb` format exactly (adoption is a pointer fixup, not a
/// widening copy).
using Offset = std::uint64_t;

class Builder;
namespace detail {
struct HypergraphStorageAccess;  // hypergraph/binary.cpp internals
}

class Hypergraph {
 public:
  Hypergraph() = default;
  Hypergraph(const Hypergraph& other);
  Hypergraph(Hypergraph&& other) noexcept;
  Hypergraph& operator=(const Hypergraph& other);
  Hypergraph& operator=(Hypergraph&& other) noexcept;

  /// Number of vertices n = |V| (includes isolated vertices).
  [[nodiscard]] std::uint32_t num_vertices() const noexcept {
    return static_cast<std::uint32_t>(weights_.size());
  }

  /// Number of hyperedges m = |E|.
  [[nodiscard]] std::uint32_t num_edges() const noexcept {
    return static_cast<std::uint32_t>(edge_offsets_.empty()
                                          ? 0
                                          : edge_offsets_.size() - 1);
  }

  [[nodiscard]] Weight weight(VertexId v) const noexcept { return weights_[v]; }

  [[nodiscard]] std::span<const Weight> weights() const noexcept {
    return weights_;
  }

  /// E(v): edges incident to v, sorted ascending. data() arithmetic, not
  /// operator[]: an isolated vertex in an edge-free graph would otherwise
  /// form a reference one past (or into) an empty array — UB.
  [[nodiscard]] std::span<const EdgeId> edges_of(VertexId v) const noexcept {
    return {vertex_edges_.data() + vertex_offsets_[v],
            vertex_offsets_[v + 1] - vertex_offsets_[v]};
  }

  /// Member vertices of edge e, sorted ascending.
  [[nodiscard]] std::span<const VertexId> vertices_of(EdgeId e) const noexcept {
    return {edge_vertices_.data() + edge_offsets_[e],
            edge_offsets_[e + 1] - edge_offsets_[e]};
  }

  [[nodiscard]] std::uint32_t degree(VertexId v) const noexcept {
    return static_cast<std::uint32_t>(vertex_offsets_[v + 1] -
                                      vertex_offsets_[v]);
  }

  [[nodiscard]] std::uint32_t edge_size(EdgeId e) const noexcept {
    return static_cast<std::uint32_t>(edge_offsets_[e + 1] - edge_offsets_[e]);
  }

  /// Rank f: maximum edge size (0 for edge-free graphs).
  [[nodiscard]] std::uint32_t rank() const noexcept { return rank_; }

  /// Maximum degree Delta (0 if every vertex is isolated).
  [[nodiscard]] std::uint32_t max_degree() const noexcept { return max_degree_; }

  /// Local maximum degree Delta(e) = max_{v in e} |E(v)| (Theorem 9
  /// remark). O(1): served from a table built at construction, so
  /// per-round / per-edge queries do not re-scan the members.
  [[nodiscard]] std::uint32_t local_max_degree(EdgeId e) const noexcept {
    return local_max_degree_[e];
  }

  /// max_e Delta(e): the largest local degree bound any edge sees.
  /// Equals max_degree() whenever some non-isolated vertex attains it.
  [[nodiscard]] std::uint32_t max_local_degree() const noexcept {
    return max_local_degree_;
  }

  /// Total number of (vertex, edge) incidences = number of network links.
  [[nodiscard]] std::size_t num_incidences() const noexcept {
    return edge_vertices_.size();
  }

  /// True when the CSR arrays live in an adopted external buffer (an
  /// `hgb` byte buffer or mmap'd file) instead of owned vectors.
  [[nodiscard]] bool adopted() const noexcept { return storage_ != nullptr; }

  /// Sum of weights over a vertex subset given as an indicator vector.
  [[nodiscard]] Weight weight_of(const std::vector<bool>& in_set) const;

 private:
  friend class Builder;
  friend struct detail::HypergraphStorageAccess;

  /// Points the span views at the owned vectors (owned-storage mode).
  void rebind() noexcept;

  // Views every accessor reads through. In owned mode they alias the
  // own_* vectors below; in adopted mode they alias the external buffer
  // kept alive by storage_.
  std::span<const Weight> weights_;
  std::span<const Offset> vertex_offsets_;  // size n+1
  std::span<const EdgeId> vertex_edges_;
  std::span<const Offset> edge_offsets_;  // size m+1
  std::span<const VertexId> edge_vertices_;
  std::span<const std::uint32_t> local_max_degree_;  // Delta(e), size m
  std::uint32_t rank_ = 0;
  std::uint32_t max_degree_ = 0;
  std::uint32_t max_local_degree_ = 0;

  // Owned backing storage (empty while adopted).
  std::vector<Weight> own_weights_;
  std::vector<Offset> own_vertex_offsets_;
  std::vector<EdgeId> own_vertex_edges_;
  std::vector<Offset> own_edge_offsets_;
  std::vector<VertexId> own_edge_vertices_;
  std::vector<std::uint32_t> own_local_max_degree_;

  /// Keeps an adopted buffer alive for as long as any copy of this graph
  /// reads through it (e.g. the munmap handle of a mapped `hgb` file).
  std::shared_ptr<const void> storage_;
};

/// Incremental constructor for Hypergraph. Validates on build():
///  - every edge is non-empty with distinct member vertices in range,
///  - every weight is a positive integer (paper §2: w : V -> N+).
class Builder {
 public:
  /// Adds a vertex with the given positive weight; returns its id.
  VertexId add_vertex(Weight weight);

  /// Adds `count` vertices of the given weight; returns the first id.
  VertexId add_vertices(std::uint32_t count, Weight weight);

  /// Adds a hyperedge over the given vertices; returns its id.
  /// Members may be passed in any order; duplicates are rejected at build().
  EdgeId add_edge(std::span<const VertexId> members);
  EdgeId add_edge(std::initializer_list<VertexId> members);

  [[nodiscard]] std::uint32_t num_vertices() const noexcept {
    return static_cast<std::uint32_t>(weights_.size());
  }
  [[nodiscard]] std::uint32_t num_edges() const noexcept {
    return static_cast<std::uint32_t>(
        edge_offsets_.empty() ? 0 : edge_offsets_.size() - 1);
  }

  /// Validates and produces the immutable hypergraph, sorting each edge's
  /// members in place and moving the edge arrays into it, trimmed to
  /// their exact size. Throws std::invalid_argument naming the first bad
  /// edge; the builder then keeps its vertices and edges (members possibly
  /// reordered). On success the builder is left empty and ready for reuse.
  [[nodiscard]] Hypergraph build();

 private:
  std::vector<Weight> weights_;
  // Edge side in the graph's own CSR layout: edge e's members are
  // edge_vertices_[edge_offsets_[e] .. edge_offsets_[e + 1]). The offsets
  // start at 0 once the first edge is added and stay empty until then.
  std::vector<VertexId> edge_vertices_;
  std::vector<Offset> edge_offsets_;
};

}  // namespace hypercover::hg
