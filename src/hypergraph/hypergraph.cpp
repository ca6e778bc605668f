#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "hypergraph/hgb_image.hpp"

namespace hypercover::hg {

void Hypergraph::rebind() noexcept {
  weights_ = own_weights_;
  vertex_offsets_ = own_vertex_offsets_;
  vertex_edges_ = own_vertex_edges_;
  edge_offsets_ = own_edge_offsets_;
  edge_vertices_ = own_edge_vertices_;
  local_max_degree_ = own_local_max_degree_;
}

Hypergraph::Hypergraph(const Hypergraph& other)
    : rank_(other.rank_),
      max_degree_(other.max_degree_),
      max_local_degree_(other.max_local_degree_),
      own_weights_(other.own_weights_),
      own_vertex_offsets_(other.own_vertex_offsets_),
      own_vertex_edges_(other.own_vertex_edges_),
      own_edge_offsets_(other.own_edge_offsets_),
      own_edge_vertices_(other.own_edge_vertices_),
      own_local_max_degree_(other.own_local_max_degree_),
      storage_(other.storage_) {
  if (storage_ != nullptr) {
    // Adopted mode: the views alias the shared external buffer, which the
    // copied storage_ handle keeps alive — copying a mapped graph shares
    // the mapping instead of duplicating megabytes of CSR arrays.
    weights_ = other.weights_;
    vertex_offsets_ = other.vertex_offsets_;
    vertex_edges_ = other.vertex_edges_;
    edge_offsets_ = other.edge_offsets_;
    edge_vertices_ = other.edge_vertices_;
    local_max_degree_ = other.local_max_degree_;
  } else {
    rebind();
  }
}

Hypergraph::Hypergraph(Hypergraph&& other) noexcept
    : rank_(other.rank_),
      max_degree_(other.max_degree_),
      max_local_degree_(other.max_local_degree_),
      own_weights_(std::move(other.own_weights_)),
      own_vertex_offsets_(std::move(other.own_vertex_offsets_)),
      own_vertex_edges_(std::move(other.own_vertex_edges_)),
      own_edge_offsets_(std::move(other.own_edge_offsets_)),
      own_edge_vertices_(std::move(other.own_edge_vertices_)),
      own_local_max_degree_(std::move(other.own_local_max_degree_)),
      storage_(std::move(other.storage_)) {
  if (storage_ != nullptr) {
    weights_ = other.weights_;
    vertex_offsets_ = other.vertex_offsets_;
    vertex_edges_ = other.vertex_edges_;
    edge_offsets_ = other.edge_offsets_;
    edge_vertices_ = other.edge_vertices_;
    local_max_degree_ = other.local_max_degree_;
  } else {
    rebind();
  }
  other = Hypergraph();  // leave the source empty, not dangling
}

Hypergraph& Hypergraph::operator=(const Hypergraph& other) {
  if (this != &other) *this = Hypergraph(other);
  return *this;
}

Hypergraph& Hypergraph::operator=(Hypergraph&& other) noexcept {
  if (this == &other) return *this;
  rank_ = other.rank_;
  max_degree_ = other.max_degree_;
  max_local_degree_ = other.max_local_degree_;
  own_weights_ = std::move(other.own_weights_);
  own_vertex_offsets_ = std::move(other.own_vertex_offsets_);
  own_vertex_edges_ = std::move(other.own_vertex_edges_);
  own_edge_offsets_ = std::move(other.own_edge_offsets_);
  own_edge_vertices_ = std::move(other.own_edge_vertices_);
  own_local_max_degree_ = std::move(other.own_local_max_degree_);
  storage_ = std::move(other.storage_);
  if (storage_ != nullptr) {
    weights_ = other.weights_;
    vertex_offsets_ = other.vertex_offsets_;
    vertex_edges_ = other.vertex_edges_;
    edge_offsets_ = other.edge_offsets_;
    edge_vertices_ = other.edge_vertices_;
    local_max_degree_ = other.local_max_degree_;
  } else {
    rebind();
  }
  other.weights_ = {};
  other.vertex_offsets_ = {};
  other.vertex_edges_ = {};
  other.edge_offsets_ = {};
  other.edge_vertices_ = {};
  other.local_max_degree_ = {};
  other.rank_ = other.max_degree_ = other.max_local_degree_ = 0;
  return *this;
}

Weight Hypergraph::weight_of(const std::vector<bool>& in_set) const {
  if (in_set.size() != weights_.size()) {
    throw std::invalid_argument("weight_of: indicator size mismatch");
  }
  Weight total = 0;
  for (std::uint32_t v = 0; v < weights_.size(); ++v) {
    if (in_set[v]) total += weights_[v];
  }
  return total;
}

VertexId Builder::add_vertex(Weight weight) {
  weights_.push_back(weight);
  return static_cast<VertexId>(weights_.size() - 1);
}

VertexId Builder::add_vertices(std::uint32_t count, Weight weight) {
  const auto first = static_cast<VertexId>(weights_.size());
  weights_.insert(weights_.end(), count, weight);
  return first;
}

EdgeId Builder::add_edge(std::span<const VertexId> members) {
  if (edge_offsets_.empty()) edge_offsets_.push_back(0);
  edge_vertices_.insert(edge_vertices_.end(), members.begin(), members.end());
  edge_offsets_.push_back(edge_vertices_.size());
  return static_cast<EdgeId>(edge_offsets_.size() - 2);
}

EdgeId Builder::add_edge(std::initializer_list<VertexId> members) {
  return add_edge(std::span<const VertexId>(members.begin(), members.size()));
}

Hypergraph Builder::build() {
  const auto n = static_cast<std::uint32_t>(weights_.size());
  for (std::uint32_t v = 0; v < n; ++v) {
    if (weights_[v] <= 0) {
      throw std::invalid_argument("Builder: vertex " + std::to_string(v) +
                                  " has non-positive weight");
    }
  }

  // Sort each edge's members in place; validate range and distinctness.
  if (edge_offsets_.empty()) edge_offsets_.push_back(0);
  const std::size_t m = edge_offsets_.size() - 1;
  std::vector<std::uint32_t> degree(n, 0);
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < m; ++i) {
    VertexId* const first = edge_vertices_.data() + edge_offsets_[i];
    VertexId* const last = edge_vertices_.data() + edge_offsets_[i + 1];
    if (first == last) {
      throw std::invalid_argument("Builder: edge " + std::to_string(i) +
                                  " is empty");
    }
    std::sort(first, last);
    for (const VertexId* p = first; p != last; ++p) {
      if (*p >= n) {
        throw std::invalid_argument("Builder: edge " + std::to_string(i) +
                                    " references vertex out of range");
      }
      if (p != first && *p == p[-1]) {
        throw std::invalid_argument("Builder: edge " + std::to_string(i) +
                                    " has duplicate vertex " +
                                    std::to_string(*p));
      }
      ++degree[*p];
    }
    rank = std::max(rank, static_cast<std::uint32_t>(last - first));
  }

  Hypergraph g;
  g.rank_ = rank;
  g.own_weights_ = std::move(weights_);
  g.own_edge_vertices_ = std::move(edge_vertices_);
  g.own_edge_offsets_ = std::move(edge_offsets_);
  // add_edge grew these by push_back; a built graph may live long (server
  // connection state, CLI batches), so it keeps exact-size arrays.
  g.own_edge_vertices_.shrink_to_fit();
  g.own_edge_offsets_.shrink_to_fit();
  weights_.clear();
  edge_vertices_.clear();
  edge_offsets_.clear();

  g.own_vertex_offsets_.resize(std::size_t{n} + 1);
  g.own_vertex_edges_.resize(g.own_edge_vertices_.size());
  g.own_local_max_degree_.resize(m);
  const detail::VertexSideMaxima maxima = detail::derive_vertex_side(
      degree, g.own_edge_offsets_, g.own_edge_vertices_,
      g.own_vertex_offsets_, g.own_vertex_edges_, g.own_local_max_degree_);
  g.max_degree_ = maxima.max_degree;
  g.max_local_degree_ = maxima.max_local_degree;

  g.rebind();
  return g;
}

namespace detail {

VertexSideMaxima derive_vertex_side(std::span<const std::uint32_t> degree,
                                    std::span<const Offset> edge_offsets,
                                    std::span<const VertexId> edge_vertices,
                                    std::span<Offset> vertex_offsets,
                                    std::span<EdgeId> vertex_edges,
                                    std::span<std::uint32_t> local_max_degree) {
  VertexSideMaxima out;
  std::vector<Offset> cursor(degree.size());
  vertex_offsets[0] = 0;
  for (std::size_t v = 0; v < degree.size(); ++v) {
    cursor[v] = vertex_offsets[v];
    vertex_offsets[v + 1] = vertex_offsets[v] + degree[v];
    out.max_degree = std::max(out.max_degree, degree[v]);
  }
  // One pass over the incidences fills each vertex's edge list and
  // Delta(e) = max_{v in e} degree(v), so local_max_degree(e) is O(1)
  // forever after.
  for (std::size_t e = 0; e + 1 < edge_offsets.size(); ++e) {
    std::uint32_t best = 0;
    for (Offset k = edge_offsets[e]; k < edge_offsets[e + 1]; ++k) {
      const VertexId v = edge_vertices[k];
      vertex_edges[cursor[v]++] = static_cast<EdgeId>(e);
      best = std::max(best, degree[v]);
    }
    local_max_degree[e] = best;
    out.max_local_degree = std::max(out.max_local_degree, best);
  }
  return out;
}

}  // namespace detail

}  // namespace hypercover::hg
