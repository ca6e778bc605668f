// Unit and property tests for src/hypergraph: builder validation, CSR
// cross-consistency, generator guarantees (rank, degree caps, exact
// Delta), weight models, stats, and text round-tripping.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hypergraph/generators.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/stats.hpp"
#include "hypergraph/weights.hpp"

namespace hypercover::hg {
namespace {

Hypergraph triangle() {
  Builder b;
  b.add_vertex(1);
  b.add_vertex(2);
  b.add_vertex(3);
  b.add_edge({0, 1});
  b.add_edge({1, 2});
  b.add_edge({0, 2});
  return b.build();
}

TEST(Builder, BasicProperties) {
  const Hypergraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.rank(), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.weight(1), 2);
  EXPECT_EQ(g.num_incidences(), 6u);
}

TEST(Builder, IncidenceCrossConsistency) {
  const Hypergraph g = triangle();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const EdgeId e : g.edges_of(v)) {
      const auto members = g.vertices_of(e);
      EXPECT_NE(std::find(members.begin(), members.end(), v), members.end());
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const VertexId v : g.vertices_of(e)) {
      const auto edges = g.edges_of(v);
      EXPECT_NE(std::find(edges.begin(), edges.end(), e), edges.end());
    }
  }
}

TEST(Builder, MembersAndEdgesSorted) {
  Builder b;
  b.add_vertices(5, 1);
  b.add_edge({4, 0, 2});
  b.add_edge({3, 1});
  const Hypergraph g = b.build();
  const auto m0 = g.vertices_of(0);
  EXPECT_TRUE(std::is_sorted(m0.begin(), m0.end()));
  for (VertexId v = 0; v < 5; ++v) {
    const auto edges = g.edges_of(v);
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  }
}

TEST(Builder, RejectsEmptyEdge) {
  Builder b;
  b.add_vertex(1);
  b.add_edge(std::span<const VertexId>{});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Builder, RejectsDuplicateMember) {
  Builder b;
  b.add_vertices(2, 1);
  b.add_edge({0, 0});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Builder, RejectsOutOfRangeMember) {
  Builder b;
  b.add_vertex(1);
  b.add_edge({7});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Builder, RejectsNonPositiveWeight) {
  Builder b;
  b.add_vertex(0);
  EXPECT_THROW(b.build(), std::invalid_argument);
  Builder b2;
  b2.add_vertex(-3);
  EXPECT_THROW(b2.build(), std::invalid_argument);
}

TEST(Builder, ReusedAfterBuildStartsEmpty) {
  Builder b;
  b.add_vertices(3, 2);
  b.add_edge({2, 0});
  b.add_edge({1});
  const Hypergraph first = b.build();
  EXPECT_EQ(b.num_vertices(), 0u);
  EXPECT_EQ(b.num_edges(), 0u);

  // The second graph sees nothing of the first.
  b.add_vertices(2, 5);
  b.add_edge({1, 0});
  const Hypergraph second = b.build();
  ASSERT_EQ(second.num_vertices(), 2u);
  ASSERT_EQ(second.num_edges(), 1u);
  EXPECT_EQ(second.weight(0), 5);
  EXPECT_EQ(second.num_incidences(), 2u);
  EXPECT_EQ(second.vertices_of(0)[0], 0u);
  EXPECT_EQ(second.vertices_of(0)[1], 1u);
  EXPECT_EQ(to_text(second), "hypergraph 2 1\n5 5\n2 0 1\n");
  EXPECT_EQ(to_text(first), "hypergraph 3 2\n2 2 2\n2 0 2\n1 1\n");

  // A third build with nothing added is the empty graph.
  const Hypergraph third = b.build();
  EXPECT_EQ(third.num_vertices(), 0u);
  EXPECT_EQ(third.num_edges(), 0u);
  EXPECT_EQ(to_text(third), "hypergraph 0 0\n");
}

/// The std::invalid_argument message b.build() throws, or "" if it builds.
std::string build_error(Builder& b) {
  try {
    (void)b.build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Builder, ReportsTheFirstBadEdge) {
  const auto with_edges =
      [](std::initializer_list<std::vector<VertexId>> edges) {
        Builder b;
        b.add_vertices(4, 1);
        for (const auto& e : edges) b.add_edge(std::span<const VertexId>(e));
        return b;
      };
  {  // empty, then out of range, then duplicate
    Builder b = with_edges({{0, 1}, {}, {9}, {2, 2}});
    EXPECT_EQ(build_error(b), "Builder: edge 1 is empty");
  }
  {  // out of range, then duplicate, then empty
    Builder b = with_edges({{3, 0}, {1, 7}, {2, 2}, {}});
    EXPECT_EQ(build_error(b), "Builder: edge 1 references vertex out of range");
  }
  {  // duplicate, then empty, then out of range
    Builder b = with_edges({{0}, {1, 2}, {3, 1, 3}, {}, {4}});
    EXPECT_EQ(build_error(b), "Builder: edge 2 has duplicate vertex 3");
  }
  {  // within one edge, checks follow sorted member order
    Builder b = with_edges({{8, 1, 1}});
    EXPECT_EQ(build_error(b), "Builder: edge 0 has duplicate vertex 1");
    Builder c = with_edges({{8, 8, 1}});
    EXPECT_EQ(build_error(c), "Builder: edge 0 references vertex out of range");
  }
  {  // a bad weight is reported before any edge
    Builder b = with_edges({{}});
    b.add_vertex(0);
    EXPECT_EQ(build_error(b), "Builder: vertex 4 has non-positive weight");
  }
}

TEST(Builder, NumEdgesTracksAddsAndBuild) {
  Builder b;
  EXPECT_EQ(b.num_edges(), 0u);
  b.add_vertices(3, 1);
  EXPECT_EQ(b.num_edges(), 0u);
  EXPECT_EQ(b.add_edge({0, 1}), 0u);
  EXPECT_EQ(b.add_edge({2}), 1u);
  EXPECT_EQ(b.add_edge({1, 2, 0}), 2u);
  EXPECT_EQ(b.num_edges(), 3u);
  const Hypergraph g = b.build();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(b.num_edges(), 0u);
  EXPECT_EQ(b.add_edge({0}), 0u);  // ids restart after build()
  EXPECT_EQ(b.num_edges(), 1u);

  // A failed build keeps the builder's edges.
  Builder bad;
  bad.add_vertex(1);
  bad.add_edge({0});
  bad.add_edge({0, 0});
  EXPECT_THROW((void)bad.build(), std::invalid_argument);
  EXPECT_EQ(bad.num_vertices(), 1u);
  EXPECT_EQ(bad.num_edges(), 2u);
}

TEST(Builder, IsolatedVerticesAllowed) {
  Builder b;
  b.add_vertices(4, 2);
  b.add_edge({0, 1});
  const Hypergraph g = b.build();
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.max_degree(), 1u);
}

TEST(Builder, WeightOfSubset) {
  const Hypergraph g = triangle();
  EXPECT_EQ(g.weight_of({true, false, true}), 4);
  EXPECT_EQ(g.weight_of({false, false, false}), 0);
  EXPECT_THROW((void)g.weight_of({true}), std::invalid_argument);
}

TEST(Hypergraph, LocalMaxDegree) {
  Builder b;
  b.add_vertices(4, 1);
  b.add_edge({0, 1});
  b.add_edge({0, 2});
  b.add_edge({0, 3});
  b.add_edge({1, 2});
  const Hypergraph g = b.build();
  EXPECT_EQ(g.local_max_degree(0), 3u);  // contains vertex 0 with degree 3
  EXPECT_EQ(g.local_max_degree(3), 2u);  // {1,2}: degrees 2 and 2
  EXPECT_EQ(g.max_local_degree(), 3u);
}

TEST(Hypergraph, LocalMaxDegreeTableMatchesRecomputation) {
  // The construction-time Delta(e) table must agree with a direct scan of
  // every edge's members, including on graphs with isolated vertices.
  Builder b;
  b.add_vertices(40, 1);  // vertices 30..39 stay isolated
  std::uint64_t state = 42;
  for (std::uint32_t e = 0; e < 60; ++e) {
    const auto a = static_cast<VertexId>((state = state * 6364136223846793005ULL + 1) % 30);
    const auto c = static_cast<VertexId>((state = state * 6364136223846793005ULL + 1) % 30);
    const auto d = static_cast<VertexId>((state = state * 6364136223846793005ULL + 1) % 30);
    if (a != c && a != d && c != d) b.add_edge({a, c, d});
  }
  const Hypergraph g = b.build();
  std::uint32_t max_local = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::uint32_t want = 0;
    for (const VertexId v : g.vertices_of(e)) {
      want = std::max(want, g.degree(v));
    }
    EXPECT_EQ(g.local_max_degree(e), want) << "edge " << e;
    max_local = std::max(max_local, want);
  }
  EXPECT_EQ(g.max_local_degree(), max_local);
  EXPECT_LE(g.max_local_degree(), g.max_degree());
}

TEST(Generators, RandomUniformRespectsRank) {
  const Hypergraph g = random_uniform(100, 300, 4, unit_weights(), 1);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 300u);
  EXPECT_LE(g.rank(), 4u);
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(g.edge_size(e), 4u);
}

TEST(Generators, Deterministic) {
  const Hypergraph a = random_uniform(50, 100, 3, uniform_weights(10), 77);
  const Hypergraph b = random_uniform(50, 100, 3, uniform_weights(10), 77);
  EXPECT_EQ(to_text(a), to_text(b));
  const Hypergraph c = random_uniform(50, 100, 3, uniform_weights(10), 78);
  EXPECT_NE(to_text(a), to_text(c));
}

TEST(Generators, BoundedDegreeHonorsCap) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Hypergraph g =
        random_bounded_degree(200, 500, 3, 5, unit_weights(), seed);
    EXPECT_LE(g.max_degree(), 5u);
    EXPECT_LE(g.rank(), 3u);
  }
}

TEST(Generators, HyperStarExactDelta) {
  const Hypergraph g = hyper_star(64, 3, unit_weights(), 0);
  EXPECT_EQ(g.max_degree(), 64u);
  EXPECT_EQ(g.rank(), 3u);
  EXPECT_EQ(g.num_vertices(), 1u + 64 * 2);
  EXPECT_EQ(g.degree(0), 64u);
  for (VertexId v = 1; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Generators, CycleShape) {
  const Hypergraph g = cycle(10, unit_weights(), 0);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.rank(), 2u);
}

TEST(Generators, CompleteGraphShape) {
  const Hypergraph g = complete_graph(8, unit_weights(), 0);
  EXPECT_EQ(g.num_edges(), 28u);
  EXPECT_EQ(g.max_degree(), 7u);
}

TEST(Generators, CompleteBipartiteShape) {
  const Hypergraph g = complete_bipartite(3, 5, unit_weights(), 0);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(g.max_degree(), 5u);
  EXPECT_EQ(g.degree(0), 5u);   // left side
  EXPECT_EQ(g.degree(3), 3u);   // right side
}

TEST(Generators, GridShape) {
  const Hypergraph g = grid(4, 5, unit_weights(), 0);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 4u * 4 + 3u * 5);
  EXPECT_LE(g.max_degree(), 4u);
}

TEST(Generators, SetCoverFrequencyBound) {
  const Hypergraph g = random_set_cover(30, 100, 4, unit_weights(), 9);
  EXPECT_EQ(g.num_vertices(), 30u);
  EXPECT_EQ(g.num_edges(), 100u);
  EXPECT_LE(g.rank(), 4u);
  EXPECT_GE(g.rank(), 1u);
}

TEST(Generators, GnpDensityScales) {
  const Hypergraph sparse = gnp(60, 0.05, unit_weights(), 4);
  const Hypergraph dense = gnp(60, 0.5, unit_weights(), 4);
  EXPECT_LT(sparse.num_edges(), dense.num_edges());
}

TEST(Generators, BadParamsThrow) {
  EXPECT_THROW(random_uniform(5, 3, 9, unit_weights(), 0),
               std::invalid_argument);
  EXPECT_THROW(cycle(2, unit_weights(), 0), std::invalid_argument);
  EXPECT_THROW(hyper_star(0, 2, unit_weights(), 0), std::invalid_argument);
  EXPECT_THROW(random_set_cover(5, 10, 9, unit_weights(), 0),
               std::invalid_argument);
}

TEST(Weights, ModelsProduceExpectedRanges) {
  util::Xoshiro256StarStar rng(1);
  const auto unit = unit_weights();
  const auto uni = uniform_weights(100);
  const auto expo = exponential_weights(10);
  const auto bim = bimodal_weights(1000);
  for (VertexId v = 0; v < 200; ++v) {
    EXPECT_EQ(unit(v, 200, rng), 1);
    const Weight u = uni(v, 200, rng);
    EXPECT_GE(u, 1);
    EXPECT_LE(u, 100);
    const Weight x = expo(v, 200, rng);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 1024);
    EXPECT_EQ((x & (x - 1)), 0) << "exponential weights are powers of two";
    EXPECT_EQ(bim(v, 200, rng), v % 2 == 0 ? 1 : 1000);
  }
}

TEST(Stats, ComputesCoreParameters) {
  Builder b;
  b.add_vertex(1);
  b.add_vertex(10);
  b.add_vertex(5);
  b.add_edge({0, 1, 2});
  b.add_edge({0, 1});
  const Stats s = compute_stats(b.build());
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.m, 2u);
  EXPECT_EQ(s.rank, 3u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_EQ(s.min_weight, 1);
  EXPECT_EQ(s.max_weight, 10);
  EXPECT_DOUBLE_EQ(s.weight_ratio, 10.0);
  EXPECT_EQ(s.incidences, 5u);
}

TEST(Io, RoundTrips) {
  const Hypergraph g = random_uniform(20, 40, 3, uniform_weights(50), 123);
  const Hypergraph h = from_text(to_text(g));
  EXPECT_EQ(to_text(g), to_text(h));
}

TEST(Io, ParsesCommentsAndWhitespace) {
  const std::string text =
      "# a comment\nhypergraph 2 1\n# weights\n3 4\n2 0 1\n";
  const Hypergraph g = from_text(text);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.weight(1), 4);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Io, RejectsMalformedInput) {
  EXPECT_THROW(from_text("nope 1 1"), std::runtime_error);
  EXPECT_THROW(from_text("hypergraph 1"), std::runtime_error);
  EXPECT_THROW(from_text("hypergraph 1 1\n2\n1 5\n"), std::runtime_error);
  EXPECT_THROW(from_text("hypergraph 1 1\n2\n0\n"), std::runtime_error);
}

}  // namespace
}  // namespace hypercover::hg
