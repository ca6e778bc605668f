// Tests for the `hgb` binary hypergraph format (hypergraph/binary.hpp):
// write -> read and write -> adopt round trips, zero-copy adoption
// semantics (keepalive lifetime, copy sharing), map_file over a real
// mmap, and — the format's central promise — that EVERY single-byte
// corruption of a valid buffer fails validation with BinaryFormatError.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hypergraph/binary.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "util/digest.hpp"

namespace hypercover::hg {
namespace {

void expect_structurally_equal(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.num_incidences(), b.num_incidences());
  EXPECT_EQ(a.rank(), b.rank());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  EXPECT_EQ(a.max_local_degree(), b.max_local_degree());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.weight(v), b.weight(v)) << "vertex " << v;
    const auto ea = a.edges_of(v), eb = b.edges_of(v);
    ASSERT_EQ(ea.size(), eb.size()) << "vertex " << v;
    for (std::size_t k = 0; k < ea.size(); ++k) EXPECT_EQ(ea[k], eb[k]);
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.local_max_degree(e), b.local_max_degree(e)) << "edge " << e;
    const auto va = a.vertices_of(e), vb = b.vertices_of(e);
    ASSERT_EQ(va.size(), vb.size()) << "edge " << e;
    for (std::size_t j = 0; j < va.size(); ++j) EXPECT_EQ(va[j], vb[j]);
  }
}

/// A scratch directory removed (best effort) with the fixture.
class BinaryFormat : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hgb_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    for (const std::string& f : files_) ::unlink(f.c_str());
    ::rmdir(dir_.c_str());
  }
  std::string path(const std::string& name) {
    files_.push_back(dir_ + "/" + name);
    return files_.back();
  }

 private:
  std::string dir_;
  std::vector<std::string> files_;
};

TEST_F(BinaryFormat, RoundTripsGeneratorFamilies) {
  const Hypergraph graphs[] = {
      random_uniform(80, 160, 3, exponential_weights(12), 7),
      random_bounded_degree(100, 150, 4, 6, uniform_weights(999), 8),
      hyper_star(25, 3, uniform_weights(17), 9),
      cycle(12, bimodal_weights(1000), 10),
      random_set_cover(40, 90, 3, uniform_weights(64), 11),
      grid(7, 9, unit_weights(), 12),
  };
  for (const auto& g : graphs) {
    const auto bytes = write_binary(g);
    const HgbInfo info = validate_binary(bytes);
    EXPECT_EQ(info.n, g.num_vertices());
    EXPECT_EQ(info.m, g.num_edges());
    EXPECT_EQ(info.incidences, g.num_incidences());
    EXPECT_EQ(info.graph_digest, util::graph_digest(g));
    EXPECT_EQ(info.file_bytes, bytes.size());

    const Hypergraph rt = read_binary(bytes);
    expect_structurally_equal(g, rt);
    EXPECT_FALSE(rt.adopted());
    EXPECT_EQ(util::graph_digest(rt), util::graph_digest(g));
    // One canonical encoding per graph: re-serialization is byte-stable.
    EXPECT_EQ(write_binary(rt), bytes);
  }
}

TEST_F(BinaryFormat, RoundTripsEdgeCases) {
  {
    Builder b;  // vertices but no edges
    b.add_vertices(5, 3);
    const auto g = b.build();
    const auto rt = read_binary(write_binary(g));
    expect_structurally_equal(g, rt);
  }
  {
    const Hypergraph g;  // fully empty graph
    const auto bytes = write_binary(g);
    const auto rt = read_binary(bytes);
    EXPECT_EQ(rt.num_vertices(), 0u);
    EXPECT_EQ(rt.num_edges(), 0u);
  }
  {
    Builder b;  // weight near the top of the supported range
    b.add_vertex(1);
    b.add_vertex(Weight{1} << 40);
    b.add_edge({0, 1});
    const auto g = b.build();
    const auto rt = read_binary(write_binary(g));
    EXPECT_EQ(rt.weight(1), Weight{1} << 40);
  }
}

// Promoted from the binary fuzz harness (fuzz/fuzz_binary_validate.cpp):
// multi-byte count corruptions (a whole u32/u64 field rewritten, which
// the single-byte-flip sweep below does not produce) must be rejected by
// the coarse bounds checks — cheaply, before anything is allocated or
// summed from them. The harness runs these shapes by the thousands; this
// pins the exact field-level cases.
TEST_F(BinaryFormat, FuzzRegressionGarbageCountsRejectedBeforeAllocation) {
  const Hypergraph g = random_uniform(30, 60, 3, unit_weights(), 21);
  const std::vector<std::uint8_t> good = write_binary(g);
  auto patched = [&](std::size_t offset, std::uint64_t value,
                     std::size_t width) {
    std::vector<std::uint8_t> bad = good;
    for (std::size_t i = 0; i < width; ++i) {
      bad[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    return bad;
  };
  // Header offsets from the format table in binary.hpp.
  EXPECT_THROW(validate_binary(patched(16, 0xFFFFFFFFu, 4)),
               BinaryFormatError);  // n
  EXPECT_THROW(validate_binary(patched(20, 0xFFFFFFFFu, 4)),
               BinaryFormatError);  // m
  EXPECT_THROW(validate_binary(patched(24, ~std::uint64_t{0}, 8)),
               BinaryFormatError);  // incidences
  EXPECT_THROW(validate_binary(patched(56, ~std::uint64_t{0}, 8)),
               BinaryFormatError);  // total file bytes
  EXPECT_THROW(validate_binary(patched(56, 64, 8)),
               BinaryFormatError);  // file_bytes smaller than the content
  validate_binary(good);  // and the unpatched buffer still passes
}

TEST_F(BinaryFormat, AdoptIsZeroCopyAndKeepaliveBound) {
  const auto g = random_uniform(60, 120, 3, uniform_weights(50), 21);
  auto blob = std::make_shared<const std::vector<std::uint8_t>>(write_binary(g));
  const std::span<const std::uint8_t> view(*blob);

  Hypergraph adopted = adopt_binary(view, blob);
  EXPECT_TRUE(adopted.adopted());
  expect_structurally_equal(g, adopted);

  // The graph must keep the buffer alive on its own.
  blob.reset();
  expect_structurally_equal(g, adopted);

  // Copies share the adopted buffer (and keep it alive) rather than
  // deep-copying megabytes of CSR arrays.
  Hypergraph copy = adopted;
  EXPECT_TRUE(copy.adopted());
  adopted = Hypergraph();  // drop the original
  expect_structurally_equal(g, copy);

  // Move transfers the buffer; the moved-from graph is empty, not dangling.
  Hypergraph moved = std::move(copy);
  EXPECT_TRUE(moved.adopted());
  EXPECT_EQ(copy.num_vertices(), 0u);  // NOLINT(bugprone-use-after-move)
  expect_structurally_equal(g, moved);
}

TEST_F(BinaryFormat, OwnedGraphCopiesStayIndependent) {
  const auto g = random_uniform(30, 60, 3, uniform_weights(9), 22);
  Hypergraph copy = g;
  EXPECT_FALSE(copy.adopted());
  const Hypergraph moved = std::move(copy);
  expect_structurally_equal(g, moved);
  EXPECT_EQ(copy.num_vertices(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST_F(BinaryFormat, MapFileAdoptsTheMapping) {
  const auto g = random_set_cover(50, 120, 4, exponential_weights(40), 23);
  const std::string file = path("instance.hgb");
  write_binary_file(file, g);

  const Hypergraph mapped = map_file(file);
  EXPECT_TRUE(mapped.adopted());
  expect_structurally_equal(g, mapped);
  EXPECT_EQ(util::graph_digest(mapped), util::graph_digest(g));

  // Text and binary ingestion agree bit-for-bit on the instance.
  EXPECT_EQ(to_text(mapped), to_text(g));
}

TEST_F(BinaryFormat, MapFileErrors) {
  EXPECT_THROW((void)map_file(path("missing.hgb")), BinaryFormatError);
  const std::string tiny = path("tiny.hgb");
  {
    std::vector<std::uint8_t> junk = {'n', 'o', 't', ' ', 'h', 'g', 'b'};
    FILE* f = ::fopen(tiny.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ::fwrite(junk.data(), 1, junk.size(), f);
    ::fclose(f);
  }
  EXPECT_THROW((void)map_file(tiny), BinaryFormatError);
}

TEST_F(BinaryFormat, EveryByteFlipFailsValidation) {
  // Small odd-incidence instance so the u32 sections have live padding.
  Builder b;
  b.add_vertex(3);
  b.add_vertex(5);
  b.add_vertex(7);
  b.add_edge({0, 1, 2});
  const auto g = b.build();
  const auto bytes = write_binary(g);
  ASSERT_EQ(validate_binary(bytes).n, 3u);

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t delta : {std::uint8_t{0xFF}, std::uint8_t{0x01}}) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[i] ^= delta;
      EXPECT_THROW((void)validate_binary(corrupt), BinaryFormatError)
          << "byte " << i << " xor " << unsigned(delta)
          << " passed validation";
    }
  }
}

TEST_F(BinaryFormat, RejectsTruncationAndGrowth) {
  const auto g = random_uniform(20, 40, 3, uniform_weights(5), 24);
  const auto bytes = write_binary(g);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, std::size_t{63}, kHgbHeaderBytes,
        bytes.size() - 8, bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW((void)validate_binary(cut), BinaryFormatError) << len;
  }
  std::vector<std::uint8_t> grown = bytes;
  grown.resize(grown.size() + 8, 0);
  EXPECT_THROW((void)validate_binary(grown), BinaryFormatError);
}

TEST_F(BinaryFormat, RejectsBadMagicAndVersion) {
  const auto bytes = write_binary(grid(3, 3, unit_weights(), 25));
  {
    auto bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW((void)validate_binary(bad), BinaryFormatError);
  }
  {
    auto bad = bytes;
    bad[8] = 99;  // version field
    EXPECT_THROW((void)validate_binary(bad), BinaryFormatError);
  }
  {
    auto bad = bytes;
    bad[12] = 1;  // reserved flags must be zero
    EXPECT_THROW((void)validate_binary(bad), BinaryFormatError);
  }
  EXPECT_TRUE(looks_like_binary(bytes));
  EXPECT_FALSE(looks_like_binary({bytes.data(), 4}));
  const std::string text = "hypergraph 1 0\n1\n";
  EXPECT_FALSE(looks_like_binary(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
}

TEST_F(BinaryFormat, RejectsDuplicateMembersLikeTheTextReader) {
  // Hand-corrupt the edge->vertex array of edge {0,1} into {0,0}. The
  // validator must refuse on member ordering (duplicates are never
  // representable), mirroring read_text's rejection of the same graph.
  Builder b;
  b.add_vertex(1);
  b.add_vertex(1);
  b.add_edge({0, 1});
  auto bytes = write_binary(b.build());
  // Sections: header 64 | weights 16 | vertex_offsets 24 | edge_offsets 16
  // | vertex_edges pad8(8)=8 | edge_vertices at 128.
  const std::size_t edge_vertices_off = 64 + 16 + 24 + 16 + 8;
  ASSERT_EQ(bytes[edge_vertices_off + 4], 1u);  // second member is vertex 1
  bytes[edge_vertices_off + 4] = 0;             // now {0, 0}
  try {
    (void)validate_binary(bytes);
    FAIL() << "duplicate member passed validation";
  } catch (const BinaryFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("ascending"), std::string::npos)
        << e.what();
  }
  // Same instance in text form: the text reader rejects it too — the two
  // ingestion paths enforce one contract.
  EXPECT_THROW((void)from_text("hypergraph 2 1\n1 1\n2 0 0\n"),
               std::runtime_error);
}

TEST_F(BinaryFormat, UnalignedBuffers) {
  const auto g = cycle(9, uniform_weights(4), 26);
  const auto bytes = write_binary(g);
  // Stage the image at an odd offset inside a larger allocation, the way
  // a wire prefix does: append_binary writes the same bytes after it.
  std::vector<std::uint8_t> shifted{0xab};
  append_binary(shifted, g);
  ASSERT_EQ(shifted.size(), bytes.size() + 1);
  EXPECT_EQ(shifted[0], 0xab);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), shifted.begin() + 1));
  const std::span<const std::uint8_t> view(shifted.data() + 1, bytes.size());

  // validate/read cope by copying to aligned scratch...
  EXPECT_EQ(validate_binary(view).graph_digest, util::graph_digest(g));
  expect_structurally_equal(g, read_binary(view));
  // ...but zero-copy adoption must refuse rather than read misaligned u64s.
  EXPECT_THROW(
      (void)adopt_binary(view, std::shared_ptr<const void>(
                                   shifted.data(), [](const void*) {})),
      BinaryFormatError);
}

TEST_F(BinaryFormat, WriteBinaryFileRoundTrips) {
  const auto g = hyper_star(15, 3, uniform_weights(11), 27);
  const std::string file = path("star.hgb");
  write_binary_file(file, g);
  expect_structurally_equal(g, map_file(file));
  EXPECT_THROW(write_binary_file("/nonexistent-dir/x.hgb", g),
               BinaryFormatError);
}

}  // namespace
}  // namespace hypercover::hg
