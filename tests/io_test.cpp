// Round-trip tests for the plain-text hypergraph serialization: write ->
// read must reproduce the exact structure (weights, incidence lists in
// order, derived rank/degree), comments and whitespace are tolerated, and
// malformed inputs fail with descriptive errors instead of bad graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>

#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"

namespace hypercover::hg {
namespace {

void expect_structurally_equal(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.num_incidences(), b.num_incidences());
  EXPECT_EQ(a.rank(), b.rank());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.weight(v), b.weight(v)) << "vertex " << v;
    const auto ea = a.edges_of(v), eb = b.edges_of(v);
    ASSERT_EQ(ea.size(), eb.size()) << "vertex " << v;
    for (std::size_t k = 0; k < ea.size(); ++k) EXPECT_EQ(ea[k], eb[k]);
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const auto va = a.vertices_of(e), vb = b.vertices_of(e);
    ASSERT_EQ(va.size(), vb.size()) << "edge " << e;
    for (std::size_t j = 0; j < va.size(); ++j) EXPECT_EQ(va[j], vb[j]);
  }
}

TEST(HypergraphIo, RoundTripsGeneratorFamilies) {
  const Hypergraph graphs[] = {
      random_uniform(80, 160, 3, exponential_weights(12), 7),
      random_bounded_degree(100, 150, 4, 6, uniform_weights(999), 8),
      hyper_star(25, 3, uniform_weights(17), 9),
      cycle(12, bimodal_weights(1000), 10),
      random_set_cover(40, 90, 3, uniform_weights(64), 11),
      grid(7, 9, unit_weights(), 12),
  };
  for (const auto& g : graphs) {
    const auto round_tripped = from_text(to_text(g));
    expect_structurally_equal(g, round_tripped);
    // A second trip is byte-stable: the format has one canonical rendering.
    EXPECT_EQ(to_text(g), to_text(round_tripped));
  }
}

TEST(HypergraphIo, RoundTripsEdgeCases) {
  {
    Builder b;  // vertices but no edges (isolated vertices must survive)
    b.add_vertices(5, 3);
    const auto g = b.build();
    const auto rt = from_text(to_text(g));
    expect_structurally_equal(g, rt);
    EXPECT_EQ(rt.num_edges(), 0u);
  }
  {
    const auto g = from_text("hypergraph 0 0\n");  // empty graph
    EXPECT_EQ(g.num_vertices(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
  }
  {
    Builder b;  // weights at the top of the supported range
    b.add_vertex(1);
    b.add_vertex(Weight{1} << 40);
    b.add_edge({0, 1});
    const auto rt = from_text(to_text(b.build()));
    EXPECT_EQ(rt.weight(1), Weight{1} << 40);
  }
}

TEST(HypergraphIo, StreamInterfaceMatchesStringInterface) {
  Builder b;  // edges with wide weights and a one-member edge
  b.add_vertices(12, Weight{1} << 40);
  b.add_edge({0, 11});
  b.add_edge({10});
  const Hypergraph graphs[] = {
      random_uniform(30, 60, 3, uniform_weights(9), 13),
      random_uniform(300, 900, 4, exponential_weights(40), 21),
      Builder{}.build(),
      b.build(),
  };
  for (const auto& g : graphs) {
    std::ostringstream os;
    write_text(os, g);
    EXPECT_EQ(os.str(), to_text(g));
    std::istringstream is(os.str());
    expect_structurally_equal(g, read_text(is));
  }
}

// The canonical rendering, byte for byte: an isolated vertex, weights at
// 1, 2^40 and INT64_MAX (the widest to_chars output), a one-member edge.
TEST(HypergraphIo, ToTextGoldenBytes) {
  Builder b;
  b.add_vertex(1);
  b.add_vertex(Weight{1} << 40);
  b.add_vertex(std::numeric_limits<Weight>::max());
  b.add_vertex(5);  // isolated
  b.add_edge({2});
  b.add_edge({0, 1, 2});
  EXPECT_EQ(to_text(b.build()),
            "hypergraph 4 2\n"
            "1 1099511627776 9223372036854775807 5\n"
            "1 2\n"
            "3 0 1 2\n");
}

TEST(HypergraphIo, ToTextGoldenBytesWithoutEdges) {
  EXPECT_EQ(to_text(Builder{}.build()), "hypergraph 0 0\n");
  Builder b;
  b.add_vertices(3, 7);
  EXPECT_EQ(to_text(b.build()), "hypergraph 3 0\n7 7 7\n");
}

// to_text sizes its buffer exactly: no slack beyond the allocator's own
// rounding (capacity within 1% of the size, plus the small-string buffer).
TEST(HypergraphIo, ToTextAllocatesExactSize) {
  const Hypergraph graphs[] = {
      random_uniform(2000, 6000, 3, exponential_weights(16), 22),
      hyper_star(40, 3, uniform_weights(1'000'000'007), 23),
      Builder{}.build(),
  };
  for (const auto& g : graphs) {
    const std::string text = to_text(g);
    EXPECT_LE(text.capacity(),
              text.size() + text.size() / 100 + std::string().capacity());
  }
}

TEST(HypergraphIo, SkipsCommentsAndToleratesWhitespace) {
  const std::string text =
      "# generated instance\n"
      "hypergraph 3 2   # n m\n"
      "  5 6 7\n"
      "# edges follow\n"
      "2 0 1\n"
      "2\t1 2\n";
  const auto g = from_text(text);
  ASSERT_EQ(g.num_vertices(), 3u);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.weight(0), 5);
  EXPECT_EQ(g.weight(2), 7);
  EXPECT_EQ(g.vertices_of(1)[0], 1u);
  EXPECT_EQ(g.vertices_of(1)[1], 2u);
}

TEST(HypergraphIo, RejectsMalformedInput) {
  // Missing header keyword.
  EXPECT_THROW((void)from_text("3 2\n1 1 1\n"), std::runtime_error);
  // Truncated weight list.
  EXPECT_THROW((void)from_text("hypergraph 3 0\n1 2\n"), std::runtime_error);
  // Non-integer token.
  EXPECT_THROW((void)from_text("hypergraph 2 0\n1 abc\n"), std::runtime_error);
  // Negative sizes.
  EXPECT_THROW((void)from_text("hypergraph -1 0\n"), std::runtime_error);
  // Edge size <= 0.
  EXPECT_THROW((void)from_text("hypergraph 2 1\n1 1\n0\n"), std::runtime_error);
  // Member out of range.
  EXPECT_THROW((void)from_text("hypergraph 2 1\n1 1\n2 0 5\n"),
               std::runtime_error);
  // Duplicate members are malformed *input*, rejected by the reader
  // itself (std::runtime_error) — the same contract the binary validator
  // enforces — not left for Builder's std::invalid_argument.
  EXPECT_THROW((void)from_text("hypergraph 2 1\n1 1\n2 0 0\n"),
               std::runtime_error);
  // Non-positive weight (paper requires w : V -> N+).
  EXPECT_THROW((void)from_text("hypergraph 1 0\n0\n"), std::runtime_error);
}

// Promoted from the text-reader fuzz harness (fuzz/fuzz_text_reader.cpp):
// a non-positive weight used to slip through the reader unvalidated and
// surface as Builder::build()'s std::invalid_argument — breaking the
// documented "throws std::runtime_error on malformed input" contract for
// anyone catching the documented type. The reader now rejects it itself.
TEST(HypergraphIo, FuzzRegressionNonPositiveWeightIsRuntimeError) {
  try {
    (void)from_text("hypergraph 2 1\n3 0\n2 0 1\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::invalid_argument&) {
    FAIL() << "std::invalid_argument leaked through the reader";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("weight"), std::string::npos) << what;
    EXPECT_NE(what.find('1'), std::string::npos) << what;  // vertex index
  }
  EXPECT_THROW((void)from_text("hypergraph 1 1\n-7\n1 0\n"),
               std::runtime_error);
}

TEST(HypergraphIo, RejectsDuplicateEdgeMembers) {
  // Adjacent duplicates, in both sorted and unsorted member order.
  EXPECT_THROW((void)from_text("hypergraph 3 1\n1 1 1\n3 0 1 1\n"),
               std::runtime_error);
  EXPECT_THROW((void)from_text("hypergraph 3 1\n1 1 1\n3 2 0 2\n"),
               std::runtime_error);
  // The error names the offending edge and vertex.
  try {
    (void)from_text("hypergraph 4 2\n1 1 1 1\n2 0 1\n3 3 2 3\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
    EXPECT_NE(what.find('1'), std::string::npos) << what;  // edge index 1
    EXPECT_NE(what.find('3'), std::string::npos) << what;  // vertex 3
  }
  // Distinct members stay accepted regardless of order.
  EXPECT_NO_THROW((void)from_text("hypergraph 3 1\n1 1 1\n3 2 0 1\n"));
}

TEST(HypergraphIo, RejectsTrailingTokensAfterLastEdge) {
  // A stray token after the complete graph used to be silently dropped,
  // hiding truncated headers and concatenated files.
  EXPECT_THROW((void)from_text("hypergraph 2 1\n1 1\n2 0 1\n7\n"),
               std::runtime_error);
  // A whole extra edge line is junk too (the header said m = 1).
  EXPECT_THROW((void)from_text("hypergraph 3 1\n1 1 1\n2 0 1\n2 1 2\n"),
               std::runtime_error);
  try {
    (void)from_text("hypergraph 2 1\n1 1\n2 0 1\njunk\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("junk"), std::string::npos)
        << e.what();
  }
  // Trailing comments and whitespace are NOT junk.
  EXPECT_NO_THROW((void)from_text("hypergraph 2 1\n1 1\n2 0 1\n# done\n\n  \n"));
}

TEST(HypergraphIo, RejectsNegativeWeights) {
  EXPECT_THROW((void)from_text("hypergraph 2 0\n5 -3\n"), std::runtime_error);
  EXPECT_THROW((void)from_text("hypergraph 1 1\n-1\n1 0\n"),
               std::runtime_error);
}

TEST(HypergraphIo, RejectsTruncatedInput) {
  // Header cut off after the vertex count.
  EXPECT_THROW((void)from_text("hypergraph 3\n"), std::runtime_error);
  // Edge line promises 3 members but the file ends after 2.
  EXPECT_THROW((void)from_text("hypergraph 4 1\n1 1 1 1\n3 0 1\n"),
               std::runtime_error);
  // Fewer edge lines than the header's edge count.
  EXPECT_THROW((void)from_text("hypergraph 3 2\n1 1 1\n2 0 1\n"),
               std::runtime_error);
  // Huge claimed counts with a truncated body must error out quickly
  // instead of allocating for the promise.
  EXPECT_THROW((void)from_text("hypergraph 4000000000 0\n1 1\n"),
               std::runtime_error);
  EXPECT_THROW((void)from_text("hypergraph 2 1\n1 1\n4000000000 0 1\n"),
               std::runtime_error);
}

TEST(HypergraphIo, RejectsMalformedNumbers) {
  // Integer overflowing std::int64_t.
  EXPECT_THROW((void)from_text("hypergraph 1 0\n99999999999999999999999\n"),
               std::runtime_error);
  // Trailing garbage fused onto a number ("12x" is not an integer).
  EXPECT_THROW((void)from_text("hypergraph 2 0\n12x 5\n"),
               std::runtime_error);
  // Floating-point weight (format is integral).
  EXPECT_THROW((void)from_text("hypergraph 1 0\n1.5\n"), std::runtime_error);
  // Negative edge member.
  EXPECT_THROW((void)from_text("hypergraph 2 1\n1 1\n2 0 -1\n"),
               std::runtime_error);
}

TEST(HypergraphIo, ErrorMessagesNameTheOffendingField) {
  try {
    (void)from_text("hypergraph 3 0\n1 2\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("weight"), std::string::npos)
        << e.what();
  }
  try {
    (void)from_text("hypergraph 2 1\n1 1\n2 0\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("edge member"), std::string::npos)
        << e.what();
  }
}

// The reader's token language, pinned case by case: what std::stoll
// accepted on a whole whitespace-separated token is what is accepted.

/// The runtime_error message from_text(text) throws, or "" if it parses.
std::string read_error(std::string_view text) {
  try {
    (void)from_text(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(HypergraphIoTokens, LeadingPlusIsAccepted) {
  const auto g = from_text("hypergraph +2 +1\n+3 +4\n+2 +0 +1\n");
  ASSERT_EQ(g.num_vertices(), 2u);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.weight(0), 3);
  EXPECT_EQ(g.weight(1), 4);
  EXPECT_EQ(to_text(g), "hypergraph 2 1\n3 4\n2 0 1\n");
  // One sign only, and '+' never before '-'.
  EXPECT_EQ(read_error("hypergraph 1 0\n++5\n"),
            "hypergraph read: bad integer '++5' for weight");
  EXPECT_EQ(read_error("hypergraph 1 0\n+-5\n"),
            "hypergraph read: bad integer '+-5' for weight");
  EXPECT_EQ(read_error("hypergraph 1 0\n+\n"),
            "hypergraph read: bad integer '+' for weight");
  EXPECT_EQ(read_error("hypergraph 1 0\n-\n"),
            "hypergraph read: bad integer '-' for weight");
}

TEST(HypergraphIoTokens, EveryCLocaleWhitespaceSeparates) {
  const std::string canonical = "hypergraph 3 2\n5 6 7\n2 0 1\n2 1 2\n";
  for (const char sep : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    std::string text = canonical;
    for (char& c : text) {
      if (c == ' ' || c == '\n') c = sep;
    }
    const auto g = from_text(text);
    EXPECT_EQ(to_text(g), canonical) << "separator " << int{sep};
  }
  // CRLF line ends read like LF ones.
  std::string crlf;
  for (const char c : canonical) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(to_text(from_text(crlf)), canonical);
}

TEST(HypergraphIoTokens, HashTokenDropsTheRestOfItsLine) {
  // Mid-line: "9 9" after the comment token is not read.
  EXPECT_EQ(to_text(from_text("hypergraph 2 1 #comment 9 9\n1 1\n2 0 1\n")),
            "hypergraph 2 1\n1 1\n2 0 1\n");
  // A bare '#' token works the same way.
  EXPECT_EQ(to_text(from_text("hypergraph 1 0 # 5\n4\n")),
            "hypergraph 1 0\n4\n");
  // At the end of input with no newline, in its own token or line.
  EXPECT_EQ(read_error("hypergraph 2 1\n1 1\n2 0 1\n# end"), "");
  EXPECT_EQ(read_error("hypergraph 2 1\n1 1\n2 0 1 #end"), "");
  EXPECT_EQ(read_error("hypergraph 2 1\n1 1\n2 0 1 #"), "");
  // Only '\n' ends a comment: a lone '\r' does not.
  EXPECT_EQ(read_error("hypergraph 1 0 #x\r7\n4\n"), "");
  EXPECT_EQ(from_text("hypergraph 1 0 #x\r7\n4\n").weight(0), 4);
  // '#' inside a token is not a comment.
  EXPECT_EQ(read_error("hypergraph 1 0\n1#\n"),
            "hypergraph read: bad integer '1#' for weight");
  EXPECT_EQ(read_error("hypergraph# 1 0\n1\n"),
            "hypergraph read: missing 'hypergraph' header");
}

TEST(HypergraphIoTokens, Int64RangeIsExact) {
  const auto g = from_text("hypergraph 1 0\n9223372036854775807\n");
  EXPECT_EQ(g.weight(0), std::numeric_limits<Weight>::max());
  // 2^63 overflows, signed or not.
  EXPECT_EQ(read_error("hypergraph 1 0\n9223372036854775808\n"),
            "hypergraph read: bad integer '9223372036854775808' for weight");
  EXPECT_EQ(read_error("hypergraph 1 0\n+9223372036854775808\n"),
            "hypergraph read: bad integer '+9223372036854775808' for weight");
  // 20-digit values are out of range.
  EXPECT_EQ(read_error("hypergraph 1 0\n18446744073709551616\n"),
            "hypergraph read: bad integer '18446744073709551616' for weight");
  EXPECT_EQ(read_error("hypergraph 1 0\n99999999999999999999\n"),
            "hypergraph read: bad integer '99999999999999999999' for weight");
  // INT64_MIN parses, and is then rejected as a weight, not as a token.
  EXPECT_EQ(read_error("hypergraph 1 0\n-9223372036854775808\n"),
            "hypergraph read: weight -9223372036854775808 of vertex 0 is "
            "not positive");
  // Leading zeros do not count against the range.
  EXPECT_EQ(from_text("hypergraph 1 0\n000000000000000000000007\n").weight(0),
            7);
}

TEST(HypergraphIoTokens, EmbeddedNulIsRejected) {
  using namespace std::string_view_literals;
  // NUL is not whitespace, so it joins the token around it. The message
  // quotes that token, so what() (a C string) ends at the NUL.
  EXPECT_EQ(read_error("hypergraph 1 0\n5\0\n"sv),
            "hypergraph read: bad integer '5");
  EXPECT_EQ(read_error("hypergraph 1 0\n\0\n"sv),
            "hypergraph read: bad integer '");
  EXPECT_EQ(read_error("hypergraph 1 0\n5\n\0"sv),
            "hypergraph read: trailing token '");
  EXPECT_EQ(read_error("hypergraph\0 1 0\n5\n"sv),
            "hypergraph read: missing 'hypergraph' header");
  // Inside a comment it is dropped with the rest of the line.
  EXPECT_EQ(read_error("hypergraph 1 0\n5 #\0\n"sv), "");
}

TEST(HypergraphIoTokens, ErrorMessagesAreUnchanged) {
  EXPECT_EQ(read_error("hypergraph 2 0\n12x 5\n"),
            "hypergraph read: bad integer '12x' for weight");
  EXPECT_EQ(read_error("hypergraph 1 0\n1.5\n"),
            "hypergraph read: bad integer '1.5' for weight");
  EXPECT_EQ(read_error("hypergraph 1 0\n0x10\n"),
            "hypergraph read: bad integer '0x10' for weight");
  EXPECT_EQ(read_error("hypergraph x 0\n"),
            "hypergraph read: bad integer 'x' for vertex count");
  EXPECT_EQ(read_error("hypergraph 1 y\n"),
            "hypergraph read: bad integer 'y' for edge count");
  EXPECT_EQ(read_error("hypergraph 2 1\n1 1\nz\n"),
            "hypergraph read: bad integer 'z' for edge size");
  EXPECT_EQ(read_error("hypergraph 2 1\n1 1\n2 0 q\n"),
            "hypergraph read: bad integer 'q' for edge member");
  EXPECT_EQ(read_error(""), "hypergraph read: missing 'hypergraph' header");
  EXPECT_EQ(read_error("hypergraph 3"),
            "hypergraph read: missing edge count");
  EXPECT_EQ(read_error("hypergraph 3 0\n1 2\n"),
            "hypergraph read: missing weight");
  EXPECT_EQ(read_error("hypergraph -1 0\n"), "hypergraph read: negative size");
  EXPECT_EQ(read_error("hypergraph 2 1\n1 1\n0\n"),
            "hypergraph read: edge size <= 0");
  EXPECT_EQ(read_error("hypergraph 2 1\n1 1\n2 0 5\n"),
            "hypergraph read: member out of range");
  EXPECT_EQ(read_error("hypergraph 4 1\n1 1 1 1\n4 3 1 3 1\n"),
            "hypergraph read: edge 0 has duplicate vertex 1");
  EXPECT_EQ(read_error("hypergraph 2 1\n1 1\n2 0 1\njunk\n"),
            "hypergraph read: trailing token 'junk' after the last edge");
}

/// A stream buffer that cannot seek and hands out a few bytes per
/// underflow, like a pipe.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string text) : text_(std::move(text)) {}

 protected:
  int_type underflow() override {
    if (gptr() != egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ == text_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(3, text_.size() - pos_);
    char* p = text_.data() + pos_;
    pos_ += n;
    setg(p, p, p + n);
    return traits_type::to_int_type(*p);
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
};

TEST(HypergraphIo, ReadTextReadsWhatIsLeftOfAnyStream) {
  const Hypergraph g = random_uniform(200, 500, 3, exponential_weights(30), 5);
  const std::string text = to_text(g);
  {  // A pipe-like buffer that cannot seek.
    TrickleBuf buf(text);
    std::istream is(&buf);
    EXPECT_EQ(to_text(read_text(is)), text);
    EXPECT_TRUE(is.eof());
  }
  {  // A prefix already consumed by the caller.
    std::istringstream is("prefix " + text);
    std::string word;
    is >> word;
    EXPECT_EQ(to_text(read_text(is)), text);
    EXPECT_TRUE(is.eof());
  }
  {  // A failed stream reads as empty input.
    std::istringstream is(text);
    is.setstate(std::ios::failbit);
    EXPECT_THROW((void)read_text(is), std::runtime_error);
  }
}

}  // namespace
}  // namespace hypercover::hg
