#include "hypergraph/io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/hgb_image.hpp"
#include "util/digest.hpp"

namespace hypercover::hg {

namespace {

/// C-locale whitespace: space, \t, \n, \v, \f and \r.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Tokens of the text format: runs of non-whitespace bytes, where a token
/// that starts with '#' drops the rest of its line.
class Scanner {
 public:
  explicit Scanner(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// The next token, or an empty view at end of input.
  std::string_view next() {
    for (;;) {
      while (p_ != end_ && is_space(*p_)) ++p_;
      if (p_ == end_ || *p_ != '#') break;
      const void* const nl =
          std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
      p_ = nl == nullptr ? end_ : static_cast<const char*>(nl) + 1;
    }
    const char* const start = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// The next token as a decimal std::int64_t: an optional '+' or '-'
  /// and digits, the whole token and nothing else.
  std::int64_t next_int(const char* what) {
    const std::string_view tok = next();
    if (tok.empty()) {
      throw std::runtime_error(std::string("hypergraph read: missing ") + what);
    }
    const char* first = tok.data();
    const char* const last = first + tok.size();
    // from_chars takes '-' but not '+'; a '+' may not precede a '-'.
    if (*first == '+' && last - first > 1 && first[1] != '-') ++first;
    std::int64_t v = 0;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last) {
      throw std::runtime_error(std::string("hypergraph read: bad integer '") +
                               std::string(tok) + "' for " + what);
    }
    return v;
  }

  /// Bytes not yet scanned.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  const char* p_;
  const char* end_;
};

constexpr std::string_view kHeader = "hypergraph ";

constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 20> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

/// Decimal digits of `v`. The bit width gives floor(log10) or one less
/// (1233 / 4096 ~ log10(2)) and one table compare settles which. `v | 1`
/// maps 0 to 1 and moves no other value across a power of ten (every
/// power above 1 is even).
std::size_t decimal_len(std::uint64_t v) {
  const std::uint64_t x = v | 1;
  const auto t = static_cast<std::size_t>(std::bit_width(x) * 1233) >> 12;
  return t + (x >= kPow10[t] ? 1 : 0);
}

std::size_t decimal_len(std::int64_t v) {
  return v < 0 ? 1 + decimal_len(0 - static_cast<std::uint64_t>(v))
               : decimal_len(static_cast<std::uint64_t>(v));
}

std::size_t decimal_len(std::uint32_t v) {
  return decimal_len(std::uint64_t{v});
}

/// What one scan of a text leaves: the edge side of the graph, each edge
/// sorted, with its degree histogram, rank and digest.
struct TextScan {
  std::vector<Weight> weights;
  std::vector<Offset> edge_offsets{0};
  std::vector<VertexId> edge_vertices;
  std::vector<std::uint32_t> degree;
  std::uint32_t rank = 0;
  std::uint64_t digest = 0;
};

/// The reader's one pass over `text`: every check of the format, in input
/// order, with its error message.
TextScan scan_text(std::string_view text) {
  Scanner in(text);
  if (in.next() != "hypergraph") {
    throw std::runtime_error("hypergraph read: missing 'hypergraph' header");
  }
  const auto n = in.next_int("vertex count");
  const auto m = in.next_int("edge count");
  if (n < 0 || m < 0) throw std::runtime_error("hypergraph read: negative size");

  // Every weight, edge and member takes at least two bytes of text (one
  // digit and a separator) but the very last, so no reservation below
  // exceeds what the text can hold, whatever the header claims.
  const auto text_bound = [&](std::int64_t count) {
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(count), in.remaining() / 2 + 1));
  };
  TextScan s;
  util::GraphDigest digest(static_cast<std::uint64_t>(n),
                           static_cast<std::uint64_t>(m));
  s.weights.reserve(text_bound(n));
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t w = in.next_int("weight");
    // Malformed *input* is std::runtime_error; std::invalid_argument is
    // Builder's programmatic-API error. (Found by the text-reader fuzz
    // harness, which treats any non-runtime_error escape as a contract
    // violation.)
    if (w <= 0) {
      throw std::runtime_error("hypergraph read: weight " + std::to_string(w) +
                               " of vertex " + std::to_string(v) +
                               " is not positive");
    }
    s.weights.push_back(w);
    digest.weight(w);
  }
  // All n weights were read, so n is bounded by the text now.
  s.degree.assign(static_cast<std::size_t>(n), 0);
  s.edge_offsets.reserve(text_bound(m) + 1);
  s.edge_vertices.reserve(in.remaining() / 2 + 1);
  for (std::int64_t e = 0; e < m; ++e) {
    const auto k = in.next_int("edge size");
    if (k <= 0) throw std::runtime_error("hypergraph read: edge size <= 0");
    const std::size_t first = s.edge_vertices.size();
    for (std::int64_t i = 0; i < k; ++i) {
      const auto v = in.next_int("edge member");
      if (v < 0 || v >= n) {
        throw std::runtime_error("hypergraph read: member out of range");
      }
      s.edge_vertices.push_back(static_cast<VertexId>(v));
    }
    const std::span<VertexId> members(s.edge_vertices.data() + first,
                                      static_cast<std::size_t>(k));
    // A duplicate member is malformed input, rejected here with the
    // contract the binary validator enforces.
    std::sort(members.begin(), members.end());
    const auto dup = std::adjacent_find(members.begin(), members.end());
    if (dup != members.end()) {
      throw std::runtime_error("hypergraph read: edge " + std::to_string(e) +
                               " has duplicate vertex " +
                               std::to_string(*dup));
    }
    for (const VertexId v : members) ++s.degree[v];
    s.rank = std::max(s.rank, static_cast<std::uint32_t>(k));
    digest.edge(members);
    s.edge_offsets.push_back(s.edge_vertices.size());
  }
  // A complete graph must be followed by end-of-input (comments aside):
  // trailing tokens mean a malformed or truncated-header instance, and
  // silently ignoring them used to mask exactly that.
  const std::string_view trailing = in.next();
  if (!trailing.empty()) {
    throw std::runtime_error("hypergraph read: trailing token '" +
                             std::string(trailing) + "' after the last edge");
  }
  s.digest = digest.value();
  return s;
}

}  // namespace

void write_text(std::ostream& os, const Hypergraph& g) {
  const std::string text = to_text(g);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

HgbInfo append_text_binary(std::vector<std::uint8_t>& out,
                           std::string_view text) {
  const TextScan s = scan_text(text);
  return detail::append_image(out, {s.weights, s.edge_offsets,
                                    s.edge_vertices, s.degree, s.rank,
                                    s.digest});
}

Hypergraph from_text(std::string_view text, HgbInfo* info) {
  auto image = std::make_shared<std::vector<std::uint8_t>>();
  const HgbInfo header = append_text_binary(*image, text);
  if (info != nullptr) *info = header;
  return detail::adopt_image(std::move(image));
}

Hypergraph read_text(std::istream& is) {
  std::string text;
  if (const std::istream::sentry ok(is, /*noskipws=*/true); ok) {
    std::ostringstream buf;
    buf << is.rdbuf();
    text = std::move(buf).str();
  }
  is.setstate(std::ios::eofbit);
  return from_text(text);
}

std::string to_text(const Hypergraph& g) {
  const std::uint32_t n = g.num_vertices();
  const std::uint32_t m = g.num_edges();

  // Pass 1: the exact rendered length, so the text lands in one
  // allocation with no slack.
  std::size_t size = kHeader.size() + decimal_len(n) + 1 + decimal_len(m) + 1;
  for (const Weight w : g.weights()) size += decimal_len(w) + 1;
  for (EdgeId e = 0; e < m; ++e) {
    const auto members = g.vertices_of(e);
    size += decimal_len(members.size()) + 1;  // count and newline
    for (const VertexId v : members) size += 1 + decimal_len(v);
  }

  // Pass 2: render into exactly that many bytes.
  std::string text(size, '\0');
  char* p = text.data();
  char* const end = p + size;
  const auto put = [&](auto value) { p = std::to_chars(p, end, value).ptr; };
  p = std::copy(kHeader.begin(), kHeader.end(), p);
  put(n);
  *p++ = ' ';
  put(m);
  *p++ = '\n';
  for (VertexId v = 0; v < n; ++v) {
    put(g.weight(v));
    *p++ = v + 1 == n ? '\n' : ' ';
  }
  for (EdgeId e = 0; e < m; ++e) {
    const auto members = g.vertices_of(e);
    put(members.size());
    for (const VertexId v : members) {
      *p++ = ' ';
      put(v);
    }
    *p++ = '\n';
  }
  assert(p == end);
  return text;
}

}  // namespace hypercover::hg
