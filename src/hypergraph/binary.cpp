#include "hypergraph/binary.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>

#include "hypergraph/hgb_image.hpp"
#include "util/digest.hpp"

// The format stores raw little-endian arrays and adoption reads them in
// place, so a big-endian host would need byte-swapping copies that this
// zero-copy path deliberately does not have.
static_assert(std::endian::native == std::endian::little,
              "hgb adoption requires a little-endian host");
static_assert(sizeof(hypercover::hg::Weight) == 8 &&
                  sizeof(hypercover::hg::Offset) == 8 &&
                  sizeof(hypercover::hg::VertexId) == 4 &&
                  sizeof(hypercover::hg::EdgeId) == 4,
              "hgb layout is fixed-width; core typedefs must match");

namespace hypercover::hg {

namespace detail {

/// binary.cpp's private door into Hypergraph: installs validated storage
/// (owned vectors or adopted spans) without re-running Builder.
struct HypergraphStorageAccess {
  struct Arrays {
    std::span<const Weight> weights;
    std::span<const Offset> vertex_offsets;
    std::span<const EdgeId> vertex_edges;
    std::span<const Offset> edge_offsets;
    std::span<const VertexId> edge_vertices;
    std::span<const std::uint32_t> local_max_degree;
    std::uint32_t rank = 0;
    std::uint32_t max_degree = 0;
    std::uint32_t max_local_degree = 0;
  };

  static Hypergraph adopt(const Arrays& a,
                          std::shared_ptr<const void> storage) {
    Hypergraph g;
    g.weights_ = a.weights;
    g.vertex_offsets_ = a.vertex_offsets;
    g.vertex_edges_ = a.vertex_edges;
    g.edge_offsets_ = a.edge_offsets;
    g.edge_vertices_ = a.edge_vertices;
    g.local_max_degree_ = a.local_max_degree;
    g.rank_ = a.rank;
    g.max_degree_ = a.max_degree;
    g.max_local_degree_ = a.max_local_degree;
    g.storage_ = std::move(storage);
    return g;
  }

  /// Every array and derived scalar of `g`, as it stores them.
  static Arrays view(const Hypergraph& g) {
    return {g.weights_,        g.vertex_offsets_, g.vertex_edges_,
            g.edge_offsets_,   g.edge_vertices_,  g.local_max_degree_,
            g.rank_,           g.max_degree_,     g.max_local_degree_};
  }

  static Hypergraph own(const Arrays& a) {
    Hypergraph g;
    g.own_weights_.assign(a.weights.begin(), a.weights.end());
    g.own_vertex_offsets_.assign(a.vertex_offsets.begin(),
                                 a.vertex_offsets.end());
    g.own_vertex_edges_.assign(a.vertex_edges.begin(), a.vertex_edges.end());
    g.own_edge_offsets_.assign(a.edge_offsets.begin(), a.edge_offsets.end());
    g.own_edge_vertices_.assign(a.edge_vertices.begin(),
                                a.edge_vertices.end());
    g.own_local_max_degree_.assign(a.local_max_degree.begin(),
                                   a.local_max_degree.end());
    g.rank_ = a.rank;
    g.max_degree_ = a.max_degree;
    g.max_local_degree_ = a.max_local_degree;
    g.rebind();
    return g;
  }
};

}  // namespace detail

namespace {

using Arrays = detail::HypergraphStorageAccess::Arrays;

[[noreturn]] void fail(const std::string& what) {
  throw BinaryFormatError("hgb: " + what);
}

constexpr std::size_t pad8(std::size_t x) noexcept { return (x + 7) & ~std::size_t{7}; }

// Header field offsets (see binary.hpp layout table).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffFlags = 12;
constexpr std::size_t kOffN = 16;
constexpr std::size_t kOffM = 20;
constexpr std::size_t kOffIncidences = 24;
constexpr std::size_t kOffDigest = 32;
constexpr std::size_t kOffRank = 40;
constexpr std::size_t kOffMaxDegree = 44;
constexpr std::size_t kOffMaxLocalDegree = 48;
constexpr std::size_t kOffHeaderBytes = 52;
constexpr std::size_t kOffFileBytes = 56;

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// Byte offset of every section for the given shape. All sections start
/// 8-aligned; u32 sections are padded. Caller must have bounded n/m/inc
/// against the real buffer size first, so none of this can overflow.
struct Layout {
  std::size_t weights, vertex_offsets, edge_offsets, vertex_edges,
      edge_vertices, local_max_degree, total;
};

Layout layout_for(std::uint64_t n, std::uint64_t m,
                  std::uint64_t incidences) noexcept {
  Layout l{};
  l.weights = kHgbHeaderBytes;
  l.vertex_offsets = l.weights + n * 8;
  l.edge_offsets = l.vertex_offsets + (n + 1) * 8;
  l.vertex_edges = l.edge_offsets + (m + 1) * 8;
  l.edge_vertices = l.vertex_edges + pad8(incidences * 4);
  l.local_max_degree = l.edge_vertices + pad8(incidences * 4);
  l.total = l.local_max_degree + pad8(m * 4);
  return l;
}

template <typename T>
std::span<const T> section(const std::uint8_t* base, std::size_t off,
                           std::size_t count) noexcept {
  return {reinterpret_cast<const T*>(base + off), count};
}

template <typename T>
std::span<T> writable_section(std::uint8_t* base, std::size_t off,
                              std::size_t count) noexcept {
  return {reinterpret_cast<T*>(base + off), count};
}

/// The header fields HgbInfo carries, read without any check.
HgbInfo load_header(const std::uint8_t* base) noexcept {
  HgbInfo info;
  info.version = load_u32(base + kOffVersion);
  info.n = load_u32(base + kOffN);
  info.m = load_u32(base + kOffM);
  info.incidences = load_u64(base + kOffIncidences);
  info.graph_digest = load_u64(base + kOffDigest);
  info.file_bytes = load_u64(base + kOffFileBytes);
  return info;
}

/// Spans over every section of an 8-aligned image with header `info`,
/// and the derived scalars as the header states them. The caller has
/// proven the layout fits the buffer.
Arrays sections(const std::uint8_t* base, const HgbInfo& info) noexcept {
  const Layout l = layout_for(info.n, info.m, info.incidences);
  Arrays a;
  a.weights = section<Weight>(base, l.weights, info.n);
  a.vertex_offsets = section<Offset>(base, l.vertex_offsets, info.n + 1);
  a.edge_offsets = section<Offset>(base, l.edge_offsets, info.m + 1);
  a.vertex_edges = section<EdgeId>(base, l.vertex_edges, info.incidences);
  a.edge_vertices = section<VertexId>(base, l.edge_vertices, info.incidences);
  a.local_max_degree =
      section<std::uint32_t>(base, l.local_max_degree, info.m);
  a.rank = load_u32(base + kOffRank);
  a.max_degree = load_u32(base + kOffMaxDegree);
  a.max_local_degree = load_u32(base + kOffMaxLocalDegree);
  return a;
}

/// Grows `out` by `bytes` zero bytes (so padding is zero) and returns
/// where they start.
std::uint8_t* grow_zeroed(std::vector<std::uint8_t>& out, std::size_t bytes) {
  const std::size_t start = out.size();
  out.resize(start + bytes, 0);
  return out.data() + start;
}

/// Copies `span` to `dst` (unaligned is fine).
template <typename T>
void put_section(std::uint8_t* dst, std::span<const T> span) noexcept {
  if (!span.empty()) std::memcpy(dst, span.data(), span.size_bytes());
}

/// Writes the 64-byte header of an image whose sections are in place.
void store_header(std::uint8_t* base, std::uint64_t n, std::uint64_t m,
                  std::uint64_t incidences, std::uint64_t digest,
                  std::uint32_t rank, std::uint32_t max_degree,
                  std::uint32_t max_local_degree) noexcept {
  store_u64(base + kOffMagic, kHgbMagic);
  store_u32(base + kOffVersion, kHgbVersion);
  store_u32(base + kOffFlags, 0);
  store_u32(base + kOffN, static_cast<std::uint32_t>(n));
  store_u32(base + kOffM, static_cast<std::uint32_t>(m));
  store_u64(base + kOffIncidences, incidences);
  store_u64(base + kOffDigest, digest);
  store_u32(base + kOffRank, rank);
  store_u32(base + kOffMaxDegree, max_degree);
  store_u32(base + kOffMaxLocalDegree, max_local_degree);
  store_u32(base + kOffHeaderBytes, kHgbHeaderBytes);
  store_u64(base + kOffFileBytes, layout_for(n, m, incidences).total);
}

/// The full validation sweep over an 8-aligned buffer. Returns the header
/// plus spans into `bytes` for every section — the caller decides whether
/// to adopt them in place or copy them out.
std::pair<HgbInfo, Arrays> parse_and_validate(
    std::span<const std::uint8_t> bytes) {
  const std::uint8_t* base = bytes.data();
  if (bytes.size() < kHgbHeaderBytes) fail("truncated: no complete header");
  if (load_u64(base + kOffMagic) != kHgbMagic) {
    fail("bad magic (not an hgb file, or mangled in transfer)");
  }
  const HgbInfo info = load_header(base);
  if (info.version != kHgbVersion) {
    fail("unsupported version " + std::to_string(info.version));
  }
  if (const auto flags = load_u32(base + kOffFlags); flags != 0) {
    fail("unsupported flags " + std::to_string(flags));
  }
  if (load_u32(base + kOffHeaderBytes) != kHgbHeaderBytes) {
    fail("bad header size field");
  }
  if (info.file_bytes != bytes.size()) {
    fail("file size field " + std::to_string(info.file_bytes) +
         " != buffer size " + std::to_string(bytes.size()));
  }
  // Coarse bounds before any layout arithmetic: every vertex costs >= 8
  // bytes, every edge >= 8, every incidence >= 8 (4 per CSR direction),
  // so any count exceeding the buffer size is invalid — and afterwards
  // all layout products fit comfortably in 64 bits.
  if (info.n > bytes.size() || info.m > bytes.size() ||
      info.incidences > bytes.size()) {
    fail("header counts exceed buffer size");
  }
  const Layout l = layout_for(info.n, info.m, info.incidences);
  if (l.total != bytes.size()) {
    fail("section layout wants " + std::to_string(l.total) +
         " bytes, buffer has " + std::to_string(bytes.size()));
  }

  const Arrays a = sections(base, info);
  for (std::uint32_t v = 0; v < info.n; ++v) {
    if (a.weights[v] <= 0) {
      fail("vertex " + std::to_string(v) + " has non-positive weight");
    }
  }

  // Edge-side CSR: offsets strictly increasing from 0 (edges non-empty),
  // members strictly ascending and in range; recompute the degree
  // histogram and rank along the way.
  if (a.edge_offsets[0] != 0) fail("edge offsets must start at 0");
  if (a.edge_offsets[info.m] != info.incidences) {
    fail("edge offsets do not end at the incidence count");
  }
  std::vector<std::uint32_t> degree(info.n, 0);
  std::uint32_t rank = 0;
  for (std::uint32_t e = 0; e < info.m; ++e) {
    const Offset lo = a.edge_offsets[e], hi = a.edge_offsets[e + 1];
    if (hi <= lo) fail("edge " + std::to_string(e) + " is empty or offsets decrease");
    if (hi > info.incidences) fail("edge offsets exceed incidence count");
    for (Offset k = lo; k < hi; ++k) {
      const VertexId v = a.edge_vertices[k];
      if (v >= info.n) {
        fail("edge " + std::to_string(e) + " references vertex out of range");
      }
      if (k > lo && a.edge_vertices[k - 1] >= v) {
        fail("edge " + std::to_string(e) +
             " members not strictly ascending (duplicate or unsorted)");
      }
      ++degree[v];
    }
    rank = std::max(rank, static_cast<std::uint32_t>(hi - lo));
  }
  if (a.rank != rank) fail("header rank does not match edges");

  // Vertex-side CSR offsets must be the prefix sums of the histogram.
  if (a.vertex_offsets[0] != 0) fail("vertex offsets must start at 0");
  std::uint32_t max_degree = 0;
  for (std::uint32_t v = 0; v < info.n; ++v) {
    if (a.vertex_offsets[v + 1] - a.vertex_offsets[v] != degree[v]) {
      fail("vertex " + std::to_string(v) +
           " offset range does not match its degree");
    }
    max_degree = std::max(max_degree, degree[v]);
  }
  if (a.vertex_offsets[info.n] != info.incidences) {
    fail("vertex offsets do not end at the incidence count");
  }
  if (a.max_degree != max_degree) fail("header max degree does not match");

  // vertex_edges must be exactly the transpose Builder::build() emits:
  // walking edges in order and bumping a per-vertex cursor must land on
  // the stored edge id every time (this also proves each list is sorted).
  std::vector<Offset> cursor(a.vertex_offsets.begin(),
                             a.vertex_offsets.begin() + info.n);
  for (std::uint32_t e = 0; e < info.m; ++e) {
    for (Offset k = a.edge_offsets[e]; k < a.edge_offsets[e + 1]; ++k) {
      const VertexId v = a.edge_vertices[k];
      if (a.vertex_edges[cursor[v]] != e) {
        fail("vertex->edge CSR is not the transpose of edge->vertex");
      }
      ++cursor[v];
    }
  }

  // Local max-degree table and its max.
  std::uint32_t max_local = 0;
  for (std::uint32_t e = 0; e < info.m; ++e) {
    std::uint32_t best = 0;
    for (Offset k = a.edge_offsets[e]; k < a.edge_offsets[e + 1]; ++k) {
      best = std::max(best, degree[a.edge_vertices[k]]);
    }
    if (a.local_max_degree[e] != best) {
      fail("local max degree table wrong at edge " + std::to_string(e));
    }
    max_local = std::max(max_local, best);
  }
  if (a.max_local_degree != max_local) {
    fail("header max local degree does not match");
  }

  // Padding must be zero: the format has exactly one encoding per graph,
  // so equal graphs give byte-identical files.
  const auto check_pad = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      if (base[i] != 0) fail("nonzero padding byte");
    }
  };
  check_pad(l.vertex_edges + info.incidences * 4, l.edge_vertices);
  check_pad(l.edge_vertices + info.incidences * 4, l.local_max_degree);
  check_pad(l.local_max_degree + info.m * 4, l.total);

  // Finally the content digest: adopt the (already structurally proven)
  // arrays behind a no-op keepalive and run the canonical graph_digest.
  const Hypergraph probe = detail::HypergraphStorageAccess::adopt(
      a, std::shared_ptr<const void>(static_cast<const void*>(base),
                                     [](const void*) {}));
  if (const auto d = util::graph_digest(probe); d != info.graph_digest) {
    fail("graph digest mismatch: header says 0x... content hashes differently");
  }
  return {info, a};
}

/// True when the base pointer satisfies the u64-section alignment the
/// in-place spans need.
bool aligned8(const std::uint8_t* p) noexcept {
  // [[hypercover::nondet_ok: alignment probe only — the address is
  //    reduced mod 8 to pick copy-vs-adopt; both paths validate and
  //    yield the same graph, and the value is never stored or ordered.]]
  return reinterpret_cast<std::uintptr_t>(p) % 8 == 0;
}

}  // namespace

std::vector<std::uint8_t> write_binary(const Hypergraph& g) {
  std::vector<std::uint8_t> out;
  append_binary(out, g);
  return out;
}

void append_binary(std::vector<std::uint8_t>& out, const Hypergraph& g) {
  const Arrays a = detail::HypergraphStorageAccess::view(g);
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  const std::uint64_t inc = g.num_incidences();
  const Layout l = layout_for(n, m, inc);
  std::uint8_t* const base = grow_zeroed(out, l.total);
  // The graph's arrays are the sections. A default-constructed graph has
  // no offset arrays at all; the zero fill supplies their single 0.
  put_section(base + l.weights, a.weights);
  put_section(base + l.vertex_offsets, a.vertex_offsets);
  put_section(base + l.edge_offsets, a.edge_offsets);
  put_section(base + l.vertex_edges, a.vertex_edges);
  put_section(base + l.edge_vertices, a.edge_vertices);
  put_section(base + l.local_max_degree, a.local_max_degree);
  store_header(base, n, m, inc, util::graph_digest(g), a.rank, a.max_degree,
               a.max_local_degree);
}

void write_binary_file(const std::string& path, const Hypergraph& g) {
  const auto bytes = write_binary(g);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) fail("cannot open '" + path + "' for writing");
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os) fail("short write to '" + path + "'");
}

bool looks_like_binary(std::span<const std::uint8_t> bytes) noexcept {
  return bytes.size() >= 8 && load_u64(bytes.data()) == kHgbMagic;
}

HgbInfo validate_binary(std::span<const std::uint8_t> bytes) {
  if (aligned8(bytes.data())) return parse_and_validate(bytes).first;
  // Unaligned caller buffer (e.g. a span into the middle of a frame):
  // validate an aligned copy — operator new guarantees 8-byte alignment.
  const std::vector<std::uint8_t> copy(bytes.begin(), bytes.end());
  return parse_and_validate(copy).first;
}

Hypergraph read_binary(std::span<const std::uint8_t> bytes) {
  if (aligned8(bytes.data())) {
    return detail::HypergraphStorageAccess::own(
        parse_and_validate(bytes).second);
  }
  const std::vector<std::uint8_t> copy(bytes.begin(), bytes.end());
  return detail::HypergraphStorageAccess::own(parse_and_validate(copy).second);
}

Hypergraph adopt_binary(std::span<const std::uint8_t> bytes,
                        std::shared_ptr<const void> keepalive, HgbInfo* info) {
  if (!aligned8(bytes.data())) {
    fail("adopt requires an 8-byte aligned buffer (use read_binary to copy)");
  }
  const auto [header, arrays] = parse_and_validate(bytes);
  if (info != nullptr) *info = header;
  return detail::HypergraphStorageAccess::adopt(arrays, std::move(keepalive));
}

Hypergraph map_file(const std::string& path, HgbInfo* info) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail("cannot open '" + path + "': " + std::strerror(errno));
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    const int err = errno;
    ::close(fd);
    fail("cannot stat '" + path + "': " + std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHgbHeaderBytes) {
    ::close(fd);
    fail("'" + path + "' is too small to be an hgb file");
  }
  void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the file
  if (mem == MAP_FAILED) {
    fail("mmap of '" + path + "' failed: " + std::strerror(errno));
  }
  std::shared_ptr<const void> keepalive(
      mem, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
  try {
    return adopt_binary({static_cast<const std::uint8_t*>(mem), size},
                        std::move(keepalive), info);
  } catch (const BinaryFormatError& e) {
    throw BinaryFormatError(std::string(e.what()) + " (file '" + path + "')");
  }
}

namespace detail {

HgbInfo append_image(std::vector<std::uint8_t>& out, const EdgeSide& s) {
  const std::uint64_t n = s.weights.size();
  const std::uint64_t m = s.edge_offsets.size() - 1;
  const std::uint64_t inc = s.edge_vertices.size();
  const Layout l = layout_for(n, m, inc);
  // The sections are written as typed arrays, so the image is laid out at
  // the first 8-aligned offset past the end of `out` (operator new aligns
  // the buffer itself) and moved down afterwards if that skipped bytes.
  const std::size_t start = out.size();
  const std::size_t pad = (8 - start % 8) % 8;
  (void)grow_zeroed(out, pad + l.total);
  std::uint8_t* const base = out.data() + start + pad;
  assert(aligned8(base));
  put_section(base + l.weights, s.weights);
  put_section(base + l.edge_offsets, s.edge_offsets);
  put_section(base + l.edge_vertices, s.edge_vertices);
  const VertexSideMaxima maxima = derive_vertex_side(
      s.degree, s.edge_offsets, s.edge_vertices,
      writable_section<Offset>(base, l.vertex_offsets, n + 1),
      writable_section<EdgeId>(base, l.vertex_edges, inc),
      writable_section<std::uint32_t>(base, l.local_max_degree, m));
  store_header(base, n, m, inc, s.graph_digest, s.rank, maxima.max_degree,
               maxima.max_local_degree);
  const HgbInfo info = load_header(base);
  if (pad != 0) {
    std::memmove(out.data() + start, base, l.total);
    out.resize(start + l.total);
  }
  return info;
}

Hypergraph adopt_image(std::shared_ptr<const std::vector<std::uint8_t>> image) {
  const std::uint8_t* const base = image->data();
  assert(aligned8(base));
#ifndef NDEBUG
  (void)validate_binary(*image);
#endif
  return HypergraphStorageAccess::adopt(sections(base, load_header(base)),
                                        std::move(image));
}

}  // namespace detail

}  // namespace hypercover::hg
