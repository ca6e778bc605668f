#pragma once
// `hgb` — the versioned little-endian binary hypergraph format, the
// zero-copy ingestion path behind the serving stack (text I/O stays as
// the debug path).
//
// The file IS the in-memory layout: a fixed 64-byte header followed by
// every array a Hypergraph reads through, each section starting on an
// 8-byte boundary, so a validated buffer is *adopted* (span fixups, no
// parsing, no CSR rebuild, no copies) rather than parsed. Both CSR
// directions and the local-max-degree table are stored; loading a mapped
// instance costs one validation sweep instead of a tokenizer.
//
// Layout (all integers little-endian; offsets from the buffer start):
//
//   | offset | field                 | type          |
//   |--------|-----------------------|---------------|
//   | 0      | magic "HGB!\r\n\x1a\n"| u8[8]         |
//   | 8      | version (= 1)         | u32           |
//   | 12     | flags (= 0, reserved) | u32           |
//   | 16     | n (vertices)          | u32           |
//   | 20     | m (edges)             | u32           |
//   | 24     | incidences            | u64           |
//   | 32     | util::graph_digest    | u64           |
//   | 40     | rank f                | u32           |
//   | 44     | max degree Delta      | u32           |
//   | 48     | max local degree      | u32           |
//   | 52     | header bytes (= 64)   | u32           |
//   | 56     | total file bytes      | u64           |
//   | 64     | weights               | i64 × n       |
//   |        | vertex offsets        | u64 × (n+1)   |
//   |        | edge offsets          | u64 × (m+1)   |
//   |        | vertex→edge ids       | u32 × inc, pad|
//   |        | edge→vertex ids       | u32 × inc, pad|
//   |        | local max degrees     | u32 × m, pad  |
//
// u32 sections are zero-padded to the next 8-byte boundary. The
// PNG-style magic detects text-mode transfer mangling.
//
// validate_binary() proves every invariant Builder::build() would have
// enforced — positive weights, non-empty edges with strictly ascending
// in-range members, offset monotonicity, both CSR directions consistent
// with each other, derived scalars correct, padding zero, and the header
// digest equal to util::graph_digest of the content — so an adopted
// graph is indistinguishable from a built one, and any single corrupted
// byte fails validation. All errors are BinaryFormatError.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace hypercover::hg {

/// "HGB!\r\n\x1a\n" as a little-endian u64 (byte 'H' first in the file).
inline constexpr std::uint64_t kHgbMagic = 0x0a1a0a0d21424748ULL;
inline constexpr std::uint32_t kHgbVersion = 1;
inline constexpr std::size_t kHgbHeaderBytes = 64;

/// The buffer is not a well-formed hgb instance (bad magic/version,
/// truncation, structural inconsistency, digest mismatch, ...).
class BinaryFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decoded header of a validated buffer.
struct HgbInfo {
  std::uint32_t version = 0;
  std::uint32_t n = 0;
  std::uint32_t m = 0;
  std::uint64_t incidences = 0;
  std::uint64_t graph_digest = 0;
  std::uint64_t file_bytes = 0;
};

/// Serializes g into the hgb byte layout (always validates back-to-front
/// by construction: the arrays come from a live Hypergraph).
[[nodiscard]] std::vector<std::uint8_t> write_binary(const Hypergraph& g);

/// Appends the write_binary(g) bytes to `out`, so a caller that frames
/// the image (e.g. behind a wire prefix) writes it once, with no second
/// image-sized buffer. The appended image starts at the old out.size(),
/// so it is 8-byte aligned only if that offset is.
void append_binary(std::vector<std::uint8_t>& out, const Hypergraph& g);

/// write_binary to a file; throws BinaryFormatError on I/O failure.
void write_binary_file(const std::string& path, const Hypergraph& g);

/// Cheap sniff: does the buffer start with the hgb magic?
[[nodiscard]] bool looks_like_binary(
    std::span<const std::uint8_t> bytes) noexcept;

/// Full validation of every format invariant (see the header comment).
/// Throws BinaryFormatError; returns the decoded header on success.
HgbInfo validate_binary(std::span<const std::uint8_t> bytes);

/// Validates, then builds an OWNED graph by copying the arrays out —
/// the buffer may be discarded afterwards. For callers that cannot keep
/// the buffer alive (e.g. a transient wire payload).
[[nodiscard]] Hypergraph read_binary(std::span<const std::uint8_t> bytes);

/// Validates, then adopts the buffer zero-copy: the returned graph (and
/// every copy of it) reads the CSR arrays in place and holds `keepalive`
/// until the last copy dies. `bytes.data()` must be 8-byte aligned
/// (mmap regions and whole heap allocations are; a span at an odd offset
/// into a larger buffer is rejected).
[[nodiscard]] Hypergraph adopt_binary(std::span<const std::uint8_t> bytes,
                                      std::shared_ptr<const void> keepalive);

/// mmap's the file read-only, validates, and adopts the mapping — the
/// zero-copy ingestion path. The mapping is unmapped when the last graph
/// copy referencing it is destroyed. Throws BinaryFormatError on open/
/// map failure or any validation failure.
[[nodiscard]] Hypergraph map_file(const std::string& path);

}  // namespace hypercover::hg
