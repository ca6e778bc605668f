#pragma once
// Plain-text hypergraph serialization.
//
// Format (whitespace separated, '#' starts a comment line):
//   hypergraph <n> <m>
//   <w_0> ... <w_{n-1}>          (n vertex weights)
//   <k> <v_1> ... <v_k>          (m edge lines)
//
// The writer emits one canonical rendering: decimal integers separated
// by single spaces, the header on its own line, all n weights on one line
// (omitted when n = 0), one line per edge with its members in stored
// order, and a newline ending every line, the last included. No comments,
// no padding. Reading that text back and writing it again reproduces it
// byte for byte.

#include <iosfwd>
#include <string>

#include "hypergraph/hypergraph.hpp"

namespace hypercover::hg {

/// Writes to_text(g) to `os` with a single write.
void write_text(std::ostream& os, const Hypergraph& g);

/// Parses the format above; throws std::runtime_error on malformed input.
/// Strict: duplicate vertices within an edge and any trailing token after
/// the last edge are rejected (same contract as the binary validator in
/// hypergraph/binary.hpp — this is the debug path, not the lenient one).
[[nodiscard]] Hypergraph read_text(std::istream& is);

/// The canonical rendering of `g`. The length is computed first and the
/// text written into a string of exactly that size: one allocation, no
/// slack capacity beyond the allocator's own.
[[nodiscard]] std::string to_text(const Hypergraph& g);
[[nodiscard]] Hypergraph from_text(const std::string& text);

}  // namespace hypercover::hg
