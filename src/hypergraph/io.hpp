#pragma once
// Plain-text hypergraph serialization.
//
// Format:
//   hypergraph <n> <m>
//   <w_0> ... <w_{n-1}>          (n vertex weights)
//   <k> <v_1> ... <v_k>          (m edge lines)
//
// Token language of the reader. Tokens are separated by C-locale
// whitespace (space, \t, \n, \v, \f, \r), so line breaks carry no
// meaning and CRLF files read like LF ones. A token that starts with '#'
// drops the rest of its line, through the next '\n' or the end of input;
// '#' inside a token ("1#") is part of that token. The first token is
// exactly "hypergraph"; every other token is a decimal integer: an
// optional '+' or '-', then one or more digits 0-9, with no other byte
// (an embedded NUL included) and a value that fits std::int64_t. This is
// the language std::stoll accepts on a whole token. A token that is not
// such an integer fails with "hypergraph read: bad integer '<token>' for
// <field>".
//
// The reader is one scan: it tokenizes, checks every token in input
// order (the first failing check names the error), sorts each edge in
// place and folds util::graph_digest as it goes. append_text_binary lays
// the result out as an hgb image (hypergraph/binary.hpp); from_text
// adopts that image. No Builder is involved and, outside Debug builds
// (which re-validate each adopted image), nothing is checked or hashed
// twice.
//
// The writer emits one canonical rendering: decimal integers separated
// by single spaces, the header on its own line, all n weights on one line
// (omitted when n = 0), one line per edge with its members in stored
// order, and a newline ending every line, the last included. No comments,
// no padding. Reading that text back and writing it again reproduces it
// byte for byte.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/binary.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hypercover::hg {

/// Writes to_text(g) to `os` with a single write.
void write_text(std::ostream& os, const Hypergraph& g);

/// Scans the format above and appends the graph's hgb image to `out`,
/// byte for byte write_binary(from_text(text)), returning its header (the
/// digest folded during the scan). Throws std::runtime_error on malformed
/// input, leaving `out` as it was. Strict: negative sizes, non-positive
/// weights, members out of range, duplicate vertices within an edge and
/// any token after the last edge are rejected (same contract as the
/// binary validator in hypergraph/binary.hpp). Memory is reserved from
/// the text's length, never from the counts a header claims.
HgbInfo append_text_binary(std::vector<std::uint8_t>& out,
                           std::string_view text);

/// Parses the format above into a graph that adopts its hgb image; same
/// errors as append_text_binary. When `info` is non-null it receives the
/// image header, whose graph_digest is util::graph_digest of the result.
[[nodiscard]] Hypergraph from_text(std::string_view text,
                                   HgbInfo* info = nullptr);

/// Reads everything left in `is` into one string by streaming its
/// rdbuf() into a std::ostringstream, sets eofbit, and returns
/// from_text(that string). The whole input is read before parsing, so an
/// error leaves the stream at its end, not at the bad token.
[[nodiscard]] Hypergraph read_text(std::istream& is);

/// The canonical rendering of `g`. The length is computed first and the
/// text written into a string of exactly that size: one allocation, no
/// slack capacity beyond the allocator's own.
[[nodiscard]] std::string to_text(const Hypergraph& g);

}  // namespace hypercover::hg
