// Fuzz harness for the plain-text hypergraph reader (hypergraph/io.*).
//
// Properties enforced:
//   * read_text either returns a graph or throws std::runtime_error —
//     the documented contract. Any other exception type (the
//     std::invalid_argument that Builder::build() uses for programmatic
//     misuse, bad_cast, ...) escaping the parser is a violation and
//     aborts the harness;
//   * to_text(g) is a canonical fixed point: parsing it back yields a
//     graph with the same canonical text and the same content digest;
//   * cross-format differential: the accepted graph survives the binary
//     writer/reader with its digest intact;
//   * scan-to-hgb differential: append_text_binary accepts exactly when
//     from_text does, with the same error text and its output buffer
//     untouched on error; an accepted text's image (appended at an
//     unaligned offset) equals write_binary(from_text(text)) byte for
//     byte, validate_binary accepts it, and its header digest is
//     util::graph_digest of the parsed graph.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_check.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/io.hpp"
#include "util/digest.hpp"

namespace hg = hypercover::hg;
namespace util = hypercover::util;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Parsing is linear; the cap just keeps one exec's cost bounded.
  if (size > 64 * 1024) size = 64 * 1024;
  const std::string text(reinterpret_cast<const char*>(data), size);
  const std::vector<std::uint8_t> prefix = {0xAB, 0xCD, 0xEF};
  std::vector<std::uint8_t> image = prefix;
  std::string scan_error = "(accepted)";
  hg::HgbInfo info;
  try {
    info = hg::append_text_binary(image, text);
  } catch (const std::runtime_error& e) {
    scan_error = e.what();
  } catch (...) {
    FUZZ_CHECK(false, "append_text_binary threw a non-runtime_error exception");
  }

  hg::Hypergraph g;
  try {
    g = hg::from_text(text);
  } catch (const std::runtime_error& e) {
    FUZZ_CHECK(scan_error == e.what(),
               "append_text_binary and from_text disagree on the error");
    FUZZ_CHECK(image == prefix, "a rejected text changed the output buffer");
    return 0;  // rejected with the documented error family
  } catch (...) {
    FUZZ_CHECK(false, "text reader threw a non-runtime_error exception");
    return 0;
  }
  FUZZ_CHECK(scan_error == "(accepted)",
             "append_text_binary rejected a text from_text accepted");
  image.erase(image.begin(), image.begin() + 3);
  FUZZ_CHECK(image == hg::write_binary(g),
             "scanned image differs from write_binary(from_text(text))");
  try {
    FUZZ_CHECK(hg::validate_binary(image).graph_digest == info.graph_digest,
               "validated header differs from the scan's");
  } catch (const hg::BinaryFormatError&) {
    FUZZ_CHECK(false, "validate_binary rejected a scanned image");
  }
  FUZZ_CHECK(info.graph_digest == util::graph_digest(g),
             "scan digest differs from util::graph_digest");

  const std::string canon = hg::to_text(g);
  hg::Hypergraph g2;
  try {
    g2 = hg::from_text(canon);
  } catch (...) {
    FUZZ_CHECK(false, "canonical text failed to re-parse");
  }
  FUZZ_CHECK(hg::to_text(g2) == canon, "canonical text is not a fixed point");
  FUZZ_CHECK(util::graph_digest(g2) == util::graph_digest(g),
             "text round-trip changed the content digest");

  hg::Hypergraph g3;
  try {
    g3 = hg::read_binary(hg::write_binary(g));
  } catch (...) {
    FUZZ_CHECK(false, "binary round-trip rejected a parsed text graph");
  }
  FUZZ_CHECK(util::graph_digest(g3) == util::graph_digest(g),
             "binary round-trip changed the content digest");
  return 0;
}
