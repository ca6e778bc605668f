// Seed-corpus generator: writes structurally valid inputs for each fuzz
// harness into fuzz/corpus/<harness>/. The committed corpus is the
// output of this tool — regenerate with `fuzz_gen_corpus [outdir]` after
// a format or protocol change so the seeds keep deep coverage (a fuzzer
// starting from valid instances reaches past the magic/digest gates that
// random bytes essentially never pass).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/io.hpp"
#include "server/wire.hpp"
#include "util/digest.hpp"

namespace {

namespace fs = std::filesystem;
namespace hg = hypercover::hg;
namespace api = hypercover::api;
namespace server = hypercover::server;
namespace util = hypercover::util;

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void write_file(const fs::path& path, const std::string& text) {
  write_file(path, std::vector<std::uint8_t>(text.begin(), text.end()));
}

/// len|tag|payload, the same layout write_frame puts on the socket.
std::vector<std::uint8_t> frame_bytes(server::FrameTag tag,
                                      std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> buf;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  buf.push_back(static_cast<std::uint8_t>(len));
  buf.push_back(static_cast<std::uint8_t>(len >> 8));
  buf.push_back(static_cast<std::uint8_t>(len >> 16));
  buf.push_back(static_cast<std::uint8_t>(len >> 24));
  buf.push_back(static_cast<std::uint8_t>(tag));
  buf.insert(buf.end(), payload.begin(), payload.end());
  return buf;
}

void append(std::vector<std::uint8_t>& stream,
            const std::vector<std::uint8_t>& frame) {
  stream.insert(stream.end(), frame.begin(), frame.end());
}

hg::Hypergraph small_graph() {
  hg::Builder b;
  b.add_vertex(3);
  b.add_vertex(1);
  b.add_vertex(4);
  b.add_vertex(2);
  const hg::VertexId e0[] = {0, 1};
  const hg::VertexId e1[] = {1, 2, 3};
  const hg::VertexId e2[] = {0, 3};
  b.add_edge(std::span<const hg::VertexId>(e0));
  b.add_edge(std::span<const hg::VertexId>(e1));
  b.add_edge(std::span<const hg::VertexId>(e2));
  return b.build();
}

hg::Hypergraph tiny_graph() {
  hg::Builder b;
  b.add_vertex(5);
  const hg::VertexId e0[] = {0};
  b.add_edge(std::span<const hg::VertexId>(e0));
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path outdir = argc > 1 ? argv[1] : "fuzz/corpus";
  for (const char* sub : {"text_reader", "binary_validate", "wire_decode"}) {
    fs::create_directories(outdir / sub);
  }

  const hg::Hypergraph g = small_graph();
  const hg::Hypergraph tiny = tiny_graph();

  // --- text_reader ---------------------------------------------------------
  write_file(outdir / "text_reader" / "small.txt", hg::to_text(g));
  write_file(outdir / "text_reader" / "tiny.txt", hg::to_text(tiny));
  write_file(outdir / "text_reader" / "comments.txt",
             "# weighted instance with comments and odd spacing\n"
             "hypergraph 3 2\n"
             "7 1 9   # weights\n"
             "2 0 2\n"
             "\t3 0 1 2\n");
  // The scanner's edges: CRLF line ends, '+' signs, a comment that ends
  // the input with no newline, and a token past INT64_MAX (rejected).
  std::string crlf;
  for (const char c : hg::to_text(g)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  write_file(outdir / "text_reader" / "crlf.txt", crlf);
  write_file(outdir / "text_reader" / "plus_signs.txt",
             "hypergraph +3 +2\n+7 +1 9223372036854775807\n+2 +0 +2\n"
             "3 0 +1 2\n");
  write_file(outdir / "text_reader" / "comment_eof.txt",
             "hypergraph 2 1\n1 1\n2 0 1 # no newline after this");
  write_file(outdir / "text_reader" / "overflow.txt",
             "hypergraph 2 1\n1 9223372036854775808\n2 0 1\n");
  // Header counts no text of this length can hold: rejected as missing
  // weights, with nothing reserved for the claim.
  write_file(outdir / "text_reader" / "huge_header.txt",
             "hypergraph 4000000000 4000000000\n1 1\n2 0 1\n");

  // --- binary_validate -----------------------------------------------------
  write_file(outdir / "binary_validate" / "small.hgb", hg::write_binary(g));
  write_file(outdir / "binary_validate" / "tiny.hgb", hg::write_binary(tiny));

  // --- wire_decode ---------------------------------------------------------
  const fs::path wire = outdir / "wire_decode";
  std::vector<std::uint8_t> session;  // one multi-frame conversation

  {
    server::PayloadWriter w;
    w.u32(server::kProtocolVersion);
    const auto f = frame_bytes(server::FrameTag::kHello, w.take());
    write_file(wire / "hello.bin", f);
    append(session, f);
  }
  {
    server::PayloadWriter w;
    w.u32(server::kProtocolVersion);
    w.u32(6);
    write_file(wire / "hello_ok.bin",
               frame_bytes(server::FrameTag::kHelloOk, w.take()));
  }
  {
    server::PayloadWriter w;
    w.u8(0);  // inline text kind
    w.str(hg::to_text(g));
    const auto f = frame_bytes(server::FrameTag::kSubmitGraph, w.take());
    write_file(wire / "submit_text.bin", f);
    append(session, f);
  }
  {
    server::PayloadWriter w;
    w.u8(0);  // inline binary kind
    const std::vector<std::uint8_t> hgb = hg::write_binary(g);
    w.bytes(hgb);
    write_file(wire / "submit_binary.bin",
               frame_bytes(server::FrameTag::kSubmitGraphBinary, w.take()));
  }
  {
    server::PayloadWriter w;
    w.u64(util::graph_digest(g));
    w.u32(g.num_vertices());
    w.u32(g.num_edges());
    write_file(wire / "graph_ok.bin",
               frame_bytes(server::FrameTag::kGraphOk, w.take()));
  }
  {
    server::PayloadWriter w;
    server::SolveKnobs knobs;
    knobs.eps = 0.25;
    knobs.f_approx = true;
    server::encode_solve(w, "mwhvc", knobs);
    const auto f = frame_bytes(server::FrameTag::kSolve, w.take());
    write_file(wire / "solve.bin", f);
    append(session, f);
  }
  {
    // A real Result: run the reference algorithm on the small instance.
    const api::SolveRequest req;
    api::Solution sol = api::solve("mwhvc", g, req);
    // Everything in the Solution is deterministic except the wall-clock
    // reading; zero it so regenerating the corpus is byte-stable (CI
    // diffs the committed seeds against a fresh fuzz_gen_corpus run).
    sol.wall_ms = 0.0;
    const std::uint64_t key =
        util::solve_digest(util::graph_digest(g), "mwhvc", req);
    server::PayloadWriter w;
    server::encode_result(w, sol, /*cache_hit=*/false, key);
    write_file(wire / "result.bin",
               frame_bytes(server::FrameTag::kResult, w.take()));
  }
  {
    // Protocol v4: a Solve carrying the optional 16-byte trace-context
    // tail, so the fuzzer starts past the tail-presence branch.
    server::PayloadWriter w;
    server::SolveKnobs knobs;
    knobs.eps = 0.25;
    const server::TraceContext trace{0x1122334455667788ull,
                                     0x99aabbccddeeff00ull};
    server::encode_solve(w, "mwhvc", knobs, trace);
    const auto f = frame_bytes(server::FrameTag::kSolve, w.take());
    write_file(wire / "solve_traced.bin", f);
    append(session, f);
  }
  {
    // Protocol v4: a Result carrying the optional span-block tail.
    server::WireResult res;
    res.algorithm = "mwhvc";
    res.completed = true;
    res.rounds = 9;
    res.cover_weight = 7;
    res.transcript_hash = 0xfeedfacecafebeefull;
    res.solve_digest = 0x0123456789abcdefull;
    res.in_cover = {true, false, true, false};
    res.duals = {0.5, 0.25, 0.0};
    hypercover::obs::SpanRecord admit;
    admit.trace_id = 0x1122334455667788ull;
    admit.span_id = 2;
    admit.parent_span_id = 1;
    admit.start_ns = 1000;
    admit.dur_ns = 500;
    admit.proc = 2;  // obs::Proc::kServer
    admit.set_name("server.admit");
    hypercover::obs::SpanRecord slice = admit;
    slice.span_id = 3;
    slice.start_ns = 1200;
    slice.dur_ns = 250;
    slice.arg = 0;
    slice.set_name("batch.slice");
    res.spans = {admit, slice};
    server::PayloadWriter w;
    server::encode_result(w, res);
    write_file(wire / "result_spans.bin",
               frame_bytes(server::FrameTag::kResult, w.take()));
  }
  {
    // Protocol v4 metrics scrape: empty request, Prometheus-text reply.
    const auto f = frame_bytes(server::FrameTag::kMetrics, {});
    write_file(wire / "metrics.bin", f);
    append(session, f);
    server::PayloadWriter w;
    w.str("# TYPE hc_server_solves_total counter\n"
          "hc_server_solves_total 5\n");
    write_file(wire / "metrics_reply.bin",
               frame_bytes(server::FrameTag::kMetricsReply, w.take()));
  }
  {
    server::PayloadWriter w;
    server::ServerStats s;
    s.connections = 3;
    s.requests = 17;
    s.solves = 5;
    s.cache_hits = 2;
    s.cache_misses = 3;
    s.pool_threads = 4;
    s.max_inflight = 8;
    s.engine_rounds = 42;
    server::encode_stats(w, s);
    write_file(wire / "stats_reply.bin",
               frame_bytes(server::FrameTag::kStatsReply, w.take()));
  }
  {
    server::PayloadWriter w;
    server::BusyInfo b;
    b.in_flight = 8;
    b.max_inflight = 8;
    b.queued_bytes = 1 << 20;
    b.max_queued_bytes = 1 << 20;
    server::encode_busy(w, b);
    write_file(wire / "busy.bin",
               frame_bytes(server::FrameTag::kBusy, w.take()));
  }
  {
    server::PayloadWriter w;
    w.str("bad graph: hypergraph read: edge size <= 0");
    write_file(wire / "error.bin",
               frame_bytes(server::FrameTag::kError, w.take()));
  }
  {
    const auto f = frame_bytes(server::FrameTag::kShutdown, {});
    write_file(wire / "shutdown.bin", f);
    append(session, f);
  }
  write_file(wire / "session.bin", session);
  return 0;
}
