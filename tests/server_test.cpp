// Solve-service acceptance tests.
//
// The serving contract under test: a Result returned over the socket —
// cold, cache-hit, or hammered by concurrent clients — carries the same
// cover, duals, transcript digest, and valid certificate as a solo
// api::solve of the same instance/algo/knobs; malformed frames
// (truncated header, oversized length field, unknown tag, mid-frame
// disconnect) drop one connection without taking the server down;
// overload answers with a typed Busy frame; Shutdown drains gracefully.
// Plus direct unit coverage of util::solve_digest, the LRU ResultCache,
// and the BatchScheduler service-mode callbacks the server rides on.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "malformed_sessions.hpp"
#include "server/cache.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "server/wire.hpp"
#include "util/digest.hpp"
#include "verify/verify.hpp"

namespace hypercover {
namespace {

// --- harness ---------------------------------------------------------------

/// A SolveServer on a fresh Unix socket, served from a background
/// thread, drained on destruction. Unix-domain paths avoid port clashes
/// between parallel ctest jobs.
class TestServer {
 public:
  explicit TestServer(server::ServerOptions opts = {}) {
    static std::atomic<int> counter{0};
    opts.listen = "unix:/tmp/hc_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1)) + ".sock";
    srv_ = std::make_unique<server::SolveServer>(opts);
    srv_->start();
    thread_ = std::thread([this] { srv_->serve(); });
  }

  ~TestServer() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      srv_->request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] server::SolveServer& server() { return *srv_; }
  [[nodiscard]] const std::string& address() const { return srv_->address(); }

  [[nodiscard]] server::Client client() const {
    server::Client c;
    c.connect(address());
    return c;
  }

 private:
  std::unique_ptr<server::SolveServer> srv_;
  std::thread thread_;
};

hg::Hypergraph test_graph(std::uint64_t seed = 77) {
  return hg::random_uniform(60, 140, 3, hg::exponential_weights(10), seed);
}

/// The acceptance comparison: a served WireResult must match a solo
/// api::solve bit for bit in every protocol-observable quantity, and its
/// cover/duals must re-verify locally.
void expect_matches_solo(const server::WireResult& wire,
                         const hg::Hypergraph& g, const std::string& algo,
                         const api::SolveRequest& req) {
  const api::Solution solo = api::solve(algo, g, req);
  EXPECT_EQ(wire.algorithm, solo.algorithm);
  EXPECT_EQ(wire.in_cover, solo.in_cover);
  EXPECT_EQ(wire.duals, solo.duals);
  EXPECT_EQ(wire.cover_weight, solo.cover_weight);
  EXPECT_EQ(wire.dual_total, solo.dual_total);
  EXPECT_EQ(wire.iterations, solo.iterations);
  EXPECT_EQ(wire.rounds, solo.net.rounds);
  EXPECT_EQ(wire.completed, solo.net.completed);
  EXPECT_EQ(wire.total_messages, solo.net.total_messages);
  EXPECT_EQ(wire.total_bits, solo.net.total_bits);
  EXPECT_EQ(wire.transcript_hash, solo.net.transcript_hash);
  EXPECT_EQ(static_cast<api::RunOutcome>(wire.outcome), solo.outcome);
  EXPECT_EQ(wire.cert_valid, solo.certificate.valid());
  EXPECT_EQ(wire.solve_digest, util::solve_digest(g, algo, req));
  // Never trust the transported bits alone: the local re-check must
  // agree with the server's claim (a truncated run's partial cover is
  // allowed to be invalid — but then both sides must say so).
  const verify::Certificate local = verify::certify(g, wire.in_cover,
                                                    wire.duals);
  EXPECT_EQ(local.valid(), wire.cert_valid) << local.error;
  EXPECT_EQ(local.cover_valid, wire.cert_cover_valid);
  EXPECT_EQ(local.packing_feasible, wire.cert_packing_feasible);
  EXPECT_EQ(local.cover_weight, wire.cover_weight);
}

/// Protocol errors are counted by the (asynchronous) handler thread of
/// the misbehaving connection; give it a moment before asserting.
void expect_protocol_errors_reach(server::SolveServer& srv, std::uint64_t n) {
  for (int i = 0; i < 200 && srv.stats().protocol_errors < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(srv.stats().protocol_errors, n);
}

// --- digest unit tests -----------------------------------------------------

TEST(SolveDigest, SensitiveToEveryKeyedInput) {
  const hg::Hypergraph g1 = test_graph(1), g2 = test_graph(2);
  const api::SolveRequest base;
  const std::uint64_t d = util::solve_digest(g1, "mwhvc", base);
  EXPECT_EQ(d, util::solve_digest(g1, "mwhvc", base));  // deterministic
  EXPECT_NE(d, util::solve_digest(g2, "mwhvc", base));  // instance
  EXPECT_NE(d, util::solve_digest(g1, "kmw", base));    // algorithm

  api::SolveRequest req = base;
  req.eps = 0.25;
  EXPECT_NE(d, util::solve_digest(g1, "mwhvc", req));  // eps
  req = base;
  req.engine.max_rounds = 7;
  EXPECT_NE(d, util::solve_digest(g1, "mwhvc", req));  // truncation point
  req = base;
  req.mwhvc.appendix_c = true;
  EXPECT_NE(d, util::solve_digest(g1, "mwhvc", req));  // variant
  req = base;
  req.control.round_budget = 3;
  EXPECT_NE(d, util::solve_digest(g1, "mwhvc", req));  // partial run
}

TEST(SolveDigest, IgnoresExecutionOnlyKnobs) {
  const hg::Hypergraph g = test_graph();
  const api::SolveRequest base;
  const std::uint64_t d = util::solve_digest(g, "mwhvc", base);
  api::SolveRequest req = base;
  req.engine.threads = 8;
  EXPECT_EQ(d, util::solve_digest(g, "mwhvc", req));
}

TEST(SolveDigest, GraphDigestSeparatesWeightsAndMembership) {
  hg::Builder b1, b2, b3;
  for (int i = 0; i < 3; ++i) b1.add_vertex(1 + i);
  b1.add_edge({0, 1});
  for (int i = 0; i < 3; ++i) b2.add_vertex(1 + i);
  b2.add_edge({0, 2});  // different membership
  b3.add_vertex(1);
  b3.add_vertex(2);
  b3.add_vertex(4);  // different weight
  b3.add_edge({0, 1});
  const std::uint64_t d1 = util::graph_digest(b1.build());
  EXPECT_NE(d1, util::graph_digest(b2.build()));
  EXPECT_NE(d1, util::graph_digest(b3.build()));
}

// --- ResultCache unit tests ------------------------------------------------

TEST(ResultCache, LruEvictionOrder) {
  server::ResultCache cache(2);
  auto sol = [](double marker) {
    auto s = std::make_shared<api::Solution>();
    s->dual_total = marker;
    return std::shared_ptr<const api::Solution>(std::move(s));
  };
  cache.insert(1, sol(1));
  cache.insert(2, sol(2));
  ASSERT_NE(cache.find(1), nullptr);  // refreshes 1; LRU is now 2
  cache.insert(3, sol(3));            // evicts 2
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(1)->dual_total, 1.0);
  EXPECT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  server::ResultCache cache(0);
  cache.insert(1, std::make_shared<const api::Solution>());
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, CountsEvictions) {
  server::ResultCache cache(1);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.insert(1, std::make_shared<const api::Solution>());
  cache.insert(1, std::make_shared<const api::Solution>());  // replace, no evict
  EXPECT_EQ(cache.evictions(), 0u);
  cache.insert(2, std::make_shared<const api::Solution>());  // evicts key 1
  cache.insert(3, std::make_shared<const api::Solution>());  // evicts key 2
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 1u);

  // A zero-capacity cache drops inserts without calling them evictions.
  server::ResultCache off(0);
  off.insert(1, std::make_shared<const api::Solution>());
  EXPECT_EQ(off.evictions(), 0u);
}

// --- BatchScheduler service mode -------------------------------------------

TEST(BatchServiceMode, CompletionCallbacksDeliverBitIdenticalSolutions) {
  const hg::Hypergraph g = test_graph();
  api::BatchScheduler scheduler({.threads = 2});
  scheduler.start_service();
  constexpr int kJobs = 12;
  std::vector<api::Solution> delivered(kJobs);
  std::atomic<int> completed{0};
  for (int i = 0; i < kJobs; ++i) {
    api::BatchJob job;
    job.graph = &g;
    job.algorithm = i % 2 == 0 ? "mwhvc" : "kvy";
    job.on_complete = [&delivered, &completed, i](const api::Solution& sol) {
      delivered[i] = sol;
      completed.fetch_add(1);
    };
    scheduler.submit(std::move(job));
  }
  scheduler.stop_service();  // drains
  EXPECT_EQ(completed.load(), kJobs);
  EXPECT_FALSE(scheduler.service_active());
  for (int i = 0; i < kJobs; ++i) {
    const api::Solution solo =
        api::solve(i % 2 == 0 ? "mwhvc" : "kvy", g, {});
    EXPECT_EQ(delivered[i].in_cover, solo.in_cover);
    EXPECT_EQ(delivered[i].duals, solo.duals);
    EXPECT_EQ(delivered[i].net.transcript_hash, solo.net.transcript_hash);
    EXPECT_TRUE(delivered[i].certificate.valid());
  }
}

TEST(BatchServiceMode, ErrorsDeliverThroughOnError) {
  const hg::Hypergraph g = test_graph();
  api::BatchScheduler scheduler({.threads = 2});
  scheduler.start_service();
  std::atomic<bool> error_fired{false}, complete_fired{false};
  api::BatchJob job;
  job.graph = &g;
  job.algorithm = "no-such-algorithm";
  job.on_complete = [&](const api::Solution&) { complete_fired = true; };
  job.on_error = [&](std::exception_ptr err) {
    EXPECT_THROW(std::rethrow_exception(err), std::invalid_argument);
    error_fired = true;
  };
  scheduler.submit(std::move(job));
  scheduler.stop_service();
  EXPECT_TRUE(error_fired.load());
  EXPECT_FALSE(complete_fired.load());
}

TEST(BatchServiceMode, SubmitOutsideServiceThrows) {
  api::BatchScheduler scheduler({.threads = 1});
  EXPECT_THROW(scheduler.submit({}), std::logic_error);
  scheduler.start_service();
  EXPECT_THROW(scheduler.start_service(), std::logic_error);
  EXPECT_THROW((void)scheduler.solve_all({}), std::logic_error);
  scheduler.stop_service();
  scheduler.stop_service();  // idempotent
  // Reusable for batches after the service drains.
  const hg::Hypergraph g = test_graph();
  std::vector<api::BatchJob> jobs(2);
  for (api::BatchJob& j : jobs) j.graph = &g;
  EXPECT_EQ(scheduler.solve_all(jobs).size(), 2u);
}

TEST(BatchSolveAll, OnCompleteFiresPerJob) {
  const hg::Hypergraph g = test_graph();
  std::atomic<int> fired{0};
  std::vector<api::BatchJob> jobs(3);
  for (api::BatchJob& j : jobs) {
    j.graph = &g;
    j.on_complete = [&fired](const api::Solution& sol) {
      EXPECT_FALSE(sol.in_cover.empty());
      fired.fetch_add(1);
    };
  }
  const auto results = api::solve_batch(jobs, {.threads = 2});
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(fired.load(), 3);  // including the single-job fast path users
}

// --- protocol framing ------------------------------------------------------

/// Sends raw bytes on a fresh connection; returns the server's reply tag
/// (kError for a decodable violation) or nullopt if the server just
/// closed the stream.
server::Frame raw_exchange(const std::string& address,
                           const std::vector<std::uint8_t>& bytes,
                           bool* got_reply) {
  server::Socket sock = server::connect_to(address);
  sock.send_all(bytes.data(), bytes.size());
  server::Frame reply;
  *got_reply = server::read_frame(sock, reply);
  return reply;
}

class ServerFraming : public ::testing::Test {
 protected:
  TestServer srv_;

  /// The server must still serve a well-formed client afterwards — one
  /// confused connection must never take the service down.
  void expect_still_serving() {
    server::Client c = srv_.client();
    const hg::Hypergraph g = test_graph();
    (void)c.submit_graph_text(hg::to_text(g));
    const server::WireResult res = c.solve("greedy");
    EXPECT_FALSE(res.in_cover.empty());
  }
};

TEST_F(ServerFraming, TruncatedHeaderDropsOnlyThatConnection) {
  {
    server::Socket sock = server::connect_to(srv_.address());
    const std::uint8_t partial[2] = {1, 0};  // 2 of 5 header bytes
    sock.send_all(partial, sizeof(partial));
  }  // close mid-header
  expect_still_serving();
  expect_protocol_errors_reach(srv_.server(), 1);
}

TEST_F(ServerFraming, OversizedLengthFieldIsRejected) {
  // Length field far over the frame cap; a naive server would try to
  // allocate it. Ours must count a protocol error and drop the stream.
  std::vector<std::uint8_t> bytes = {0xff, 0xff, 0xff, 0xff,
                                     1 /* kHello */};
  bool got_reply = false;
  (void)raw_exchange(srv_.address(), bytes, &got_reply);
  EXPECT_FALSE(got_reply);  // dropped without a reply — stream unusable
  expect_still_serving();
  expect_protocol_errors_reach(srv_.server(), 1);
}

TEST_F(ServerFraming, UnknownFrameTagGetsErrorFrame) {
  // Valid Hello first, then a nonsense tag with a well-formed header.
  server::Socket sock = server::connect_to(srv_.address());
  server::PayloadWriter hello;
  hello.u32(server::kProtocolVersion);
  server::write_frame(sock, server::FrameTag::kHello, hello.take());
  server::Frame reply;
  ASSERT_TRUE(server::read_frame(sock, reply));
  ASSERT_EQ(reply.tag, server::FrameTag::kHelloOk);

  std::vector<std::uint8_t> junk = {0, 0, 0, 0, 0xee};
  sock.send_all(junk.data(), junk.size());
  ASSERT_TRUE(server::read_frame(sock, reply));
  EXPECT_EQ(reply.tag, server::FrameTag::kError);
  expect_still_serving();
}

TEST_F(ServerFraming, MidFrameDisconnectIsSurvivable) {
  {
    server::Socket sock = server::connect_to(srv_.address());
    // Header promising 100 payload bytes, then only 10, then close.
    std::vector<std::uint8_t> bytes = {100, 0, 0, 0, 1};
    bytes.resize(bytes.size() + 10, 0x42);
    sock.send_all(bytes.data(), bytes.size());
  }
  expect_still_serving();
  expect_protocol_errors_reach(srv_.server(), 1);
}

TEST_F(ServerFraming, SolveBeforeSubmitGraphIsAnError) {
  server::Client c = srv_.client();
  EXPECT_THROW((void)c.solve("mwhvc"), server::RemoteError);
}

TEST_F(ServerFraming, BadGraphTextIsAnErrorAndConnectionRecovers) {
  server::Client c = srv_.client();
  EXPECT_THROW((void)c.submit_graph_text("hypergraph 2 1\n1\n2 0 1\n"),
               server::RemoteError);  // one weight missing
  // Same connection recovers with a good instance.
  const hg::Hypergraph g = test_graph();
  const server::GraphInfo info = c.submit_graph_text(hg::to_text(g));
  EXPECT_EQ(info.vertices, g.num_vertices());
  EXPECT_EQ(info.digest, util::graph_digest(g));
  EXPECT_TRUE(c.solve("greedy").cert_valid);
}

TEST_F(ServerFraming, UnknownAlgorithmIsAnError) {
  server::Client c = srv_.client();
  (void)c.submit_graph_text(hg::to_text(test_graph()));
  EXPECT_THROW((void)c.solve("no-such-algo"), server::RemoteError);
}

TEST_F(ServerFraming, BadBinaryGraphIsAnErrorAndConnectionRecovers) {
  server::Client c = srv_.client();
  const hg::Hypergraph g = test_graph();
  std::vector<std::uint8_t> hgb = hg::write_binary(g);

  std::vector<std::uint8_t> corrupt = hgb;
  corrupt[40] ^= 0xFF;  // body byte — fails the structural sweep
  EXPECT_THROW((void)c.submit_graph_binary(corrupt), server::RemoteError);
  corrupt = hgb;
  corrupt.resize(63);  // shorter than the header
  EXPECT_THROW((void)c.submit_graph_binary(corrupt), server::RemoteError);
  EXPECT_THROW((void)c.submit_graph_binary_path("/no/such/file.hgb"),
               server::RemoteError);

  // Same connection recovers with the intact buffer.
  const server::GraphInfo info = c.submit_graph_binary(hgb);
  EXPECT_EQ(info.digest, util::graph_digest(g));
  EXPECT_TRUE(c.solve("greedy").cert_valid);
}

// Promoted from the wire fuzz harness (fuzz/fuzz_wire_decode.cpp): the
// handlers used to decode a request's fields and silently ignore any
// trailing payload bytes, acting on the prefix of a request framed for a
// different protocol shape. Trailing bytes now earn one Error naming
// them, and the connection is dropped as desynchronized.
TEST_F(ServerFraming, FuzzRegressionTrailingPayloadBytesDropConnection) {
  server::Socket sock = server::connect_to(srv_.address());
  server::PayloadWriter hello;
  hello.u32(server::kProtocolVersion);
  server::write_frame(sock, server::FrameTag::kHello, hello.take());
  server::Frame reply;
  ASSERT_TRUE(server::read_frame(sock, reply));
  ASSERT_EQ(reply.tag, server::FrameTag::kHelloOk);

  // A Stats request whose payload should be empty but carries one byte.
  server::write_frame(sock, server::FrameTag::kStats, {0xAA});
  ASSERT_TRUE(server::read_frame(sock, reply));
  EXPECT_EQ(reply.tag, server::FrameTag::kError);
  {
    server::PayloadReader r(reply.payload);
    EXPECT_NE(r.str().find("trailing"), std::string::npos);
  }
  EXPECT_FALSE(server::read_frame(sock, reply));  // dropped, not ignored

  // Same for a SubmitGraph with junk after its complete graph text.
  server::Socket sock2 = server::connect_to(srv_.address());
  server::PayloadWriter hello2;
  hello2.u32(server::kProtocolVersion);
  server::write_frame(sock2, server::FrameTag::kHello, hello2.take());
  ASSERT_TRUE(server::read_frame(sock2, reply));
  server::PayloadWriter submit;
  submit.u8(0);  // inline text kind
  submit.str(hg::to_text(test_graph()));
  submit.u32(0xdeadbeef);  // trailing junk
  server::write_frame(sock2, server::FrameTag::kSubmitGraph, submit.take());
  ASSERT_TRUE(server::read_frame(sock2, reply));
  EXPECT_EQ(reply.tag, server::FrameTag::kError);
  EXPECT_FALSE(server::read_frame(sock2, reply));

  expect_still_serving();
  expect_protocol_errors_reach(srv_.server(), 2);
}

// Promoted from the wire fuzz harness: decode_result ignores the unused
// tail bits of the cover bitmap's last byte, so two byte-distinct
// payloads could denote the same Result. The WireResult encode overload
// pins the canonical form — re-encoding a decoded payload zeroes the
// tail bits, and re-encoding is idempotent from there.
TEST(WireFuzzRegression, ResultReencodeCanonicalizesBitmapTailBits) {
  server::WireResult res;
  res.algorithm = "greedy";
  res.completed = true;
  res.cover_weight = 7;
  res.in_cover = {true, false, true};  // 3 bits -> 5 unused tail bits
  server::PayloadWriter w;
  server::encode_result(w, res);
  const std::vector<std::uint8_t> canonical = w.take();

  // The bitmap byte sits before the trailing u32 dual count (m = 0).
  std::vector<std::uint8_t> mutated = canonical;
  mutated[mutated.size() - 5] |= 0xF8;  // set the 5 unused tail bits
  ASSERT_NE(mutated, canonical);

  server::PayloadReader r(mutated);
  const server::WireResult decoded = server::decode_result(r);
  ASSERT_TRUE(r.done());
  EXPECT_EQ(decoded.in_cover, res.in_cover);  // tail bits don't leak
  server::PayloadWriter w2;
  server::encode_result(w2, decoded);
  EXPECT_EQ(w2.take(), canonical);  // one re-encode reaches the fixed point
}

// --- served-solve parity ---------------------------------------------------

TEST(ServerSolve, EveryRegisteredAlgorithmMatchesSolo) {
  TestServer srv;
  server::Client c = srv.client();
  const hg::Hypergraph g = test_graph();
  (void)c.submit_graph_text(hg::to_text(g));
  for (const api::Solver& solver : api::solvers()) {
    SCOPED_TRACE(std::string(solver.name));
    const server::WireResult wire = c.solve(solver.name);
    EXPECT_FALSE(wire.cache_hit);
    expect_matches_solo(wire, g, std::string(solver.name), {});
  }
}

TEST(ServerSolve, KnobsTravelAndKeySeparately) {
  TestServer srv;
  server::Client c = srv.client();
  const hg::Hypergraph g = test_graph();
  (void)c.submit_graph_text(hg::to_text(g));

  server::SolveKnobs knobs;
  knobs.eps = 0.125;
  knobs.appendix_c = true;
  const server::WireResult wire = c.solve("mwhvc", knobs);
  expect_matches_solo(wire, g, "mwhvc", server::to_request(knobs));

  // A different eps is a different cache key — must be a cold solve.
  server::SolveKnobs other = knobs;
  other.eps = 0.5;
  EXPECT_FALSE(c.solve("mwhvc", other).cache_hit);
}

TEST(ServerSolve, TruncatedRunTravelsWithItsPartialCertificate) {
  TestServer srv;
  server::Client c = srv.client();
  const hg::Hypergraph g = test_graph();
  (void)c.submit_graph_text(hg::to_text(g));
  server::SolveKnobs knobs;
  knobs.max_rounds = 2;  // hard round stop mid-protocol
  const server::WireResult wire = c.solve("mwhvc", knobs);
  EXPECT_FALSE(wire.completed);
  expect_matches_solo(wire, g, "mwhvc", server::to_request(knobs));
}

TEST(ServerSolve, CacheHitIsBitIdenticalToTheColdSolve) {
  TestServer srv;
  server::Client c = srv.client();
  const hg::Hypergraph g = test_graph();
  (void)c.submit_graph_text(hg::to_text(g));
  const server::WireResult cold = c.solve("mwhvc");
  ASSERT_FALSE(cold.cache_hit);
  const server::WireResult hit = c.solve("mwhvc");
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.in_cover, cold.in_cover);
  EXPECT_EQ(hit.duals, cold.duals);
  EXPECT_EQ(hit.transcript_hash, cold.transcript_hash);
  EXPECT_EQ(hit.solve_digest, cold.solve_digest);
  EXPECT_EQ(hit.cert_valid, cold.cert_valid);
  expect_matches_solo(hit, g, "mwhvc", {});
  const server::ServerStats stats = srv.server().stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);
}

TEST(ServerSolve, BinarySubmitsMatchTextSubmitsBitForBit) {
  TestServer srv;
  const hg::Hypergraph g = test_graph();
  const std::vector<std::uint8_t> hgb = hg::write_binary(g);

  // Text ingestion first: the cold solve populates the cache.
  server::Client text_client = srv.client();
  const server::GraphInfo via_text = text_client.submit_graph_text(hg::to_text(g));
  const server::WireResult cold = text_client.solve("mwhvc");
  ASSERT_FALSE(cold.cache_hit);
  expect_matches_solo(cold, g, "mwhvc", {});

  // Inline binary ingestion must land on the same digest — and therefore
  // the same cache key: the solve must be a hit, bit-identical to cold.
  server::Client bin_client = srv.client();
  const server::GraphInfo via_binary = bin_client.submit_graph_binary(hgb);
  EXPECT_EQ(via_binary.digest, via_text.digest);
  EXPECT_EQ(via_binary.digest, util::graph_digest(g));
  EXPECT_EQ(via_binary.vertices, g.num_vertices());
  EXPECT_EQ(via_binary.edges, g.num_edges());
  const server::WireResult warm = bin_client.solve("mwhvc");
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.in_cover, cold.in_cover);
  EXPECT_EQ(warm.duals, cold.duals);
  EXPECT_EQ(warm.transcript_hash, cold.transcript_hash);
  EXPECT_EQ(warm.solve_digest, cold.solve_digest);
  expect_matches_solo(warm, g, "mwhvc", {});
}

TEST(ServerSolve, ByPathBinarySubmitMapsAndMatchesSolo) {
  TestServer srv;
  const hg::Hypergraph g = test_graph();
  char tmpl[] = "/tmp/hc_test_hgb_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/g.hgb";
  hg::write_binary_file(path, g);

  server::Client c = srv.client();
  const server::GraphInfo info = c.submit_graph_binary_path(path);
  EXPECT_EQ(info.digest, util::graph_digest(g));
  const server::WireResult wire = c.solve("mwhvc");
  expect_matches_solo(wire, g, "mwhvc", {});

  std::remove(path.c_str());
  ::rmdir(tmpl);
}

TEST(ServerSolve, EvictionsSurfaceInStats) {
  server::ServerOptions opts;
  opts.cache_entries = 1;
  TestServer srv(opts);
  server::Client c = srv.client();
  // Two distinct instances through a one-entry cache: the second solve
  // must evict the first, and the Stats frame must carry the count.
  (void)c.submit_graph_text(hg::to_text(test_graph(101)));
  (void)c.solve("greedy");
  (void)c.submit_graph_text(hg::to_text(test_graph(102)));
  (void)c.solve("greedy");
  const server::ServerStats stats = c.stats();
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(ServerSolve, ConcurrentClientsHammeringTheCacheStayBitIdentical) {
  TestServer srv;
  constexpr int kClients = 4, kIters = 6;
  // Three distinct instances x two algorithms, each with a precomputed
  // solo reference; every response — whichever client, hit or miss —
  // must match its reference exactly.
  std::vector<hg::Hypergraph> graphs;
  std::vector<std::string> texts;
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    graphs.push_back(test_graph(seed));
    texts.push_back(hg::to_text(graphs.back()));
  }
  const char* algos[2] = {"mwhvc", "kvy"};
  api::Solution solo[3][2];
  for (int i = 0; i < 3; ++i) {
    for (int a = 0; a < 2; ++a) solo[i][a] = api::solve(algos[a], graphs[i], {});
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      server::Client c;
      c.connect(srv.address());
      for (int iter = 0; iter < kIters; ++iter) {
        const int i = (t + iter) % 3;
        const int a = (t + iter) % 2;
        (void)c.submit_graph_text(texts[i]);
        const server::WireResult wire = c.solve(algos[a]);
        if (wire.in_cover != solo[i][a].in_cover ||
            wire.duals != solo[i][a].duals ||
            wire.transcript_hash != solo[i][a].net.transcript_hash ||
            !wire.cert_valid) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const server::ServerStats stats = srv.server().stats();
  EXPECT_EQ(stats.solves, kClients * kIters);
  EXPECT_GE(stats.cache_hits, 1u);  // 24 requests over 6 distinct keys
}

// --- admission control -----------------------------------------------------

TEST(ServerAdmission, MaxInflightZeroAnswersTypedBusy) {
  server::ServerOptions opts;
  opts.max_inflight = 0;  // documented reject-all drain/test mode
  TestServer srv(opts);
  server::Client c = srv.client();
  (void)c.submit_graph_text(hg::to_text(test_graph()));
  try {
    (void)c.solve("mwhvc");
    FAIL() << "expected BusyError";
  } catch (const server::BusyError& busy) {
    EXPECT_EQ(busy.info.max_inflight, 0u);
    EXPECT_EQ(busy.info.in_flight, 0u);
  }
  EXPECT_GE(srv.server().stats().busy_rejections, 1u);
  // The connection survives a Busy answer: a cache-free retry path.
  EXPECT_THROW((void)c.solve("mwhvc"), server::BusyError);
}

TEST(ServerAdmission, OversizedInstanceAnswersBusyAtSubmit) {
  server::ServerOptions opts;
  opts.max_queued_bytes = 64;  // smaller than any real instance text
  TestServer srv(opts);
  server::Client c = srv.client();
  EXPECT_THROW((void)c.submit_graph_text(hg::to_text(test_graph())),
               server::BusyError);
  EXPECT_GE(srv.server().stats().busy_rejections, 1u);
}

TEST(ServerAdmission, ByPathReadIsBoundedByTheByteBudget) {
  server::ServerOptions opts;
  opts.max_queued_bytes = 4096;
  TestServer srv(opts);
  server::Client c = srv.client();
  // An endless server-local file must come back as a prompt Busy, not an
  // unbounded slurp: the server stops reading one byte past the budget.
  EXPECT_THROW((void)c.submit_graph_path("/dev/zero"), server::BusyError);
  EXPECT_GE(srv.server().stats().busy_rejections, 1u);
}

// --- stats + shutdown ------------------------------------------------------

TEST(ServerLifecycle, StatsCountersAreCoherent) {
  TestServer srv;
  server::Client c = srv.client();
  (void)c.submit_graph_text(hg::to_text(test_graph()));
  (void)c.solve("mwhvc");
  (void)c.solve("mwhvc");  // hit
  const server::ServerStats stats = c.stats();
  EXPECT_GE(stats.connections, 1u);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued_bytes, 0u);
  EXPECT_GE(stats.pool_threads, 1u);
}

// Every protocol error reaches both counter surfaces: StatsReply and the
// scraped hc_server_protocol_errors_total move by the same amount.
TEST(ServerLifecycle, ProtocolErrorsMatchTheScrapedCounter) {
  namespace ts = testing_sessions;
  TestServer srv;
  server::Client c = srv.client();
  const char* kCounter = "hc_server_protocol_errors_total";
  const std::uint64_t scraped_before =
      ts::scraped_counter(c.metrics_text(), kCounter);
  ts::play_malformed_sessions(srv.address());
  ts::wait_for_count([&] { return c.stats().protocol_errors; },
                     ts::kMalformedSessions);
  const std::uint64_t stats_delta = c.stats().protocol_errors;
  EXPECT_EQ(stats_delta, ts::kMalformedSessions);
  EXPECT_EQ(ts::scraped_counter(c.metrics_text(), kCounter) - scraped_before,
            stats_delta);
}

TEST(ServerLifecycle, ShutdownFrameDrainsAndServeReturns) {
  auto srv = std::make_unique<TestServer>();
  server::Client c = srv->client();
  (void)c.submit_graph_text(hg::to_text(test_graph()));
  (void)c.solve("mwhvc");
  c.shutdown_server();  // returns only after ShutdownOk
  // serve() must return on its own (stop() would mask a hang: join the
  // background thread through the destructor with no extra request_stop
  // needed — request_stop is idempotent so the destructor is still safe).
  srv.reset();
  SUCCEED();
}

TEST(ServerLifecycle, IdleConnectionsAreKnockedLooseOnDrain) {
  TestServer srv;
  server::Client idle = srv.client();  // greeted, then silent
  srv.stop();                          // must not hang on the idle client
  SUCCEED();
}

}  // namespace
}  // namespace hypercover
