// Fleet-router acceptance tests.
//
// The routing contract under test: a Solve through router::Router
// returns a Solution bit-identical (solve digest + transcript hash +
// cover + duals) to a solo api::solve, no matter which backends die,
// stall, or corrupt frames along the way; the same solve digest always
// lands on the same backend (so per-backend LRU caches shard — a repeat
// is a cache HIT, not a re-solve); a failed backend goes unhealthy and
// recovers through the probe-backoff lifecycle; a Stats frame to the
// router aggregates the whole fleet. Plus socket-layer coverage of the
// three client robustness fixes that ride along: receive deadlines
// (SocketTimeout), TCP_NODELAY on both ends, and Busy retry backoff.
//
// Fault injection uses scripted raw-frame backends (FakeBackend): they
// speak just enough protocol to reach the Solve, then close, stall, or
// answer garbage — the chaos matrix at the router<->backend hop. Tests
// steer traffic deterministically: ring placement is a pure function of
// the backend address list, so a test searches generator seeds for an
// instance whose digest routes to the backend it wants to hit.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "malformed_sessions.hpp"
#include "router/ring.hpp"
#include "router/router.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "server/wire.hpp"
#include "util/digest.hpp"

namespace hypercover {
namespace {

using router::HashRing;
using server::FrameTag;
using server::PayloadReader;
using server::PayloadWriter;

// --- harness ---------------------------------------------------------------

std::string unique_addr(const char* stem) {
  static std::atomic<int> counter{0};
  return "unix:/tmp/hc_rt_" + std::string(stem) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A real SolveServer on a fresh Unix socket, served from a background
/// thread, drained on destruction.
class TestBackend {
 public:
  explicit TestBackend(server::ServerOptions opts = {},
                       std::string address = "") {
    opts.listen = address.empty() ? unique_addr("b") : std::move(address);
    srv_ = std::make_unique<server::SolveServer>(opts);
    srv_->start();
    thread_ = std::thread([this] { srv_->serve(); });
  }

  ~TestBackend() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      srv_->request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] server::SolveServer& server() { return *srv_; }
  [[nodiscard]] const std::string& address() const { return srv_->address(); }

 private:
  std::unique_ptr<server::SolveServer> srv_;
  std::thread thread_;
};

/// A scripted raw-frame backend: answers the handshake and graph
/// staging correctly, then injects one failure mode at the Solve — the
/// chaos matrix at the router<->backend hop.
class FakeBackend {
 public:
  enum class Mode {
    kCloseOnSolve,    // SIGKILL stand-in: socket dies mid-request
    kStallOnSolve,    // SIGSTOP stand-in: never replies, holds the socket
    kCorruptResult,   // Result frame whose payload is garbage
    kWrongDigestResult,  // well-formed Result for the WRONG solve digest
  };

  explicit FakeBackend(Mode mode) : mode_(mode), address_(unique_addr("f")) {
    listener_ = server::Listener::open(address_);
    thread_ = std::thread([this] { accept_loop(); });
  }

  ~FakeBackend() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      stopping_.store(true);
      listener_.wake();
      thread_.join();
    }
  }

  [[nodiscard]] const std::string& address() const { return address_; }
  [[nodiscard]] int solves_seen() const { return solves_seen_.load(); }

 private:
  void accept_loop() {
    while (!stopping_.load()) {
      server::Socket sock = listener_.accept();
      if (!sock.valid()) return;
      serve_conn(sock);  // one connection at a time: enough for tests
    }
  }

  void serve_conn(server::Socket& sock) {
    hg::Hypergraph staged;
    bool have_graph = false;
    server::Frame frame;
    try {
      while (server::read_frame(sock, frame)) {
        PayloadReader r(frame.payload);
        if (frame.tag == FrameTag::kHello) {
          PayloadWriter w;
          w.u32(server::kProtocolVersion);
          w.u32(0);
          write_frame(sock, FrameTag::kHelloOk, w.take());
        } else if (frame.tag == FrameTag::kSubmitGraphBinary) {
          (void)r.u8();  // inline: the router stages text submits as hgb
          staged = hg::read_binary(r.bytes());
          have_graph = true;
          PayloadWriter w;
          w.u64(util::graph_digest(staged));
          w.u32(staged.num_vertices());
          w.u32(staged.num_edges());
          write_frame(sock, FrameTag::kGraphOk, w.take());
        } else if (frame.tag == FrameTag::kSolve) {
          solves_seen_.fetch_add(1);
          switch (mode_) {
            case Mode::kCloseOnSolve:
              return;  // destructor closes the socket mid-request
            case Mode::kStallOnSolve:
              continue;  // no reply; wait for the router to give up
            case Mode::kCorruptResult: {
              PayloadWriter w;
              w.u32(0xdeadbeefU);  // not a decodable Result payload
              write_frame(sock, FrameTag::kResult, w.take());
              break;
            }
            case Mode::kWrongDigestResult: {
              // A fully valid Result — for a different request. The
              // router's digest guard must refuse to forward it.
              if (!have_graph) return;
              std::string algorithm;
              server::SolveKnobs knobs;
              decode_solve(r, algorithm, knobs);
              const api::SolveRequest req = to_request(knobs);
              api::Solution sol = api::solve(algorithm, staged, req);
              const std::uint64_t key =
                  util::solve_digest(staged, algorithm, req);
              PayloadWriter w;
              encode_result(w, sol, /*cache_hit=*/false, key ^ 1);
              write_frame(sock, FrameTag::kResult, w.take());
              break;
            }
          }
        } else {
          return;  // anything else: drop the connection
        }
      }
    } catch (const std::exception&) {
      // Router closed on us (timeout/failover) — expected.
    }
  }

  Mode mode_;
  std::string address_;
  server::Listener listener_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> solves_seen_{0};
};

/// A Router over the given backend addresses, served from a background
/// thread. Timeouts tuned for tests: stalls fail over in ~200 ms and
/// unhealthy backends re-probe within ~10 ms.
class TestRouter {
 public:
  explicit TestRouter(std::vector<std::string> backends,
                      router::RouterOptions opts = {}) {
    opts.listen = unique_addr("r");
    opts.backends = std::move(backends);
    if (opts.backend_timeout_ms == 30000) opts.backend_timeout_ms = 200;
    opts.connect_timeout_ms = 500;
    opts.probe_backoff_ms = 10;
    opts.probe_backoff_max_ms = 50;
    rt_ = std::make_unique<router::Router>(opts);
    rt_->start();
    thread_ = std::thread([this] { rt_->serve(); });
  }

  ~TestRouter() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      rt_->request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] router::Router& router() { return *rt_; }

  [[nodiscard]] server::Client client() const {
    server::Client c;
    c.connect(rt_->address());
    return c;
  }

 private:
  std::unique_ptr<router::Router> rt_;
  std::thread thread_;
};

hg::Hypergraph test_graph(std::uint64_t seed) {
  return hg::random_uniform(30, 60, 3, hg::exponential_weights(8), seed);
}

/// Searches generator seeds for an instance whose default-knob solve
/// digest routes primary to `target` — possible because ring placement
/// is a pure function of the backend list.
hg::Hypergraph graph_with_primary(const HashRing& ring, std::uint32_t target,
                                  const std::string& algo,
                                  std::uint64_t seed0 = 1) {
  const api::SolveRequest req = to_request(server::SolveKnobs{});
  for (std::uint64_t seed = seed0; seed < seed0 + 500; ++seed) {
    hg::Hypergraph g = test_graph(seed);
    if (ring.primary(util::solve_digest(g, algo, req)) == target) return g;
  }
  ADD_FAILURE() << "no seed routed to backend " << target << " in 500 tries";
  return test_graph(seed0);
}

/// The acceptance comparison: a routed WireResult must match a solo
/// api::solve in every protocol-observable quantity.
void expect_matches_solo(const server::WireResult& wire,
                         const hg::Hypergraph& g, const std::string& algo) {
  const api::SolveRequest req = to_request(server::SolveKnobs{});
  const api::Solution solo = api::solve(algo, g, req);
  EXPECT_EQ(wire.transcript_hash, solo.net.transcript_hash);
  EXPECT_EQ(wire.solve_digest, util::solve_digest(g, algo, req));
  EXPECT_EQ(wire.in_cover, solo.in_cover);
  EXPECT_EQ(wire.duals, solo.duals);
  EXPECT_EQ(wire.cover_weight, solo.cover_weight);
  EXPECT_EQ(wire.cert_valid, solo.certificate.valid());
}

// --- consistent-hash ring --------------------------------------------------

TEST(HashRing, StableAndCompleteRouting) {
  const std::vector<std::string> fleet = {"unix:/a.sock", "unix:/b.sock",
                                          "unix:/c.sock"};
  const HashRing ring(fleet);
  const HashRing twin(fleet);  // a second router over the same fleet
  std::vector<std::uint64_t> per_backend(3, 0);
  for (std::uint64_t key = 1; key <= 500; ++key) {
    const std::vector<std::uint32_t> order = ring.route(key * 0x9e3779b9ULL);
    ASSERT_EQ(order.size(), 3u);  // every backend, exactly once
    EXPECT_EQ(std::set<std::uint32_t>(order.begin(), order.end()).size(), 3u);
    EXPECT_EQ(order, ring.route(key * 0x9e3779b9ULL));  // same router
    EXPECT_EQ(order, twin.route(key * 0x9e3779b9ULL));  // any router
    ++per_backend[order[0]];
  }
  // No backend starves: 64 vnodes spread 500 keys roughly evenly.
  for (const std::uint64_t n : per_backend) EXPECT_GT(n, 50u);
}

TEST(HashRing, MembershipChangeRemapsOnlyOrphanedKeys) {
  const std::vector<std::string> fleet = {"unix:/a.sock", "unix:/b.sock",
                                          "unix:/c.sock"};
  const std::vector<std::string> reduced = {"unix:/a.sock", "unix:/b.sock"};
  const HashRing full(fleet);
  const HashRing survivors(reduced);
  std::uint64_t moved = 0, kept = 0;
  for (std::uint64_t key = 1; key <= 500; ++key) {
    const std::uint64_t k = key * 0x9e3779b9ULL;
    const std::uint32_t before = full.primary(k);
    if (before < 2) {
      // Primary survived the membership change: it must keep the key.
      EXPECT_EQ(survivors.primary(k), before);
      ++kept;
    } else {
      ++moved;  // only keys owned by the removed backend remap
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(moved, 0u);
}

// --- socket-layer fixes ----------------------------------------------------

TEST(SocketLayer, RecvTimeoutThrowsTypedSocketTimeout) {
  server::Listener lis = server::Listener::open(unique_addr("to"));
  server::Socket client = server::connect_to(lis.address());
  server::Socket accepted = lis.accept();
  client.set_recv_timeout(50);
  char byte = 0;
  EXPECT_THROW((void)client.recv_all(&byte, 1), server::SocketTimeout);
  // A timeout is a SocketError too — existing catch sites keep working.
  client.set_recv_timeout(1);
  EXPECT_THROW((void)client.recv_all(&byte, 1), server::SocketError);
  // With the peer actually sending, the same deadline passes.
  client.set_recv_timeout(5000);
  accepted.send_all("x", 1);
  ASSERT_TRUE(client.recv_all(&byte, 1));
  EXPECT_EQ(byte, 'x');
}

TEST(SocketLayer, ConnectTimeoutAcceptedOnUnixSockets) {
  server::Listener lis = server::Listener::open(unique_addr("ct"));
  // The deadline path (non-blocking connect + poll) must succeed
  // immediately against a live listener and restore blocking mode.
  server::Socket client = server::connect_to(lis.address(), 1000);
  server::Socket accepted = lis.accept();
  accepted.send_all("y", 1);
  char byte = 0;
  ASSERT_TRUE(client.recv_all(&byte, 1));
  EXPECT_EQ(byte, 'y');
}

TEST(SocketLayer, TcpNodelaySetOnBothEnds) {
  server::Listener lis = server::Listener::open("127.0.0.1:0");
  server::Socket client = server::connect_to(lis.address());
  server::Socket accepted = lis.accept();
  for (const server::Socket* sock : {&client, &accepted}) {
    int value = 0;
    socklen_t len = sizeof(value);
    ASSERT_EQ(::getsockopt(sock->fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len),
              0);
    EXPECT_NE(value, 0) << "Nagle still enabled";
  }
}

// --- Busy retry backoff ----------------------------------------------------

TEST(BusyRetry, ExhaustedRetriesStillThrowBusy) {
  server::ServerOptions opts;
  opts.max_inflight = 0;  // admission rejects every solve
  TestBackend backend(opts);
  server::Client client;
  client.connect(backend.address());
  const hg::Hypergraph g = test_graph(3);
  (void)client.submit_graph_text(hg::to_text(g));
  client.set_busy_retry({.max_retries = 2, .base_delay_ms = 1,
                         .max_delay_ms = 4, .seed = 42});
  EXPECT_THROW((void)client.solve("mwhvc"), server::BusyError);
  // 1 original attempt + 2 retries, each rejected by admission.
  EXPECT_EQ(backend.server().stats().busy_rejections, 3u);
}

TEST(BusyRetry, DefaultPolicyStillFailsFast) {
  server::ServerOptions opts;
  opts.max_inflight = 0;
  TestBackend backend(opts);
  server::Client client;
  client.connect(backend.address());
  (void)client.submit_graph_text(hg::to_text(test_graph(3)));
  EXPECT_THROW((void)client.solve("mwhvc"), server::BusyError);
  EXPECT_EQ(backend.server().stats().busy_rejections, 1u);
}

TEST(BusyRetry, RetryAfterBackoffReachesTheServer) {
  // A scripted server: first Solve answers Busy, the second answers a
  // real Result — the retry must resend a well-formed Solve frame.
  server::Listener lis = server::Listener::open(unique_addr("br"));
  const hg::Hypergraph g = test_graph(5);
  std::thread fake([&lis, &g] {
    server::Socket sock = lis.accept();
    server::Frame frame;
    int solves = 0;
    while (server::read_frame(sock, frame)) {
      PayloadReader r(frame.payload);
      PayloadWriter w;
      if (frame.tag == FrameTag::kHello) {
        w.u32(server::kProtocolVersion);
        w.u32(0);
        write_frame(sock, FrameTag::kHelloOk, w.take());
      } else if (frame.tag == FrameTag::kSubmitGraph) {
        w.u64(util::graph_digest(g));
        w.u32(g.num_vertices());
        w.u32(g.num_edges());
        write_frame(sock, FrameTag::kGraphOk, w.take());
      } else if (frame.tag == FrameTag::kSolve && ++solves == 1) {
        encode_busy(w, {.in_flight = 1, .max_inflight = 1});
        write_frame(sock, FrameTag::kBusy, w.take());
      } else if (frame.tag == FrameTag::kSolve) {
        std::string algorithm;
        server::SolveKnobs knobs;
        decode_solve(r, algorithm, knobs);
        const api::SolveRequest req = to_request(knobs);
        api::Solution sol = api::solve(algorithm, g, req);
        encode_result(w, sol, false, util::solve_digest(g, algorithm, req));
        write_frame(sock, FrameTag::kResult, w.take());
        return;
      }
    }
  });
  server::Client client;
  client.connect(lis.address());
  (void)client.submit_graph_text(hg::to_text(g));
  client.set_busy_retry({.max_retries = 3, .base_delay_ms = 1,
                         .max_delay_ms = 4, .seed = 7});
  const server::WireResult res = client.solve("mwhvc");
  expect_matches_solo(res, g, "mwhvc");
  fake.join();
}

// --- router: routing and parity --------------------------------------------

TEST(Router, BitIdenticalToSoloAcrossAllAlgorithms) {
  TestBackend b0, b1, b2;
  TestRouter rt({b0.address(), b1.address(), b2.address()});
  server::Client client = rt.client();
  const hg::Hypergraph g = test_graph(11);
  const server::GraphInfo info = client.submit_graph_text(hg::to_text(g));
  EXPECT_EQ(info.digest, util::graph_digest(g));
  for (const auto& algo : api::solvers()) {
    SCOPED_TRACE(algo.name);
    const server::WireResult res = client.solve(algo.name);
    expect_matches_solo(res, g, std::string(algo.name));
    EXPECT_FALSE(res.cache_hit);
  }
}

TEST(Router, SameDigestAlwaysLandsOnTheSameBackendCache) {
  TestBackend b0, b1, b2;
  TestRouter rt({b0.address(), b1.address(), b2.address()});
  constexpr int kGraphs = 6;
  // First pass: cold solves, one connection.
  {
    server::Client client = rt.client();
    for (int i = 0; i < kGraphs; ++i) {
      (void)client.submit_graph_text(hg::to_text(test_graph(20 + i)));
      EXPECT_FALSE(client.solve("mwhvc").cache_hit);
    }
  }
  // Second pass on a FRESH connection: every repeat must be a cache
  // hit, which can only happen if the digest routed to the same backend.
  {
    server::Client client = rt.client();
    for (int i = 0; i < kGraphs; ++i) {
      (void)client.submit_graph_text(hg::to_text(test_graph(20 + i)));
      EXPECT_TRUE(client.solve("mwhvc").cache_hit) << "graph " << i;
    }
  }
  std::uint64_t hits = 0, solves = 0;
  for (const router::BackendSnapshot& b : rt.router().backend_snapshots()) {
    hits += b.cache_hits;
    solves += b.solves;
  }
  EXPECT_EQ(hits, kGraphs);
  EXPECT_EQ(solves, 2 * kGraphs);
}

TEST(Router, FleetStatsAggregateTheWholeFleet) {
  TestBackend b0, b1, b2;
  TestRouter rt({b0.address(), b1.address(), b2.address()});
  server::Client client = rt.client();
  for (int i = 0; i < 4; ++i) {
    (void)client.submit_graph_text(hg::to_text(test_graph(40 + i)));
    (void)client.solve("mwhvc");
  }
  const server::ServerStats fleet = client.stats();  // through the router
  const server::ServerStats direct[] = {b0.server().stats(),
                                        b1.server().stats(),
                                        b2.server().stats()};
  std::uint64_t solves = 0, engine_rounds = 0;
  std::uint32_t pool = 0;
  for (const server::ServerStats& s : direct) {
    solves += s.solves;
    engine_rounds += s.engine_rounds;
    pool += s.pool_threads;
  }
  EXPECT_EQ(fleet.solves, solves);
  EXPECT_EQ(fleet.solves, 4u);
  EXPECT_EQ(fleet.engine_rounds, engine_rounds);
  EXPECT_EQ(fleet.pool_threads, pool);
  // The router folds its own client-facing counters on top.
  EXPECT_GE(fleet.connections, direct[0].connections + direct[1].connections +
                                   direct[2].connections);
}

// The router counts the sessions it refuses on both surfaces: the fleet
// StatsReply (router plus backends) and its own scraped
// hc_router_protocol_errors_total move by the same amount, and no
// malformed frame reaches a backend.
TEST(Router, ProtocolErrorsMatchTheScrapedCounter) {
  namespace ts = testing_sessions;
  TestBackend b0;
  TestRouter rt({b0.address()});
  server::Client client = rt.client();
  const char* kCounter = "hc_router_protocol_errors_total";
  const std::uint64_t stats_before = client.stats().protocol_errors;
  const std::uint64_t scraped_before =
      ts::scraped_counter(client.metrics_text(), kCounter);
  ts::play_malformed_sessions(rt.router().address());
  ts::wait_for_count(
      [&] { return client.stats().protocol_errors - stats_before; },
      ts::kMalformedSessions);
  const std::uint64_t stats_delta =
      client.stats().protocol_errors - stats_before;
  EXPECT_EQ(stats_delta, ts::kMalformedSessions);
  EXPECT_EQ(
      ts::scraped_counter(client.metrics_text(), kCounter) - scraped_before,
      stats_delta);
  EXPECT_EQ(b0.server().stats().protocol_errors, 0u);
}

// A failed stats probe is one backend failure on both surfaces: the
// BackendSnapshot and the scraped per-backend series.
TEST(Router, FailedStatsProbeCountsOneBackendFailure) {
  namespace ts = testing_sessions;
  const std::string dead = unique_addr("dead");  // nobody listens here
  TestRouter rt({dead});
  (void)rt.router().fleet_stats();
  EXPECT_EQ(rt.router().backend_snapshots()[0].failures, 1u);
  server::Client client = rt.client();
  EXPECT_EQ(ts::scraped_counter(
                client.metrics_text(),
                "hc_router_backend_failures_total{backend=\"" + dead + "\"}"),
            1u);
}

// --- router: fault injection ------------------------------------------------

TEST(Router, RetryOnKilledBackendIsBitIdentical) {
  TestBackend real;
  FakeBackend dying(FakeBackend::Mode::kCloseOnSolve);
  TestRouter rt({real.address(), dying.address()});
  const HashRing ring({real.address(), dying.address()});
  // Steer the request at the dying backend, so the kill happens
  // mid-solve and the retry path must produce the Solution.
  const hg::Hypergraph g = graph_with_primary(ring, 1, "mwhvc");
  server::Client client = rt.client();
  (void)client.submit_graph_text(hg::to_text(g));
  const server::WireResult res = client.solve("mwhvc");
  expect_matches_solo(res, g, "mwhvc");
  EXPECT_GE(dying.solves_seen(), 1);
  EXPECT_GE(rt.router().retries(), 1u);
  const auto snaps = rt.router().backend_snapshots();
  EXPECT_FALSE(snaps[1].healthy);
  EXPECT_GE(snaps[1].failures, 1u);
  EXPECT_EQ(snaps[0].solves, 1u);
}

TEST(Router, StalledBackendTimesOutAndFailsOver) {
  TestBackend real;
  FakeBackend stalled(FakeBackend::Mode::kStallOnSolve);
  TestRouter rt({real.address(), stalled.address()});
  const HashRing ring({real.address(), stalled.address()});
  const hg::Hypergraph g = graph_with_primary(ring, 1, "mwhvc");
  server::Client client = rt.client();
  (void)client.submit_graph_text(hg::to_text(g));
  const server::WireResult res = client.solve("mwhvc");  // ~200 ms stall
  expect_matches_solo(res, g, "mwhvc");
  EXPECT_GE(stalled.solves_seen(), 1);
  EXPECT_FALSE(rt.router().backend_snapshots()[1].healthy);
}

TEST(Router, CorruptAndWrongDigestResultsAreCaughtByTheGuard) {
  for (const auto mode : {FakeBackend::Mode::kCorruptResult,
                          FakeBackend::Mode::kWrongDigestResult}) {
    TestBackend real;
    FakeBackend lying(mode);
    TestRouter rt({real.address(), lying.address()});
    const HashRing ring({real.address(), lying.address()});
    const hg::Hypergraph g = graph_with_primary(ring, 1, "mwhvc");
    server::Client client = rt.client();
    (void)client.submit_graph_text(hg::to_text(g));
    const server::WireResult res = client.solve("mwhvc");
    expect_matches_solo(res, g, "mwhvc");  // the lie never reached us
    EXPECT_GE(lying.solves_seen(), 1);
    EXPECT_GE(rt.router().backend_snapshots()[1].failures, 1u);
  }
}

TEST(Router, UnhealthyBackendRecoversThroughProbeBackoff) {
  TestBackend real;
  const std::string revivable = unique_addr("rev");
  TestRouter rt({real.address(), revivable});
  const HashRing ring({real.address(), revivable});
  const hg::Hypergraph g = graph_with_primary(ring, 1, "mwhvc");
  server::Client client = rt.client();
  (void)client.submit_graph_text(hg::to_text(g));
  // Nobody listens on the revivable address yet: the attempt fails over
  // to the real backend and marks it unhealthy.
  expect_matches_solo(client.solve("mwhvc"), g, "mwhvc");
  EXPECT_FALSE(rt.router().backend_snapshots()[1].healthy);
  // Bring the backend up on the same address and wait out the probe
  // backoff (10-50 ms in tests); the next request IS the probe.
  TestBackend revived({}, revivable);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const hg::Hypergraph g2 = graph_with_primary(ring, 1, "mwhvc", 1000);
  (void)client.submit_graph_text(hg::to_text(g2));
  expect_matches_solo(client.solve("mwhvc"), g2, "mwhvc");
  const auto snaps = rt.router().backend_snapshots();
  EXPECT_TRUE(snaps[1].healthy);
  EXPECT_GE(snaps[1].solves, 1u);
}

TEST(Router, ChaosMixUnderConcurrentClients) {
  // Three healthy backends plus one of each misbehaving kind; every
  // solve from every concurrent client must still come back
  // bit-identical to solo. (CI runs this under ASan and TSan.)
  TestBackend b0, b1, b2;
  FakeBackend dying(FakeBackend::Mode::kCloseOnSolve);
  FakeBackend stalled(FakeBackend::Mode::kStallOnSolve);
  FakeBackend lying(FakeBackend::Mode::kCorruptResult);
  TestRouter rt({b0.address(), b1.address(), b2.address(), dying.address(),
                 stalled.address(), lying.address()});
  constexpr int kThreads = 3, kSolvesPerThread = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([t, &rt, &failures] {
      try {
        server::Client client = rt.client();
        for (int i = 0; i < kSolvesPerThread; ++i) {
          const hg::Hypergraph g = test_graph(100 + t * kSolvesPerThread + i);
          (void)client.submit_graph_text(hg::to_text(g));
          const server::WireResult res = client.solve("mwhvc");
          const api::Solution solo =
              api::solve("mwhvc", g, to_request(server::SolveKnobs{}));
          if (res.transcript_hash != solo.net.transcript_hash ||
              res.in_cover != solo.in_cover) {
            failures.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The fleet served every request despite the misbehaving backends.
  std::uint64_t solves = 0;
  for (const auto& b : rt.router().backend_snapshots()) solves += b.solves;
  EXPECT_EQ(solves, kThreads * kSolvesPerThread);
}

// --- router: protocol edges -------------------------------------------------

TEST(Router, SolveBeforeSubmitAndUnknownAlgorithmAnswerError) {
  TestBackend b0;
  TestRouter rt({b0.address()});
  server::Client client = rt.client();
  EXPECT_THROW((void)client.solve("mwhvc"), server::RemoteError);
  (void)client.submit_graph_text(hg::to_text(test_graph(7)));
  EXPECT_THROW((void)client.solve("no-such-algorithm"), server::RemoteError);
  // The connection survives both errors.
  expect_matches_solo(client.solve("mwhvc"), test_graph(7), "mwhvc");
}

TEST(Router, BinaryGraphSubmissionRoutesLikeText) {
  TestBackend b0, b1;
  TestRouter rt({b0.address(), b1.address()});
  server::Client client = rt.client();
  const hg::Hypergraph g = test_graph(13);
  const std::vector<std::uint8_t> hgb = hg::write_binary(g);
  const server::GraphInfo info = client.submit_graph_binary(hgb);
  EXPECT_EQ(info.digest, util::graph_digest(g));
  const server::WireResult cold = client.solve("mwhvc");
  expect_matches_solo(cold, g, "mwhvc");
  EXPECT_TRUE(client.solve("mwhvc").cache_hit);  // same shard, warm cache

  // The same graph as non-canonical text: a comment line, tabs, and
  // every edge's members in descending order. The router parses it and
  // stages its hgb, so the backend must agree on the digest and serve
  // the binary submit's Result.
  std::string text = "# members unsorted, tab separated\nhypergraph";
  for (const std::uint32_t count : {g.num_vertices(), g.num_edges()}) {
    text += '\t';
    text += std::to_string(count);
  }
  text += '\n';
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    text += std::to_string(g.weight(v));
    text += '\t';
  }
  text += "\n";
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto members = g.vertices_of(e);
    text += std::to_string(members.size());
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      text += '\t';
      text += std::to_string(*it);
    }
    text += "\n";
  }
  ASSERT_NE(text, hg::to_text(g));
  const server::GraphInfo text_info = client.submit_graph_text(text);
  EXPECT_EQ(text_info.digest, util::graph_digest(hg::from_text(text)));
  EXPECT_EQ(text_info.digest, info.digest);
  const server::WireResult warm = client.solve("mwhvc");
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.solve_digest, cold.solve_digest);
  EXPECT_EQ(warm.transcript_hash, cold.transcript_hash);
  EXPECT_EQ(warm.in_cover, cold.in_cover);
  EXPECT_EQ(warm.duals, cold.duals);
  EXPECT_EQ(warm.cover_weight, cold.cover_weight);
}

// A text that fits the frame cap can outgrow it once the router stages
// it as hgb. The router must refuse it at submit time: a backend would
// drop the oversized frame and the router would count a healthy backend
// as failed.
TEST(Router, StagedGraphOverTheFrameCapIsRefusedAtSubmit) {
  namespace ts = testing_sessions;
  constexpr std::uint32_t kCap = 1500;
  server::ServerOptions backend_opts;
  backend_opts.max_frame_bytes = kCap;
  TestBackend b0(backend_opts);
  router::RouterOptions opts;
  opts.max_frame_bytes = kCap;
  TestRouter rt({b0.address()}, opts);
  const hg::Hypergraph g = test_graph(17);
  const std::string text = hg::to_text(g);
  ASSERT_LT(text.size() + 5, kCap);
  ASSERT_GT(hg::write_binary(g).size(), kCap);

  server::Client client = rt.client();
  const char* kAttempts = "hc_router_attempts_total";
  const std::uint64_t attempts_before =
      ts::scraped_counter(client.metrics_text(), kAttempts);
  EXPECT_THROW((void)client.submit_graph_text(text), server::RemoteError);
  // Nothing was staged, so a Solve has no graph to route.
  EXPECT_THROW((void)client.solve("mwhvc"), server::RemoteError);
  EXPECT_EQ(ts::scraped_counter(client.metrics_text(), kAttempts),
            attempts_before);
  EXPECT_EQ(b0.server().stats().connections, 0u);
  const auto snaps = rt.router().backend_snapshots();
  EXPECT_TRUE(snaps[0].healthy);
  EXPECT_EQ(snaps[0].failures, 0u);
  // The connection survives, and a graph whose hgb fits is served.
  const hg::Hypergraph small =
      hg::random_uniform(8, 6, 3, hg::exponential_weights(8), 3);
  ASSERT_LT(hg::write_binary(small).size() + 5, kCap);
  (void)client.submit_graph_text(hg::to_text(small));
  expect_matches_solo(client.solve("mwhvc"), small, "mwhvc");
}

}  // namespace
}  // namespace hypercover
