#include "router/router.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/registry.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "router/ring.hpp"
#include "server/client.hpp"
#include "server/socket.hpp"
#include "util/digest.hpp"

namespace hypercover::router {

using server::Frame;
using server::FrameTag;
using server::PayloadReader;
using server::PayloadWriter;
using server::ProtocolError;
using server::ServerStats;
using server::Socket;
using server::SocketError;

namespace {

/// Graph kinds on a SubmitGraph / SubmitGraphBinary frame (wire.hpp).
constexpr std::uint8_t kGraphInline = 0;
constexpr std::uint8_t kGraphByPath = 1;

/// Monotonic milliseconds for health-probe scheduling. Wall time here
/// never reaches a result, transcript, or digest — it only decides WHEN
/// an unhealthy backend gets its next probe, and every probe outcome is
/// re-derived from the deterministic solve itself.
std::uint64_t now_ms() noexcept {
  // [[hypercover::nondet_ok: health-probe scheduling only; timing never
  //    influences which Solution bytes a request receives]]
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(t).count());
}

/// Field-wise sum of two stats snapshots — the fleet aggregate is the
/// sum of its parts (capacity fields like max_inflight and pool_threads
/// sum too: fleet capacity is additive).
void accumulate(ServerStats& total, const ServerStats& s) {
  total.connections += s.connections;
  total.requests += s.requests;
  total.solves += s.solves;
  total.cache_hits += s.cache_hits;
  total.cache_misses += s.cache_misses;
  total.cache_evictions += s.cache_evictions;
  total.busy_rejections += s.busy_rejections;
  total.protocol_errors += s.protocol_errors;
  total.in_flight += s.in_flight;
  total.queued_bytes += s.queued_bytes;
  total.cache_entries += s.cache_entries;
  total.pool_threads += s.pool_threads;
  total.max_inflight += s.max_inflight;
  total.engine_rounds += s.engine_rounds;
  total.engine_agent_steps += s.engine_agent_steps;
  total.engine_step_cycles += s.engine_step_cycles;
  total.engine_slots_processed += s.engine_slots_processed;
  total.engine_clear_slots += s.engine_clear_slots;
  total.engine_sparse_clear_passes += s.engine_sparse_clear_passes;
  total.engine_dense_clear_passes += s.engine_dense_clear_passes;
}

}  // namespace

struct Router::Impl {
  explicit Impl(const RouterOptions& options)
      : opts(options), ring(options.backends, options.vnodes) {
    if (opts.backends.empty()) {
      throw std::invalid_argument("Router: no backends configured");
    }
    backends.reserve(opts.backends.size());
    for (const std::string& addr : opts.backends) {
      backends.push_back(std::make_unique<BackendState>(addr));
    }
  }

  RouterOptions opts;
  HashRing ring;
  server::Listener listener;
  bool started = false;
  std::atomic<bool> stopping{false};

  // Router-local counters (folded into the fleet StatsReply).
  std::atomic<std::uint64_t> connections{0}, requests{0}, protocol_errors{0},
      retries{0}, exhausted{0};

  // Registry instruments, resolved once (the registry lookup takes a
  // mutex; the forward path must not).
  obs::Counter& m_requests = obs::metrics().counter("hc_router_requests_total");
  obs::Counter& m_solves = obs::metrics().counter("hc_router_solves_total");
  obs::Counter& m_attempts = obs::metrics().counter("hc_router_attempts_total");
  obs::Counter& m_retries = obs::metrics().counter("hc_router_retries_total");
  obs::Counter& m_exhausted =
      obs::metrics().counter("hc_router_exhausted_total");
  obs::Counter& m_connections =
      obs::metrics().counter("hc_router_connections_total");
  obs::Counter& m_proto_errors =
      obs::metrics().counter("hc_router_protocol_errors_total");
  obs::Counter& m_health_flips =
      obs::metrics().counter("hc_router_health_flips_total");
  obs::Histogram& m_solve_latency_ms =
      obs::metrics().histogram("hc_router_solve_latency_ms");

  /// Shared health + traffic registry for one backend. Health decisions
  /// (skip vs probe) take the mutex; traffic counters are atomics so the
  /// hot forward path never contends on them.
  struct BackendState {
    explicit BackendState(std::string address_)
        : address(std::move(address_)),
          m_solves(obs::metrics().counter(
              "hc_router_backend_solves_total{backend=\"" + address + "\"}")),
          m_failures(obs::metrics().counter(
              "hc_router_backend_failures_total{backend=\"" + address +
              "\"}")) {}
    const std::string address;
    obs::Counter& m_solves;
    obs::Counter& m_failures;

    std::mutex mu;  // guards healthy / consecutive_failures / next_probe_ms
    bool healthy = true;
    std::uint32_t consecutive_failures = 0;
    std::uint64_t next_probe_ms = 0;

    std::atomic<std::uint64_t> solves{0}, cache_hits{0}, busy{0}, failures{0};
  };
  std::vector<std::unique_ptr<BackendState>> backends;

  struct Conn {
    std::thread thread;
    Socket* sock = nullptr;
    std::atomic<bool> done{false};
  };
  std::mutex conns_mu;
  std::vector<std::unique_ptr<Conn>> conns;

  // --- backend health -------------------------------------------------------

  /// May this backend receive a request now? Healthy: always. Unhealthy:
  /// only once its probe window opened — and that request IS the probe.
  bool usable(std::uint32_t b) {
    BackendState& st = *backends[b];
    std::lock_guard<std::mutex> lock(st.mu);
    return st.healthy || now_ms() >= st.next_probe_ms;
  }

  void mark_failure(std::uint32_t b) {
    BackendState& st = *backends[b];
    st.failures.fetch_add(1, std::memory_order_relaxed);
    st.m_failures.inc();
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.healthy) m_health_flips.inc();
    st.healthy = false;
    st.consecutive_failures =
        std::min(st.consecutive_failures + 1, std::uint32_t{31});
    const std::uint64_t backoff = std::min<std::uint64_t>(
        opts.probe_backoff_max_ms,
        std::uint64_t(opts.probe_backoff_ms)
            << std::min(st.consecutive_failures - 1, 16U));
    st.next_probe_ms = now_ms() + backoff;
  }

  void mark_success(std::uint32_t b) {
    BackendState& st = *backends[b];
    std::lock_guard<std::mutex> lock(st.mu);
    st.healthy = true;
    st.consecutive_failures = 0;
  }

  // --- per-connection state -------------------------------------------------

  /// The client's staged graph: the SubmitGraphBinary payload backends
  /// are staged with, plus the digest/shape the router derived itself.
  /// A binary submit is kept verbatim; a text submit is kept as the
  /// inline hgb of the graph the router parsed, so backends validate
  /// and adopt it instead of parsing the text a second time.
  struct ConnGraph {
    bool have = false;
    std::vector<std::uint8_t> payload;
    std::uint64_t digest = 0;
    std::uint32_t vertices = 0;
    std::uint32_t edges = 0;
  };

  /// One handler's lazily-connected upstream to one backend. Stateful
  /// by protocol design: have_graph tracks what THIS connection staged.
  /// version is what the Hello negotiation settled on — a v3 backend
  /// must never see v4 trace tails.
  struct Upstream {
    Socket sock;
    bool ready = false;
    bool have_graph = false;
    std::uint64_t staged_digest = 0;
    std::uint32_t version = server::kProtocolVersion;

    void reset() noexcept {
      sock.close();
      ready = false;
      have_graph = false;
    }
  };

  void send_error(Socket& sock, const std::string& message) {
    PayloadWriter w;
    w.str(message);
    write_frame(sock, FrameTag::kError, w.take());
  }

  /// Counts one protocol violation on both surfaces, the StatsReply
  /// counter and the scraped one, so the two cannot drift apart.
  void count_protocol_error() {
    protocol_errors.fetch_add(1, std::memory_order_relaxed);
    m_proto_errors.inc();
  }

  /// Same trailing-bytes discipline as the server (see server.cpp):
  /// accepting a prefix of a request acts on half a request.
  bool consumed_all(Socket& sock, const PayloadReader& r, const char* what) {
    if (r.done()) return true;
    count_protocol_error();
    send_error(sock, std::string(what) + " carries " +
                         std::to_string(r.remaining()) +
                         " trailing payload bytes");
    return false;
  }

  // --- graph submission -----------------------------------------------------

  /// Derives digest/shape from a submit payload and keeps what backends
  /// will be staged with. Text is parsed here once and restaged as an
  /// inline SubmitGraphBinary, whose content digest the backend
  /// validates before adopting it; binary payloads go out verbatim.
  /// Returns false to drop the connection.
  bool handle_submit(Socket& sock, FrameTag tag, Frame& frame,
                     ConnGraph& state) {
    PayloadReader r(frame.payload);
    const std::uint8_t kind = r.u8();
    hg::Hypergraph parsed;
    try {
      if (tag == FrameTag::kSubmitGraph) {
        std::string text;
        if (kind == kGraphInline) {
          text = r.str();
          if (!consumed_all(sock, r, "SubmitGraph")) return false;
        } else if (kind == kGraphByPath) {
          const std::string path = r.str();
          if (!consumed_all(sock, r, "SubmitGraph")) return false;
          std::ifstream in(path, std::ios::binary);
          if (!in) {
            send_error(sock, "cannot open graph file: " + path);
            return true;
          }
          // Bounded slurp, same rationale as the server's: a by-path
          // file must not balloon past what an inline frame could carry.
          char buf[64 * 1024];
          while (text.size() <= opts.max_frame_bytes &&
                 (in.read(buf, sizeof(buf)), in.gcount() > 0)) {
            text.append(buf, static_cast<std::size_t>(in.gcount()));
          }
          if (text.size() > opts.max_frame_bytes) {
            send_error(sock, "graph file exceeds the frame cap: " + path);
            return true;
          }
        } else {
          send_error(sock, "unknown SubmitGraph kind " + std::to_string(kind));
          return true;
        }
        frame.payload = std::vector<std::uint8_t>();  // `text` has it now
        parsed = hg::from_text(text);
      } else {  // kSubmitGraphBinary
        if (kind == kGraphInline) {
          auto blob =
              std::make_shared<const std::vector<std::uint8_t>>(r.bytes());
          if (!consumed_all(sock, r, "SubmitGraphBinary")) return false;
          const std::span<const std::uint8_t> view(*blob);
          parsed = hg::adopt_binary(view, std::move(blob));
        } else if (kind == kGraphByPath) {
          const std::string path = r.str();
          if (!consumed_all(sock, r, "SubmitGraphBinary")) return false;
          std::error_code ec;
          const auto size = std::filesystem::file_size(path, ec);
          if (ec) {
            send_error(sock, "cannot stat graph file: " + path);
            return true;
          }
          if (size > opts.max_frame_bytes) {
            send_error(sock, "graph file exceeds the frame cap: " + path);
            return true;
          }
          parsed = hg::map_file(path);
        } else {
          send_error(sock,
                     "unknown SubmitGraphBinary kind " + std::to_string(kind));
          return true;
        }
      }
    } catch (const std::exception& ex) {
      send_error(sock, std::string("bad graph: ") + ex.what());
      return true;
    }
    std::vector<std::uint8_t> staged;
    if (tag == FrameTag::kSubmitGraph) {
      // Kind byte and u32 length, then the image appended in place: one
      // image-sized buffer, written after the text was released.
      staged = {kGraphInline, 0, 0, 0, 0};
      hg::append_binary(staged, parsed);
      // hgb spends 8 bytes per incidence, so a text that fit the frame
      // cap can outgrow it. Refuse here: a backend would drop the frame,
      // and the router would count a healthy backend as failed.
      if (staged.size() > opts.max_frame_bytes) {
        send_error(sock, "graph exceeds the frame cap once staged as hgb (" +
                             std::to_string(staged.size()) + " > " +
                             std::to_string(opts.max_frame_bytes) + " bytes)");
        return true;
      }
      const std::size_t image = staged.size() - 5;
      for (std::size_t i = 0; i < 4; ++i) {
        staged[1 + i] = static_cast<std::uint8_t>(image >> (8 * i));
      }
    } else {
      staged = std::move(frame.payload);
    }
    state.have = true;
    state.payload = std::move(staged);
    state.digest = util::graph_digest(parsed);
    state.vertices = parsed.num_vertices();
    state.edges = parsed.num_edges();
    PayloadWriter w;
    w.u64(state.digest);
    w.u32(state.vertices);
    w.u32(state.edges);
    write_frame(sock, FrameTag::kGraphOk, w.take());
    return true;
  }

  // --- backend forwarding ---------------------------------------------------

  /// One connect + Hello exchange at a specific version. Returns false
  /// when the backend answered Error — the way a v3 backend rejects a
  /// v4 Hello (it also drops the connection, so the caller reconnects).
  bool try_handshake(Upstream& up, std::uint32_t b, std::uint32_t version) {
    up.sock = server::connect_to(backends[b]->address, opts.connect_timeout_ms);
    up.sock.set_recv_timeout(opts.backend_timeout_ms);
    PayloadWriter w;
    w.u32(version);
    write_frame(up.sock, FrameTag::kHello, w.take());
    Frame reply;
    if (!read_frame(up.sock, reply, opts.max_frame_bytes)) {
      throw ProtocolError("backend closed during handshake");
    }
    if (reply.tag == FrameTag::kError) return false;
    if (reply.tag != FrameTag::kHelloOk) {
      throw ProtocolError("backend refused handshake");
    }
    PayloadReader r(reply.payload);
    const std::uint32_t got = r.u32();
    if (got < server::kMinProtocolVersion || got > version) {
      throw ProtocolError("backend protocol version mismatch");
    }
    up.version = got;
    return true;
  }

  void ensure_ready(Upstream& up, std::uint32_t b) {
    if (up.ready) return;
    if (!try_handshake(up, b, server::kProtocolVersion) &&
        !try_handshake(up, b, server::kMinProtocolVersion)) {
      throw ProtocolError("backend refused handshake");
    }
    up.ready = true;
  }

  Frame upstream_round_trip(Upstream& up, FrameTag tag,
                            const std::vector<std::uint8_t>& payload) {
    write_frame(up.sock, tag, payload);
    Frame reply;
    if (!read_frame(up.sock, reply, opts.max_frame_bytes)) {
      throw ProtocolError("backend closed instead of replying");
    }
    return reply;
  }

  /// Outcome of one backend attempt.
  enum class Attempt {
    kReplied,   // a reply went to the client — request done
    kFailed,    // backend failed (marked unhealthy) — try next ring node
    kRejected,  // backend answered Error at staging — try next, no penalty
  };

  /// Tries to serve one Solve on backend `b`: stage the graph if this
  /// upstream doesn't hold it, forward the Solve, validate the reply
  /// (full decode + digest guard — a corrupting backend is caught HERE,
  /// not at the client), forward it. Throws SocketError/ProtocolError on
  /// anything that should fail the backend over.
  ///
  /// Tracing: `tid` is the request's trace id (0 = untraced; a local
  /// trace_local id when the client sent none). When the CLIENT traced
  /// (`wire_traced`), the forwarded Solve is re-parented under this
  /// attempt's span (a v3 upstream gets the trace tail stripped
  /// instead), and the backend's Result is re-encoded with the router's
  /// own spans appended before it goes to the client.
  Attempt try_backend(Socket& client, Upstream& up, std::uint32_t b,
                      const ConnGraph& state,
                      const std::vector<std::uint8_t>& solve_payload,
                      std::uint64_t key, std::uint64_t tid, bool wire_traced,
                      obs::Span& route_span, std::uint32_t attempt_index,
                      std::string& last_error) {
    BackendState& st = *backends[b];
    obs::Span attempt_span(obs::recorder(), "router.attempt",
                           obs::Proc::kRouter, tid, route_span.id(),
                           attempt_index);
    m_attempts.inc();
    ensure_ready(up, b);
    if (!up.have_graph || up.staged_digest != state.digest) {
      up.have_graph = false;
      const Frame reply = upstream_round_trip(
          up, FrameTag::kSubmitGraphBinary, state.payload);
      if (reply.tag == FrameTag::kGraphOk) {
        PayloadReader g(reply.payload);
        const std::uint64_t digest = g.u64();
        if (digest != state.digest) {
          throw ProtocolError("backend staged digest mismatch");
        }
        up.have_graph = true;
        up.staged_digest = digest;
      } else if (reply.tag == FrameTag::kBusy) {
        PayloadReader busy(reply.payload);
        (void)server::decode_busy(busy);  // validate before forwarding
        st.busy.fetch_add(1, std::memory_order_relaxed);
        mark_success(b);
        log_busy(b, key, tid);
        write_frame(client, FrameTag::kBusy, reply.payload);
        return Attempt::kReplied;
      } else if (reply.tag == FrameTag::kError) {
        // Request-specific rejection: a by-path hgb file this backend
        // cannot see or map (text is staged as a valid inline hgb, so
        // it never lands here). The backend is alive — no health
        // penalty, but another ring node may still be able to serve it.
        PayloadReader e(reply.payload);
        last_error = e.str();
        mark_success(b);
        return Attempt::kRejected;
      } else {
        throw ProtocolError("unexpected staging reply tag " +
                            std::to_string(static_cast<unsigned>(reply.tag)));
      }
    }
    // A traced Solve payload ends in the 16-byte trace tail. Re-parent
    // the forwarded copy under this attempt's span (the backend's spans
    // then stitch below it); a v3 upstream gets the tail stripped — it
    // would reject the bytes it cannot decode.
    const std::vector<std::uint8_t>* fwd = &solve_payload;
    std::vector<std::uint8_t> patched;
    if (wire_traced) {
      patched = solve_payload;
      if (up.version >= server::kProtocolVersion) {
        const std::uint64_t parent = attempt_span.id();
        std::uint8_t* tail =
            patched.data() + patched.size() - server::kTraceParentTailOffset;
        for (std::size_t i = 0; i < 8; ++i) {
          tail[i] = static_cast<std::uint8_t>(parent >> (8 * i));
        }
      } else {
        patched.resize(patched.size() - 16);
      }
      fwd = &patched;
    }
    const Frame reply = upstream_round_trip(up, FrameTag::kSolve, *fwd);
    if (reply.tag == FrameTag::kResult) {
      PayloadReader res(reply.payload);
      server::WireResult wire = server::decode_result(res);
      if (!res.done() || wire.solve_digest != key) {
        throw ProtocolError("backend Result failed the digest guard");
      }
      mark_success(b);
      st.solves.fetch_add(1, std::memory_order_relaxed);
      st.m_solves.inc();
      if (wire.cache_hit) st.cache_hits.fetch_add(1, std::memory_order_relaxed);
      if (wire_traced) {
        // Close the router spans and ship them with the backend's on the
        // re-encoded Result (canonical re-encode, digest untouched).
        attempt_span.end();
        route_span.end();
        const auto mine = obs::recorder().collect(tid);
        wire.spans.insert(wire.spans.end(), mine.begin(), mine.end());
        PayloadWriter w;
        server::encode_result(w, wire);
        write_frame(client, FrameTag::kResult, w.take());
      } else {
        write_frame(client, FrameTag::kResult, reply.payload);
      }
      return Attempt::kReplied;
    }
    if (reply.tag == FrameTag::kBusy) {
      PayloadReader busy(reply.payload);
      (void)server::decode_busy(busy);
      st.busy.fetch_add(1, std::memory_order_relaxed);
      mark_success(b);
      log_busy(b, key, tid);
      write_frame(client, FrameTag::kBusy, reply.payload);
      return Attempt::kReplied;
    }
    if (reply.tag == FrameTag::kError) {
      // A semantic solve failure is deterministic — every backend would
      // say the same — so forward it rather than burn the ring.
      PayloadReader e(reply.payload);
      const std::string message = e.str();
      mark_success(b);
      send_error(client, message);
      return Attempt::kReplied;
    }
    throw ProtocolError("unexpected Solve reply tag " +
                        std::to_string(static_cast<unsigned>(reply.tag)));
  }

  void log_busy(std::uint32_t b, std::uint64_t key, std::uint64_t tid) {
    if (!opts.verbose) return;
    std::fprintf(stderr,
                 "solve-router: busy: backend %s rejected solve 0x%08" PRIx64
                 " trace 0x%016" PRIx64 "\n",
                 backends[b]->address.c_str(), key >> 32, tid);
  }

  /// Returns false when the client connection must be dropped.
  bool handle_solve(Socket& client, PayloadReader& r, const Frame& frame,
                    const ConnGraph& state, std::vector<Upstream>& ups) {
    std::string algorithm;
    server::SolveKnobs knobs;
    server::TraceContext trace;
    decode_solve(r, algorithm, knobs, &trace);
    if (!consumed_all(client, r, "Solve")) return false;
    if (!state.have) {
      send_error(client, "Solve before SubmitGraph");
      return true;
    }
    if (api::find_solver(algorithm) == nullptr) {
      send_error(client, "unknown algorithm \"" + algorithm + "\"");
      return true;
    }
    const std::uint64_t key =
        util::solve_digest(state.digest, algorithm, to_request(knobs));
    const std::vector<std::uint32_t> order = ring.route(key);

    const bool wire_traced = trace.trace_id != 0;
    std::uint64_t tid = trace.trace_id;
    if (!wire_traced && opts.trace_local) tid = obs::new_id();
    const std::uint64_t t0 = obs::now_ns();
    obs::Span route_span(obs::recorder(), "router.route", obs::Proc::kRouter,
                         tid, trace.parent_span_id);

    std::string last_error;
    std::uint32_t attempt_index = 0;
    for (const std::uint32_t b : order) {
      if (!usable(b)) continue;
      if (attempt_index > 0) {
        retries.fetch_add(1, std::memory_order_relaxed);
        m_retries.inc();
      }
      try {
        const Attempt outcome =
            try_backend(client, ups[b], b, state, frame.payload, key, tid,
                        wire_traced, route_span, attempt_index, last_error);
        ++attempt_index;
        if (outcome == Attempt::kReplied) {
          m_solves.inc();
          m_solve_latency_ms.observe((obs::now_ns() - t0) / 1'000'000);
          return true;
        }
        // kRejected: fall through to the next ring node.
      } catch (const SocketError& ex) {
        ++attempt_index;
        last_error = ex.what();
        log_failover(b, key, tid, ex.what());
        ups[b].reset();
        mark_failure(b);
      } catch (const ProtocolError& ex) {
        ++attempt_index;
        last_error = ex.what();
        log_failover(b, key, tid, ex.what());
        ups[b].reset();
        mark_failure(b);
      }
    }
    exhausted.fetch_add(1, std::memory_order_relaxed);
    m_exhausted.inc();
    if (opts.verbose) {
      std::fprintf(stderr,
                   "solve-router: exhausted: no backend for solve 0x%08" PRIx64
                   " trace 0x%016" PRIx64 "\n",
                   key >> 32, tid);
    }
    send_error(client, "no healthy backend could serve the request" +
                           (last_error.empty() ? std::string()
                                               : " (last: " + last_error + ")"));
    return true;
  }

  void log_failover(std::uint32_t b, std::uint64_t key, std::uint64_t tid,
                    const char* why) {
    if (!opts.verbose) return;
    std::fprintf(stderr,
                 "solve-router: failover: backend %s failed solve 0x%08" PRIx64
                 " trace 0x%016" PRIx64 ": %s\n",
                 backends[b]->address.c_str(), key >> 32, tid, why);
  }

  // --- stats / shutdown -----------------------------------------------------

  /// Queries every usable backend over a fresh short-lived connection
  /// (handler upstreams are stateful; stats must not disturb them) and
  /// sums. An unreachable backend is marked failed and contributes 0.
  ServerStats fleet_snapshot() {
    ServerStats total;
    for (std::uint32_t b = 0; b < backends.size(); ++b) {
      if (!usable(b)) continue;
      try {
        server::Client probe;
        probe.connect(backends[b]->address, opts.backend_timeout_ms);
        accumulate(total, probe.stats());
        mark_success(b);
      } catch (const std::exception&) {
        backends[b]->failures.fetch_add(1, std::memory_order_relaxed);
        mark_failure(b);
      }
    }
    total.connections += connections.load(std::memory_order_relaxed);
    total.requests += requests.load(std::memory_order_relaxed);
    total.protocol_errors += protocol_errors.load(std::memory_order_relaxed);
    return total;
  }

  /// Best-effort fleet shutdown: every backend gets a Shutdown frame;
  /// dead ones are skipped (they are already down, which is the goal).
  void shutdown_fleet() {
    for (const std::unique_ptr<BackendState>& st : backends) {
      try {
        server::Client probe;
        probe.connect(st->address, opts.connect_timeout_ms);
        probe.shutdown_server();
      } catch (const std::exception&) {
        // Unreachable backend: nothing to shut down.
      }
    }
  }

  // --- connection loop ------------------------------------------------------

  void handle_connection(Socket& sock) {
    ConnGraph state;
    std::vector<Upstream> ups(backends.size());
    bool greeted = false;
    Frame frame;
    try {
      while (read_frame(sock, frame, opts.max_frame_bytes)) {
        requests.fetch_add(1, std::memory_order_relaxed);
        m_requests.inc();
        PayloadReader r(frame.payload);
        if (!greeted && frame.tag != FrameTag::kHello) {
          count_protocol_error();
          send_error(sock, "first frame must be Hello");
          return;
        }
        switch (frame.tag) {
          case FrameTag::kHello: {
            const std::uint32_t version = r.u32();
            if (!consumed_all(sock, r, "Hello")) return;
            if (version < server::kMinProtocolVersion ||
                version > server::kProtocolVersion) {
              count_protocol_error();
              send_error(sock,
                         "protocol version " + std::to_string(version) +
                             " unsupported (router speaks " +
                             std::to_string(server::kProtocolVersion) + ")");
              return;
            }
            greeted = true;
            PayloadWriter w;
            // Echo the CLIENT's version: the router speaks both, and a
            // v3 client must see the handshake it expects.
            w.u32(version);
            w.u32(static_cast<std::uint32_t>(api::solvers().size()));
            write_frame(sock, FrameTag::kHelloOk, w.take());
            break;
          }
          case FrameTag::kSubmitGraph:
          case FrameTag::kSubmitGraphBinary:
            if (!handle_submit(sock, frame.tag, frame, state)) return;
            break;
          case FrameTag::kSolve:
            if (!handle_solve(sock, r, frame, state, ups)) return;
            break;
          case FrameTag::kStats: {
            if (!consumed_all(sock, r, "Stats")) return;
            PayloadWriter w;
            encode_stats(w, fleet_snapshot());
            write_frame(sock, FrameTag::kStatsReply, w.take());
            break;
          }
          case FrameTag::kMetrics: {
            if (!consumed_all(sock, r, "Metrics")) return;
            // The router's OWN instruments (hc_router_*). Fleet-wide
            // aggregation stays on the Stats frame; a scraper reaches
            // each backend's hc_server_* series directly.
            PayloadWriter w;
            w.str(obs::metrics().prometheus_text());
            write_frame(sock, FrameTag::kMetricsReply, w.take());
            break;
          }
          case FrameTag::kShutdown:
            if (!consumed_all(sock, r, "Shutdown")) return;
            write_frame(sock, FrameTag::kShutdownOk);
            if (opts.forward_shutdown) shutdown_fleet();
            request_stop();
            return;
          default:
            count_protocol_error();
            send_error(sock, "unknown frame tag " +
                                 std::to_string(
                                     static_cast<unsigned>(frame.tag)));
            return;
        }
        if (stopping.load(std::memory_order_acquire)) return;
      }
    } catch (const ProtocolError&) {
      count_protocol_error();
    } catch (const SocketError&) {
      // Client vanished mid-reply; nothing to report to.
    } catch (...) {
      count_protocol_error();
    }
  }

  void request_stop() noexcept {
    stopping.store(true, std::memory_order_release);
    listener.wake();
  }

  void serve() {
    try {
      while (!stopping.load(std::memory_order_acquire)) {
        Socket sock = listener.accept();
        if (!sock.valid()) break;
        connections.fetch_add(1, std::memory_order_relaxed);
        m_connections.inc();
        auto conn = std::make_unique<Conn>();
        Conn* raw = conn.get();
        {
          std::lock_guard<std::mutex> lock(conns_mu);
          conns.push_back(std::move(conn));
        }
        raw->thread = std::thread([this, raw, s = std::move(sock)]() mutable {
          {
            std::lock_guard<std::mutex> lock(conns_mu);
            raw->sock = &s;
          }
          if (!stopping.load(std::memory_order_acquire)) {
            handle_connection(s);
          }
          {
            std::lock_guard<std::mutex> lock(conns_mu);
            raw->sock = nullptr;
          }
          raw->done.store(true, std::memory_order_release);
        });
        reap_finished();
      }
    } catch (...) {
      stopping.store(true, std::memory_order_release);
      drain();
      throw;
    }
    drain();
  }

  void reap_finished() {
    std::lock_guard<std::mutex> lock(conns_mu);
    std::erase_if(conns, [](const std::unique_ptr<Conn>& c) {
      if (!c->done.load(std::memory_order_acquire)) return false;
      c->thread.join();
      return true;
    });
  }

  void drain() {
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      for (const std::unique_ptr<Conn>& c : conns) {
        if (c->sock != nullptr) c->sock->shutdown_read();
      }
    }
    for (;;) {
      std::unique_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        if (conns.empty()) break;
        conn = std::move(conns.back());
        conns.pop_back();
      }
      if (conn->thread.joinable()) conn->thread.join();
    }
  }
};

Router::Router(const RouterOptions& opts) : impl_(std::make_unique<Impl>(opts)) {}

Router::~Router() = default;

void Router::start() {
  if (impl_->started) throw std::logic_error("Router: started twice");
  impl_->listener = server::Listener::open(impl_->opts.listen);
  impl_->started = true;
}

void Router::serve() {
  if (!impl_->started) throw std::logic_error("Router: serve before start");
  impl_->serve();
}

void Router::request_stop() noexcept { impl_->request_stop(); }

const std::string& Router::address() const noexcept {
  return impl_->listener.address();
}

const RouterOptions& Router::options() const noexcept { return impl_->opts; }

ServerStats Router::fleet_stats() { return impl_->fleet_snapshot(); }

std::vector<BackendSnapshot> Router::backend_snapshots() const {
  std::vector<BackendSnapshot> out;
  out.reserve(impl_->backends.size());
  for (const auto& st : impl_->backends) {
    BackendSnapshot snap;
    snap.address = st->address;
    {
      std::lock_guard<std::mutex> lock(st->mu);
      snap.healthy = st->healthy;
      snap.consecutive_failures = st->consecutive_failures;
    }
    snap.solves = st->solves.load(std::memory_order_relaxed);
    snap.cache_hits = st->cache_hits.load(std::memory_order_relaxed);
    snap.busy = st->busy.load(std::memory_order_relaxed);
    snap.failures = st->failures.load(std::memory_order_relaxed);
    out.push_back(std::move(snap));
  }
  return out;
}

std::uint64_t Router::retries() const noexcept {
  return impl_->retries.load(std::memory_order_relaxed);
}

}  // namespace hypercover::router
