#include "router/router.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "hypergraph/binary.hpp"
#include "hypergraph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "router/ring.hpp"
#include "server/client.hpp"
#include "server/service.hpp"

namespace hypercover::router {

using server::Frame;
using server::FrameTag;
using server::PayloadReader;
using server::PayloadWriter;
using server::ProtocolError;
using server::ServerStats;
using server::Session;
using server::Socket;
using server::SocketError;
using server::send_error;

namespace {

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
  server::for_each_stats_field(
      [&](const char*, auto field) { total.*field += s.*field; });
}

}  // namespace

struct Router::Impl final : server::Service {
  explicit Impl(const RouterOptions& options)
      : Service("router", "hc_router_", options.max_frame_bytes,
                options.trace_local),
        opts(options),
        ring(options.backends, options.vnodes) {
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

  // Router-local counters beyond the Service's three.
  server::Tally retries{"hc_router_retries_total"};

  // Registry instruments, resolved once (the registry lookup takes a
  // mutex; the forward path must not).
  obs::Counter& m_solves = obs::metrics().counter("hc_router_solves_total");
  obs::Counter& m_attempts = obs::metrics().counter("hc_router_attempts_total");
  obs::Counter& m_exhausted =
      obs::metrics().counter("hc_router_exhausted_total");
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
          solves("hc_router_backend_solves_total{backend=\"" + address +
                 "\"}"),
          failures("hc_router_backend_failures_total{backend=\"" + address +
                   "\"}") {}
    const std::string address;
    server::Tally solves, failures;

    std::mutex mu;  // guards healthy / consecutive_failures / next_probe_ms
    bool healthy = true;
    std::uint32_t consecutive_failures = 0;
    std::uint64_t next_probe_ms = 0;

    std::atomic<std::uint64_t> cache_hits{0}, busy{0};
  };
  std::vector<std::unique_ptr<BackendState>> backends;

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
    st.failures.inc();
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
  /// are staged with, plus the digest the router derived itself.
  /// A binary submit is kept verbatim; a text submit is kept as the
  /// inline hgb of the graph the router parsed, so backends validate
  /// and adopt it instead of parsing the text a second time.
  struct ConnGraph {
    bool have = false;
    std::vector<std::uint8_t> payload;
    std::uint64_t digest = 0;
  };

  /// One handler's lazily-connected upstream to one backend. Stateful
  /// by protocol design: have_graph tracks what THIS connection staged.
  /// An open socket has finished its Hello: a failed attempt resets it.
  struct Upstream {
    Socket sock;
    bool have_graph = false;
    std::uint64_t staged_digest = 0;

    void reset() noexcept {
      sock.close();
      have_graph = false;
    }
  };

  /// One client connection: its staged graph and its upstreams.
  struct ClientSession final : Session {
    explicit ClientSession(Impl& owner)
        : impl(owner), ups(owner.backends.size()) {}
    bool handle(Socket& sock, Frame& frame) override;

    Impl& impl;
    ConnGraph state;
    std::vector<Upstream> ups;
  };

  std::unique_ptr<Session> open_session() override {
    return std::make_unique<ClientSession>(*this);
  }

  // --- graph submission -----------------------------------------------------

  /// Derives digest/shape from a submit payload and keeps what backends
  /// will be staged with. Text is scanned here once, straight into an
  /// inline SubmitGraphBinary, whose content digest the backend
  /// validates before adopting it; binary payloads are validated and go
  /// out verbatim. Either way the graph is hashed once on this hop.
  /// Returns false to drop the connection.
  bool handle_submit(Socket& sock, Frame& frame, ConnGraph& state) {
    const FrameTag tag = frame.tag;
    PayloadReader r(frame.payload);
    const std::uint8_t kind = r.u8();
    hg::HgbInfo info;
    std::vector<std::uint8_t> staged;
    try {
      if (tag == FrameTag::kSubmitGraph) {
        std::string text;
        if (kind == server::kGraphInline) {
          text = r.str();
          if (!consumed_all(sock, r, "SubmitGraph")) return false;
        } else if (kind == server::kGraphByPath) {
          const std::string path = r.str();
          if (!consumed_all(sock, r, "SubmitGraph")) return false;
          std::optional<std::string> file =
              server::read_file_bounded(path, opts.max_frame_bytes);
          if (!file) {
            send_error(sock, "cannot open graph file: " + path);
            return true;
          }
          if (file->size() > opts.max_frame_bytes) {
            send_error(sock, "graph file exceeds the frame cap: " + path);
            return true;
          }
          text = std::move(*file);
        } else {
          send_error(sock, "unknown SubmitGraph kind " + std::to_string(kind));
          return true;
        }
        frame.payload = std::vector<std::uint8_t>();  // `text` has it now
        // Kind byte and u32 length, then the image the scan lays out in
        // place: one pass over the text and no graph built.
        staged = {server::kGraphInline, 0, 0, 0, 0};
        info = hg::append_text_binary(staged, text);
      } else {  // kSubmitGraphBinary
        if (kind == server::kGraphInline) {
          const std::vector<std::uint8_t> blob = r.bytes();
          if (!consumed_all(sock, r, "SubmitGraphBinary")) return false;
          info = hg::validate_binary(blob);
        } else if (kind == server::kGraphByPath) {
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
          (void)hg::map_file(path, &info);
        } else {
          send_error(sock,
                     "unknown SubmitGraphBinary kind " + std::to_string(kind));
          return true;
        }
        staged = std::move(frame.payload);
      }
    } catch (const std::exception& ex) {
      send_error(sock, std::string("bad graph: ") + ex.what());
      return true;
    }
    if (tag == FrameTag::kSubmitGraph) {
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
    }
    state.have = true;
    state.payload = std::move(staged);
    state.digest = info.graph_digest;
    PayloadWriter w;
    server::encode_graph_ok(w, {state.digest, info.n, info.m});
    write_frame(sock, FrameTag::kGraphOk, w.take());
    return true;
  }

  // --- backend forwarding ---------------------------------------------------

  /// Connects and greets the backend unless this upstream already did.
  void ensure_ready(Upstream& up, std::uint32_t b) {
    if (up.sock.valid()) return;
    up.sock = server::connect_to(backends[b]->address, opts.connect_timeout_ms);
    up.sock.set_recv_timeout(opts.backend_timeout_ms);
    PayloadWriter w;
    w.u32(server::kProtocolVersion);
    const Frame reply = upstream_round_trip(up, FrameTag::kHello, w.take());
    PayloadReader r(reply.payload);
    if (reply.tag != FrameTag::kHelloOk ||
        r.u32() != server::kProtocolVersion) {
      throw ProtocolError("backend refused handshake");
    }
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
  /// attempt's span, and the backend's Result is re-encoded with the
  /// router's own spans appended before it goes to the client.
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
        if (server::decode_graph_ok(g).digest != state.digest) {
          throw ProtocolError("backend staged digest mismatch");
        }
        up.have_graph = true;
        up.staged_digest = state.digest;
      } else if (reply.tag == FrameTag::kBusy) {
        return forward_busy(client, reply, b, key, tid);
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
    // then stitch below it).
    const std::vector<std::uint8_t>* fwd = &solve_payload;
    std::vector<std::uint8_t> patched;
    if (wire_traced) {
      patched = solve_payload;
      const std::uint64_t parent = attempt_span.id();
      std::uint8_t* tail =
          patched.data() + patched.size() - server::kTraceParentTailOffset;
      for (std::size_t i = 0; i < 8; ++i) {
        tail[i] = static_cast<std::uint8_t>(parent >> (8 * i));
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
      st.solves.inc();
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
      return forward_busy(client, reply, b, key, tid);
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

  /// A backend's Busy (at staging or at the Solve) goes to the client
  /// as is, once validated; the backend is alive.
  Attempt forward_busy(Socket& client, const Frame& reply, std::uint32_t b,
                       std::uint64_t key, std::uint64_t tid) {
    PayloadReader busy(reply.payload);
    (void)server::decode_busy(busy);  // validate before forwarding
    backends[b]->busy.fetch_add(1, std::memory_order_relaxed);
    mark_success(b);
    if (opts.verbose) {
      std::fprintf(stderr,
                   "solve-router: busy: backend %s rejected solve 0x%08" PRIx64
                   " trace 0x%016" PRIx64 "\n",
                   backends[b]->address.c_str(), key >> 32, tid);
    }
    write_frame(client, FrameTag::kBusy, reply.payload);
    return Attempt::kReplied;
  }

  /// Returns false when the client connection must be dropped.
  bool handle_solve(Socket& client, const Frame& frame, const ConnGraph& state,
                    std::vector<Upstream>& ups) {
    std::optional<server::SolveCall> call;
    if (!read_solve(client, frame, state.have, state.digest, call)) {
      return false;
    }
    if (!call) return true;
    const std::uint64_t key = call->key;
    const std::uint64_t tid = call->trace.trace_id;
    const bool wire_traced = call->wire_traced;
    const std::vector<std::uint32_t> order = ring.route(key);
    const std::uint64_t t0 = obs::now_ns();
    obs::Span route_span(obs::recorder(), "router.route", obs::Proc::kRouter,
                         tid, call->trace.parent_span_id);

    std::string last_error;
    std::uint32_t attempt_index = 0;
    for (const std::uint32_t b : order) {
      if (!usable(b)) continue;
      if (attempt_index > 0) {
        retries.inc();
      }
      const auto fail_over = [&](const char* why) {
        last_error = why;
        if (opts.verbose) {
          std::fprintf(stderr,
                       "solve-router: failover: backend %s failed solve "
                       "0x%08" PRIx64 " trace 0x%016" PRIx64 ": %s\n",
                       backends[b]->address.c_str(), key >> 32, tid, why);
        }
        ups[b].reset();
        mark_failure(b);
      };
      try {
        if (try_backend(client, ups[b], b, state, frame.payload, key, tid,
                        wire_traced, route_span, attempt_index++,
                        last_error) == Attempt::kReplied) {
          m_solves.inc();
          m_solve_latency_ms.observe((obs::now_ns() - t0) / 1'000'000);
          return true;
        }
        // kRejected: fall through to the next ring node.
      } catch (const SocketError& ex) {
        fail_over(ex.what());
      } catch (const ProtocolError& ex) {
        fail_over(ex.what());
      }
    }
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

  // --- stats / shutdown -----------------------------------------------------

  /// Queries every usable backend over a fresh short-lived connection
  /// (handler upstreams are stateful; stats must not disturb them) and
  /// sums. An unreachable backend is marked failed and contributes 0.
  ServerStats stats_snapshot() override {
    ServerStats total;
    for (std::uint32_t b = 0; b < backends.size(); ++b) {
      if (!usable(b)) continue;
      try {
        server::Client probe;
        probe.connect(backends[b]->address, opts.backend_timeout_ms);
        accumulate(total, probe.stats());
        mark_success(b);
      } catch (const std::exception&) {
        mark_failure(b);
      }
    }
    total.connections += connections.value();
    total.requests += requests.value();
    total.protocol_errors += protocol_errors.value();
    return total;
  }

  /// Best-effort fleet shutdown: every backend gets a Shutdown frame;
  /// dead ones are skipped (they are already down, which is the goal).
  void on_shutdown() override {
    if (!opts.forward_shutdown) return;
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
};

bool Router::Impl::ClientSession::handle(Socket& sock, Frame& frame) {
  return frame.tag == FrameTag::kSolve
             ? impl.handle_solve(sock, frame, state, ups)
             : impl.handle_submit(sock, frame, state);
}

Router::Router(const RouterOptions& opts) : impl_(std::make_unique<Impl>(opts)) {}

Router::~Router() = default;

void Router::start() { impl_->listen(impl_->opts.listen); }

void Router::serve() { impl_->serve(); }

void Router::request_stop() noexcept { impl_->request_stop(); }

const std::string& Router::address() const noexcept {
  return impl_->address();
}

const RouterOptions& Router::options() const noexcept { return impl_->opts; }

ServerStats Router::fleet_stats() { return impl_->stats_snapshot(); }

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
    snap.solves = st->solves.value();
    snap.cache_hits = st->cache_hits.load(std::memory_order_relaxed);
    snap.busy = st->busy.load(std::memory_order_relaxed);
    snap.failures = st->failures.value();
    out.push_back(std::move(snap));
  }
  return out;
}

std::uint64_t Router::retries() const noexcept {
  return impl_->retries.value();
}

}  // namespace hypercover::router
