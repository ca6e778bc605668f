#include "server/server.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "congest/thread_pool.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "server/cache.hpp"
#include "server/socket.hpp"
#include "util/digest.hpp"

namespace hypercover::server {

namespace {

/// Graph kinds on a SubmitGraph / SubmitGraphBinary frame.
constexpr std::uint8_t kGraphInlineText = 0;
constexpr std::uint8_t kGraphByPath = 1;
constexpr std::uint8_t kGraphInlineBinary = 0;  // SubmitGraphBinary kinds
constexpr std::uint8_t kGraphBinaryByPath = 1;

}  // namespace

struct SolveServer::Impl {
  explicit Impl(const ServerOptions& options)
      : opts(options),
        cache(options.cache_entries),
        scheduler(api::BatchOptions{.threads = options.threads,
                                    .policy = api::BatchPolicy::kRoundRobin,
                                    .round_quantum = options.round_quantum}) {}

  ServerOptions opts;
  ResultCache cache;
  api::BatchScheduler scheduler;
  Listener listener;
  bool started = false;

  // Cached obs instrument references (registry lookups are cold-path).
  // The registry is process-global, so counters accumulate across
  // server instances in one process — what a scrape wants.
  obs::Counter& m_requests = obs::metrics().counter("hc_server_requests_total");
  obs::Counter& m_solves = obs::metrics().counter("hc_server_solves_total");
  obs::Counter& m_cache_hits =
      obs::metrics().counter("hc_server_cache_hits_total");
  obs::Counter& m_cache_misses =
      obs::metrics().counter("hc_server_cache_misses_total");
  obs::Counter& m_busy =
      obs::metrics().counter("hc_server_busy_rejections_total");
  obs::Counter& m_proto_errors =
      obs::metrics().counter("hc_server_protocol_errors_total");
  obs::Counter& m_connections =
      obs::metrics().counter("hc_server_connections_total");
  obs::Gauge& m_inflight = obs::metrics().gauge("hc_server_inflight");
  obs::Histogram& m_solve_latency_ms =
      obs::metrics().histogram("hc_server_solve_latency_ms");
  obs::Histogram& m_rounds_per_solve =
      obs::metrics().histogram("hc_server_rounds_per_solve");

  std::atomic<bool> stopping{false};

  // Serving counters (wire.hpp ServerStats).
  std::atomic<std::uint64_t> connections{0}, requests{0}, solves{0},
      busy_rejections{0}, protocol_errors{0};
  // Cumulative engine work, summed from each cold solve's RunStats
  // (cache hits ran no engine and contribute nothing).
  std::atomic<std::uint64_t> engine_rounds{0}, engine_agent_steps{0},
      engine_step_cycles{0}, engine_slots_processed{0}, engine_clear_slots{0},
      engine_sparse_clear_passes{0}, engine_dense_clear_passes{0};
  // Admission state: dispatched-but-unfinished jobs and the graph bytes
  // they hold. Updated with a mutex (two quantities must move together
  // and be compared against two limits atomically).
  std::mutex admission_mu;
  std::uint64_t inflight = 0;
  std::uint64_t queued_bytes = 0;

  /// One handler thread per connection, reaped opportunistically by the
  /// accept loop and joined at drain.
  struct Conn {
    std::thread thread;
    Socket* sock = nullptr;  // valid while the handler runs (guarded by mu)
    std::atomic<bool> done{false};
  };
  std::mutex conns_mu;
  std::vector<std::unique_ptr<Conn>> conns;

  // --- admission -----------------------------------------------------------

  /// Tries to admit a solve holding `graph_bytes` of instance text:
  /// reserves the capacity and returns true, or false on overload (the
  /// caller answers with send_busy()).
  bool admit(std::uint64_t graph_bytes) {
    std::lock_guard<std::mutex> lock(admission_mu);
    if (inflight >= opts.max_inflight ||
        queued_bytes + graph_bytes > opts.max_queued_bytes) {
      return false;
    }
    ++inflight;
    queued_bytes += graph_bytes;
    return true;
  }

  void release(std::uint64_t graph_bytes) {
    std::lock_guard<std::mutex> lock(admission_mu);
    --inflight;
    queued_bytes -= graph_bytes;
  }

  ServerStats snapshot() {
    ServerStats s;
    s.connections = connections.load(std::memory_order_relaxed);
    s.requests = requests.load(std::memory_order_relaxed);
    s.solves = solves.load(std::memory_order_relaxed);
    s.cache_hits = cache.hits();
    s.cache_misses = cache.misses();
    s.cache_evictions = cache.evictions();
    s.busy_rejections = busy_rejections.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(admission_mu);
      s.in_flight = inflight;
      s.queued_bytes = queued_bytes;
    }
    s.cache_entries = cache.size();
    s.pool_threads = scheduler.pool().size();
    s.max_inflight = opts.max_inflight;
    s.engine_rounds = engine_rounds.load(std::memory_order_relaxed);
    s.engine_agent_steps = engine_agent_steps.load(std::memory_order_relaxed);
    s.engine_step_cycles = engine_step_cycles.load(std::memory_order_relaxed);
    s.engine_slots_processed =
        engine_slots_processed.load(std::memory_order_relaxed);
    s.engine_clear_slots = engine_clear_slots.load(std::memory_order_relaxed);
    s.engine_sparse_clear_passes =
        engine_sparse_clear_passes.load(std::memory_order_relaxed);
    s.engine_dense_clear_passes =
        engine_dense_clear_passes.load(std::memory_order_relaxed);
    return s;
  }

  // --- per-connection protocol ---------------------------------------------

  /// The graph a connection most recently submitted, kept until replaced.
  struct ConnGraph {
    std::shared_ptr<const hg::Hypergraph> graph;
    std::uint64_t digest = 0;
    std::uint64_t text_bytes = 0;  // admission weight of this instance
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

  /// A fully decoded request must have consumed its whole payload.
  /// Trailing bytes mean the peer framed a different (likely newer or
  /// corrupt) request shape than we just parsed — silently accepting the
  /// prefix would act on half a request. Found by the wire fuzz harness;
  /// answered with one Error, then the connection is dropped as
  /// desynchronized. Returns true when the request is clean.
  bool consumed_all(Socket& sock, const PayloadReader& r, const char* what) {
    if (r.done()) return true;
    count_protocol_error();
    send_error(sock, std::string(what) + " carries " +
                         std::to_string(r.remaining()) +
                         " trailing payload bytes");
    return false;
  }

  /// Answers a typed Busy frame from the current load and counts the
  /// rejection — the one overload reply path for both admission limits.
  void send_busy(Socket& sock) {
    BusyInfo busy;
    {
      std::lock_guard<std::mutex> lock(admission_mu);
      busy.in_flight = inflight;
      busy.queued_bytes = queued_bytes;
    }
    busy.max_inflight = opts.max_inflight;
    busy.max_queued_bytes = opts.max_queued_bytes;
    busy_rejections.fetch_add(1, std::memory_order_relaxed);
    m_busy.inc();
    PayloadWriter w;
    encode_busy(w, busy);
    write_frame(sock, FrameTag::kBusy, w.take());
  }

  /// Returns false when the connection must be dropped (trailing payload
  /// bytes — see consumed_all); semantic failures reply Error/Busy and
  /// keep the connection.
  bool handle_submit_graph(Socket& sock, PayloadReader& r, ConnGraph& state) {
    const std::uint8_t kind = r.u8();
    std::string text;
    if (kind == kGraphInlineText) {
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
      // Bounded slurp: inline mode is capped by the frame length, so the
      // by-path mode must not let a huge (or endless: /dev/zero) file
      // balloon the handler. One byte past the budget is enough to make
      // the admission check below reject it.
      char buf[64 * 1024];
      while (text.size() <= opts.max_queued_bytes &&
             (in.read(buf, sizeof(buf)), in.gcount() > 0)) {
        text.append(buf, static_cast<std::size_t>(in.gcount()));
      }
    } else {
      send_error(sock, "unknown SubmitGraph kind " + std::to_string(kind));
      return true;
    }
    if (text.size() > opts.max_queued_bytes) {
      // An instance that alone exceeds the queue budget can never be
      // admitted; say Busy now instead of at every Solve.
      send_busy(sock);
      return true;
    }
    hg::Hypergraph parsed;
    hg::HgbInfo info;
    try {
      parsed = hg::from_text(text, &info);  // digest folded by the scan
    } catch (const std::exception& ex) {
      send_error(sock, std::string("bad graph: ") + ex.what());
      return true;
    }
    state.graph = std::make_shared<const hg::Hypergraph>(std::move(parsed));
    state.digest = info.graph_digest;
    state.text_bytes = text.size();
    PayloadWriter w;
    w.u64(state.digest);
    w.u32(state.graph->num_vertices());
    w.u32(state.graph->num_edges());
    write_frame(sock, FrameTag::kGraphOk, w.take());
    return true;
  }

  /// SubmitGraphBinary (protocol v2): an hgb buffer inline, or a path the
  /// server mmaps. Same reply (GraphOk) and the same admission byte
  /// budget as text submits — the admission weight is the hgb byte size.
  /// The by-path mode is the zero-copy path: the mapped buffer is adopted
  /// in place and shared by every queued solve of this instance.
  /// Returns false when the connection must be dropped.
  bool handle_submit_graph_binary(Socket& sock, PayloadReader& r,
                                  ConnGraph& state) {
    const std::uint8_t kind = r.u8();
    hg::Hypergraph adopted;
    hg::HgbInfo info;
    std::uint64_t byte_size = 0;
    try {
      if (kind == kGraphInlineBinary) {
        // Move the blob into shared storage and adopt it there: heap
        // allocations are 8-aligned, so no copy beyond the frame decode.
        auto blob =
            std::make_shared<const std::vector<std::uint8_t>>(r.bytes());
        if (!consumed_all(sock, r, "SubmitGraphBinary")) return false;
        byte_size = blob->size();
        if (byte_size > opts.max_queued_bytes) {
          send_busy(sock);
          return true;
        }
        const std::span<const std::uint8_t> view(*blob);
        adopted = hg::adopt_binary(view, std::move(blob), &info);
      } else if (kind == kGraphBinaryByPath) {
        const std::string path = r.str();
        if (!consumed_all(sock, r, "SubmitGraphBinary")) return false;
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (ec) {
          send_error(sock, "cannot stat graph file: " + path);
          return true;
        }
        byte_size = size;
        if (byte_size > opts.max_queued_bytes) {
          send_busy(sock);
          return true;
        }
        adopted = hg::map_file(path, &info);
      } else {
        send_error(sock,
                   "unknown SubmitGraphBinary kind " + std::to_string(kind));
        return true;
      }
    } catch (const hg::BinaryFormatError& ex) {
      send_error(sock, std::string("bad binary graph: ") + ex.what());
      return true;
    }
    state.graph = std::make_shared<const hg::Hypergraph>(std::move(adopted));
    // Validation proved the header digest against the content, so it IS
    // util::graph_digest of the adopted graph; no second hash.
    state.digest = info.graph_digest;
    state.text_bytes = byte_size;
    PayloadWriter w;
    w.u64(state.digest);
    w.u32(state.graph->num_vertices());
    w.u32(state.graph->num_edges());
    write_frame(sock, FrameTag::kGraphOk, w.take());
    return true;
  }

  /// Returns false when the connection must be dropped.
  bool handle_solve(Socket& sock, PayloadReader& r, const ConnGraph& state) {
    std::string algorithm;
    SolveKnobs knobs;
    TraceContext trace;
    decode_solve(r, algorithm, knobs, &trace);
    if (!consumed_all(sock, r, "Solve")) return false;
    if (state.graph == nullptr) {
      send_error(sock, "Solve before SubmitGraph");
      return true;
    }
    if (api::find_solver(algorithm) == nullptr) {
      send_error(sock, "unknown algorithm \"" + algorithm + "\"");
      return true;
    }
    const api::SolveRequest req = to_request(knobs);
    const std::uint64_t key = util::solve_digest(state.digest, algorithm, req);

    // Spans ship back on the Result only for requests the CLIENT traced;
    // a local trace id (daemon --trace-out self-tracing) stays local so
    // v3 and untraced-v4 peers never see a span tail.
    const bool wire_traced = trace.trace_id != 0;
    if (!wire_traced && opts.trace_local) trace.trace_id = obs::new_id();

    const std::uint64_t t0 = obs::now_ns();
    // server.admit: the cache lookup + admission decision. arg encodes
    // the verdict: 0 dispatched, 1 cache hit, 2 rejected Busy.
    obs::Span admit_span(obs::recorder(), "server.admit", obs::Proc::kServer,
                         trace.trace_id, trace.parent_span_id);

    if (std::shared_ptr<const api::Solution> hit = cache.find(key)) {
      admit_span.set_arg(1);
      admit_span.end();
      m_cache_hits.inc();
      PayloadWriter w;
      encode_result(w, *hit, /*cache_hit=*/true, key,
                    wire_traced ? obs::recorder().collect(trace.trace_id)
                                : std::vector<obs::SpanRecord>{});
      // Count before replying: a client that has its Result in hand must
      // already see it in the Stats counters.
      solves.fetch_add(1, std::memory_order_relaxed);
      m_solves.inc();
      m_solve_latency_ms.observe((obs::now_ns() - t0) / 1'000'000);
      write_frame(sock, FrameTag::kResult, w.take());
      return true;
    }
    m_cache_misses.inc();

    if (!admit(state.text_bytes)) {
      admit_span.set_arg(2);
      if (opts.verbose) {
        std::fprintf(stderr,
                     "solve-server: busy: rejected solve 0x%08" PRIx64
                     " trace 0x%016" PRIx64 "\n",
                     key >> 32, trace.trace_id);
      }
      send_busy(sock);
      return true;
    }
    m_inflight.add(1);
    admit_span.end();

    // Dispatch on the shared scheduler and block this handler until the
    // job's final slice delivers. The connection's shared_ptr keeps the
    // graph alive for the whole wait, so the raw BatchJob pointer is safe.
    auto promise = std::make_shared<std::promise<api::Solution>>();
    std::future<api::Solution> future = promise->get_future();
    api::BatchJob job;
    job.graph = state.graph.get();
    job.algorithm = algorithm;
    job.request = req;
    // The scheduler's queue-wait / slice / sampled-round spans parent
    // straight under the request's incoming span, as siblings of
    // server.admit.
    job.trace = api::BatchTrace{trace.trace_id, trace.parent_span_id};
    job.on_complete = [promise](api::Solution& sol) {
      promise->set_value(std::move(sol));  // the scheduler discards the slot
    };
    job.on_error = [promise](std::exception_ptr err) {
      promise->set_exception(err);
    };
    api::Solution sol;
    try {
      scheduler.submit(std::move(job));
      sol = future.get();  // rethrows the job's exception
    } catch (const std::exception& ex) {
      release(state.text_bytes);
      m_inflight.add(-1);
      send_error(sock, std::string("solve failed: ") + ex.what());
      return true;
    }
    release(state.text_bytes);
    m_inflight.add(-1);
    const congest::RunStats& net = sol.net;
    engine_rounds.fetch_add(net.rounds, std::memory_order_relaxed);
    engine_agent_steps.fetch_add(net.agent_steps, std::memory_order_relaxed);
    engine_step_cycles.fetch_add(net.step_cycles, std::memory_order_relaxed);
    engine_slots_processed.fetch_add(net.slots_processed,
                                     std::memory_order_relaxed);
    engine_clear_slots.fetch_add(net.clear_slots, std::memory_order_relaxed);
    engine_sparse_clear_passes.fetch_add(net.sparse_clear_passes,
                                         std::memory_order_relaxed);
    engine_dense_clear_passes.fetch_add(net.dense_clear_passes,
                                        std::memory_order_relaxed);
    m_rounds_per_solve.observe(net.rounds);
    auto shared = std::make_shared<const api::Solution>(std::move(sol));
    cache.insert(key, shared);
    PayloadWriter w;
    // Every span of this trace recorded in this process so far — the
    // final batch slice ended before on_complete fired, so the
    // scheduler's spans are all visible here.
    encode_result(w, *shared, /*cache_hit=*/false, key,
                  wire_traced ? obs::recorder().collect(trace.trace_id)
                              : std::vector<obs::SpanRecord>{});
    solves.fetch_add(1, std::memory_order_relaxed);
    m_solves.inc();
    m_solve_latency_ms.observe((obs::now_ns() - t0) / 1'000'000);
    write_frame(sock, FrameTag::kResult, w.take());
    return true;
  }

  /// Runs one connection's request/response loop. Returns when the peer
  /// closes, a protocol violation is detected, or the server drains.
  void handle_connection(Socket& sock) {
    ConnGraph state;
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
            // v3 peers are spoken to in v3: the HelloOk echoes THEIR
            // version, and v4 tails never reach them (a v3 peer never
            // sends a trace context, and spans only ride Results of
            // traced requests).
            if (version < kMinProtocolVersion || version > kProtocolVersion) {
              count_protocol_error();
              send_error(sock, "protocol version " + std::to_string(version) +
                                   " unsupported (server speaks " +
                                   std::to_string(kProtocolVersion) + ")");
              return;
            }
            greeted = true;
            PayloadWriter w;
            w.u32(version);
            w.u32(static_cast<std::uint32_t>(api::solvers().size()));
            write_frame(sock, FrameTag::kHelloOk, w.take());
            break;
          }
          case FrameTag::kSubmitGraph:
            if (!handle_submit_graph(sock, r, state)) return;
            break;
          case FrameTag::kSubmitGraphBinary:
            if (!handle_submit_graph_binary(sock, r, state)) return;
            break;
          case FrameTag::kSolve:
            if (!handle_solve(sock, r, state)) return;
            break;
          case FrameTag::kStats: {
            if (!consumed_all(sock, r, "Stats")) return;
            PayloadWriter w;
            encode_stats(w, snapshot());
            write_frame(sock, FrameTag::kStatsReply, w.take());
            break;
          }
          case FrameTag::kMetrics: {
            if (!consumed_all(sock, r, "Metrics")) return;
            PayloadWriter w;
            w.str(obs::metrics().prometheus_text());
            write_frame(sock, FrameTag::kMetricsReply, w.take());
            break;
          }
          case FrameTag::kShutdown:
            if (!consumed_all(sock, r, "Shutdown")) return;
            write_frame(sock, FrameTag::kShutdownOk);
            request_stop();
            return;
          default:
            count_protocol_error();
            send_error(sock, "unknown frame tag " +
                                 std::to_string(static_cast<unsigned>(
                                     frame.tag)));
            return;  // desynchronized — drop the connection
        }
        if (stopping.load(std::memory_order_acquire)) return;  // draining
      }
    } catch (const ProtocolError&) {
      // Truncated/oversized frame: count it, drop the connection, and
      // keep serving everyone else. No reply — the stream is unusable.
      count_protocol_error();
    } catch (const SocketError&) {
      // Peer vanished mid-reply; nothing to report to.
    } catch (...) {
      // Anything else (bad_alloc under pressure, a surprise from a
      // handler) must cost this connection, never the daemon: an
      // exception escaping the handler thread would std::terminate.
      count_protocol_error();
    }
  }

  void request_stop() noexcept {
    stopping.store(true, std::memory_order_release);
    listener.wake();
  }

  void serve() {
    // Whatever happens in the accept loop — fd exhaustion in accept(),
    // thread-spawn failure — the drain below must still run, or
    // destroying joinable handler threads would std::terminate the
    // daemon with solves in flight.
    try {
      while (!stopping.load(std::memory_order_acquire)) {
        Socket sock = listener.accept();
        if (!sock.valid()) break;  // woken for shutdown
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
          // Registration must precede this check: a drain that started
          // before it could not knock this socket, so knock ourselves.
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

  /// Joins and discards handler threads that already finished, so a
  /// long-lived daemon's thread list tracks live connections, not
  /// historical ones.
  void reap_finished() {
    std::lock_guard<std::mutex> lock(conns_mu);
    std::erase_if(conns, [](const std::unique_ptr<Conn>& c) {
      if (!c->done.load(std::memory_order_acquire)) return false;
      c->thread.join();
      return true;
    });
  }

  /// Graceful drain: knock idle connections loose (EOF on their next
  /// read; in-flight solves finish and deliver first), join every
  /// handler, then drain the scheduler.
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
      // A Conn whose std::thread constructor threw never became
      // joinable; joining it would itself throw.
      if (conn->thread.joinable()) conn->thread.join();
    }
    scheduler.stop_service();
  }
};

SolveServer::SolveServer(const ServerOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

SolveServer::~SolveServer() {
  // A server destroyed mid-serve() is a caller bug; destroying one that
  // never started (or already drained) must still stop the scheduler.
  impl_->scheduler.stop_service();
}

void SolveServer::start() {
  if (impl_->started) throw std::logic_error("SolveServer: started twice");
  impl_->listener = Listener::open(impl_->opts.listen);
  impl_->scheduler.start_service();
  impl_->started = true;
}

void SolveServer::serve() {
  if (!impl_->started) throw std::logic_error("SolveServer: serve before start");
  impl_->serve();
}

void SolveServer::request_stop() noexcept { impl_->request_stop(); }

const std::string& SolveServer::address() const noexcept {
  return impl_->listener.address();
}

const ServerOptions& SolveServer::options() const noexcept {
  return impl_->opts;
}

ServerStats SolveServer::stats() const { return impl_->snapshot(); }

}  // namespace hypercover::server
