#include "server/server.hpp"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <future>
#include <mutex>
#include <utility>

#include "api/batch.hpp"
#include "congest/thread_pool.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "server/cache.hpp"
#include "server/service.hpp"

namespace hypercover::server {

struct SolveServer::Impl final : Service {
  explicit Impl(const ServerOptions& options)
      : Service("server", "hc_server_", options.max_frame_bytes,
                options.trace_local),
        opts(options),
        cache(options.cache_entries),
        scheduler(api::BatchOptions{.threads = options.threads,
                                    .policy = api::BatchPolicy::kRoundRobin,
                                    .round_quantum = options.round_quantum}) {}

  ServerOptions opts;
  ResultCache cache;
  api::BatchScheduler scheduler;

  // Cached obs instrument references (registry lookups are cold-path).
  // The registry is process-global, so counters accumulate across
  // server instances in one process — what a scrape wants.
  obs::Counter& m_cache_hits =
      obs::metrics().counter("hc_server_cache_hits_total");
  obs::Counter& m_cache_misses =
      obs::metrics().counter("hc_server_cache_misses_total");
  obs::Gauge& m_inflight = obs::metrics().gauge("hc_server_inflight");
  obs::Histogram& m_solve_latency_ms =
      obs::metrics().histogram("hc_server_solve_latency_ms");
  obs::Histogram& m_rounds_per_solve =
      obs::metrics().histogram("hc_server_rounds_per_solve");

  // Serving counters (wire.hpp ServerStats) beyond the Service's three.
  Tally solves{"hc_server_solves_total"};
  Tally busy_rejections{"hc_server_busy_rejections_total"};
  // Admission state: dispatched-but-unfinished jobs and the graph bytes
  // they hold. Updated with a mutex (two quantities must move together
  // and be compared against two limits atomically). The same mutex
  // guards the engine work summed from each cold solve's RunStats (cache
  // hits ran no engine and contribute nothing).
  std::mutex admission_mu;
  std::uint64_t inflight = 0;
  std::uint64_t queued_bytes = 0;
  ServerStats engine_work;  // only its engine_* fields move

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
    m_inflight.add(1);
    return true;
  }

  /// Returns an admitted solve's capacity and adds its engine work
  /// (`net` is null when the solve failed).
  void release(std::uint64_t graph_bytes, const congest::RunStats* net) {
    m_inflight.add(-1);
    std::lock_guard<std::mutex> lock(admission_mu);
    --inflight;
    queued_bytes -= graph_bytes;
    if (net == nullptr) return;
    engine_work.engine_rounds += net->rounds;
    engine_work.engine_agent_steps += net->agent_steps;
    engine_work.engine_step_cycles += net->step_cycles;
    engine_work.engine_slots_processed += net->slots_processed;
  }

  ServerStats stats_snapshot() override {
    ServerStats s;
    {
      std::lock_guard<std::mutex> lock(admission_mu);
      s = engine_work;
      s.in_flight = inflight;
      s.queued_bytes = queued_bytes;
    }
    s.connections = connections.value();
    s.requests = requests.value();
    s.solves = solves.value();
    s.cache_hits = cache.hits();
    s.cache_misses = cache.misses();
    s.cache_evictions = cache.evictions();
    s.busy_rejections = busy_rejections.value();
    s.protocol_errors = protocol_errors.value();
    s.cache_entries = cache.size();
    s.pool_threads = scheduler.pool().size();
    s.max_inflight = opts.max_inflight;
    return s;
  }

  // --- per-connection protocol ---------------------------------------------

  /// One connection: the graph it most recently submitted, kept until
  /// replaced.
  struct ConnGraph final : Session {
    explicit ConnGraph(Impl& owner) : impl(owner) {}
    bool handle(Socket& sock, Frame& frame) override;

    Impl& impl;
    std::shared_ptr<const hg::Hypergraph> graph;
    std::uint64_t digest = 0;
    std::uint64_t text_bytes = 0;  // admission weight of this instance
  };

  std::unique_ptr<Session> open_session() override {
    return std::make_unique<ConnGraph>(*this);
  }

  /// Keeps a submitted graph as the connection's current one and
  /// answers GraphOk.
  static void stage(Socket& sock, ConnGraph& state, hg::Hypergraph&& graph,
                    std::uint64_t digest, std::uint64_t bytes) {
    state.graph = std::make_shared<const hg::Hypergraph>(std::move(graph));
    state.digest = digest;
    state.text_bytes = bytes;
    PayloadWriter w;
    encode_graph_ok(w, {digest, state.graph->num_vertices(),
                        state.graph->num_edges()});
    write_frame(sock, FrameTag::kGraphOk, w.take());
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
    busy_rejections.inc();
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
    if (kind == kGraphInline) {
      text = r.str();
      if (!consumed_all(sock, r, "SubmitGraph")) return false;
    } else if (kind == kGraphByPath) {
      const std::string path = r.str();
      if (!consumed_all(sock, r, "SubmitGraph")) return false;
      // Past the budget is enough to make the admission check below
      // reject it.
      std::optional<std::string> file =
          read_file_bounded(path, opts.max_queued_bytes);
      if (!file) {
        send_error(sock, "cannot open graph file: " + path);
        return true;
      }
      text = std::move(*file);
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
    stage(sock, state, std::move(parsed), info.graph_digest, text.size());
    return true;
  }

  /// SubmitGraphBinary: an hgb buffer inline, or a path the
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
      if (kind == kGraphInline) {
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
      } else if (kind == kGraphByPath) {
        const std::string path = r.str();
        if (!consumed_all(sock, r, "SubmitGraphBinary")) return false;
        std::error_code ec;
        byte_size = std::filesystem::file_size(path, ec);
        if (ec) {
          send_error(sock, "cannot stat graph file: " + path);
          return true;
        }
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
    // Validation proved the header digest against the content, so it IS
    // util::graph_digest of the adopted graph; no second hash.
    stage(sock, state, std::move(adopted), info.graph_digest, byte_size);
    return true;
  }

  /// Returns false when the connection must be dropped.
  /// Answers a Result and counts the solve. Spans ship back only for
  /// requests the CLIENT traced; a local trace id (daemon --trace-out
  /// self-tracing) stays local.
  void reply_result(Socket& sock, const api::Solution& sol, bool cache_hit,
                    const SolveCall& call, std::uint64_t t0) {
    PayloadWriter w;
    encode_result(w, sol, cache_hit, call.key,
                  call.wire_traced
                      ? obs::recorder().collect(call.trace.trace_id)
                      : std::vector<obs::SpanRecord>{});
    // Count before replying: a client that has its Result in hand must
    // already see it in the Stats counters.
    solves.inc();
    m_solve_latency_ms.observe((obs::now_ns() - t0) / 1'000'000);
    write_frame(sock, FrameTag::kResult, w.take());
  }

  bool handle_solve(Socket& sock, const Frame& frame, const ConnGraph& state) {
    std::optional<SolveCall> call;
    if (!read_solve(sock, frame, state.graph != nullptr, state.digest, call)) {
      return false;
    }
    if (!call) return true;
    const std::uint64_t key = call->key;
    const TraceContext& trace = call->trace;

    const std::uint64_t t0 = obs::now_ns();
    // server.admit: the cache lookup + admission decision. arg encodes
    // the verdict: 0 dispatched, 1 cache hit, 2 rejected Busy.
    obs::Span admit_span(obs::recorder(), "server.admit", obs::Proc::kServer,
                         trace.trace_id, trace.parent_span_id);

    if (std::shared_ptr<const api::Solution> hit = cache.find(key)) {
      admit_span.set_arg(1);
      admit_span.end();
      m_cache_hits.inc();
      reply_result(sock, *hit, /*cache_hit=*/true, *call, t0);
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
    admit_span.end();

    // Dispatch on the shared scheduler and block this handler until the
    // job's final slice delivers. The connection's shared_ptr keeps the
    // graph alive for the whole wait, so the raw BatchJob pointer is safe.
    auto promise = std::make_shared<std::promise<api::Solution>>();
    std::future<api::Solution> future = promise->get_future();
    api::BatchJob job;
    job.graph = state.graph.get();
    job.algorithm = call->algorithm;
    job.request = call->request;
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
      release(state.text_bytes, nullptr);
      send_error(sock, std::string("solve failed: ") + ex.what());
      return true;
    }
    release(state.text_bytes, &sol.net);
    m_rounds_per_solve.observe(sol.net.rounds);
    auto shared = std::make_shared<const api::Solution>(std::move(sol));
    cache.insert(key, shared);
    // The final batch slice ended before on_complete fired, so the
    // scheduler's spans are all in the recorder by now.
    reply_result(sock, *shared, /*cache_hit=*/false, *call, t0);
    return true;
  }

};

bool SolveServer::Impl::ConnGraph::handle(Socket& sock, Frame& frame) {
  PayloadReader r(frame.payload);
  switch (frame.tag) {
    case FrameTag::kSubmitGraph:
      return impl.handle_submit_graph(sock, r, *this);
    case FrameTag::kSubmitGraphBinary:
      return impl.handle_submit_graph_binary(sock, r, *this);
    default:  // kSolve
      return impl.handle_solve(sock, frame, *this);
  }
}

SolveServer::SolveServer(const ServerOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

SolveServer::~SolveServer() {
  // A server destroyed mid-serve() is a caller bug; destroying one that
  // never started (or already drained) must still stop the scheduler.
  impl_->scheduler.stop_service();
}

void SolveServer::start() {
  impl_->listen(impl_->opts.listen);
  impl_->scheduler.start_service();
}

void SolveServer::serve() {
  // The scheduler drains once every handler has joined, also when the
  // accept loop failed.
  try {
    impl_->serve();
  } catch (...) {
    impl_->scheduler.stop_service();
    throw;
  }
  impl_->scheduler.stop_service();
}

void SolveServer::request_stop() noexcept { impl_->request_stop(); }

const std::string& SolveServer::address() const noexcept {
  return impl_->address();
}

const ServerOptions& SolveServer::options() const noexcept {
  return impl_->opts;
}

ServerStats SolveServer::stats() const { return impl_->stats_snapshot(); }

}  // namespace hypercover::server
