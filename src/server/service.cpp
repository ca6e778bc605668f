#include "server/service.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"

namespace hypercover::server {

Service::Service(std::string name, const std::string& metric_prefix,
                 std::uint32_t max_frame_bytes, bool trace_local)
    : connections(metric_prefix + "connections_total"),
      requests(metric_prefix + "requests_total"),
      protocol_errors(metric_prefix + "protocol_errors_total"),
      name_(std::move(name)),
      max_frame_bytes_(max_frame_bytes),
      trace_local_(trace_local) {}

// A bound Listener is the only one with an address.
void Service::listen(const std::string& address) {
  if (!listener_.address().empty()) {
    throw std::logic_error(name_ + ": started twice");
  }
  listener_ = Listener::open(address);
}

bool Service::consumed_all(Socket& sock, const PayloadReader& r,
                           const char* what) {
  if (r.done()) return true;
  count_protocol_error();
  send_error(sock, std::string(what) + " carries " +
                       std::to_string(r.remaining()) +
                       " trailing payload bytes");
  return false;
}

bool Service::read_solve(Socket& sock, const Frame& frame, bool have_graph,
                         std::uint64_t graph_digest,
                         std::optional<SolveCall>& call) {
  PayloadReader r(frame.payload);
  SolveCall c;
  SolveKnobs knobs;
  decode_solve(r, c.algorithm, knobs, &c.trace);
  if (!consumed_all(sock, r, "Solve")) return false;
  if (!have_graph) {
    send_error(sock, "Solve before SubmitGraph");
    return true;
  }
  if (api::find_solver(c.algorithm) == nullptr) {
    send_error(sock, "unknown algorithm \"" + c.algorithm + "\"");
    return true;
  }
  c.request = to_request(knobs);
  c.key = util::solve_digest(graph_digest, c.algorithm, c.request);
  c.wire_traced = c.trace.trace_id != 0;
  if (!c.wire_traced && trace_local_) c.trace.trace_id = obs::new_id();
  call = std::move(c);
  return true;
}

/// Runs one connection's request/response loop. Returns when the peer
/// closes, a protocol violation is detected, or the daemon drains.
void Service::handle_connection(Socket& sock) {
  bool greeted = false;
  Frame frame;
  try {
    const std::unique_ptr<Session> session = open_session();
    while (read_frame(sock, frame, max_frame_bytes_)) {
      requests.inc();
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
          if (version != kProtocolVersion) {
            count_protocol_error();
            send_error(sock, "protocol version " + std::to_string(version) +
                                 " unsupported (" + name_ + " speaks " +
                                 std::to_string(kProtocolVersion) + ")");
            return;
          }
          greeted = true;
          PayloadWriter w;
          w.u32(kProtocolVersion);
          w.u32(static_cast<std::uint32_t>(api::solvers().size()));
          write_frame(sock, FrameTag::kHelloOk, w.take());
          break;
        }
        case FrameTag::kSubmitGraph:
        case FrameTag::kSubmitGraphBinary:
        case FrameTag::kSolve:
          if (!session->handle(sock, frame)) return;
          break;
        case FrameTag::kStats: {
          if (!consumed_all(sock, r, "Stats")) return;
          PayloadWriter w;
          encode_stats(w, stats_snapshot());
          write_frame(sock, FrameTag::kStatsReply, w.take());
          break;
        }
        case FrameTag::kMetrics: {
          if (!consumed_all(sock, r, "Metrics")) return;
          // This process's own instruments. The router's fleet-wide
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
          on_shutdown();
          request_stop();
          return;
        default:
          count_protocol_error();
          send_error(sock, "unknown frame tag " +
                               std::to_string(
                                   static_cast<unsigned>(frame.tag)));
          return;  // desynchronized — drop the connection
      }
      if (stopping_.load(std::memory_order_acquire)) return;  // draining
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

void Service::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  listener_.wake();
}

void Service::serve() {
  if (listener_.address().empty()) {
    throw std::logic_error(name_ + ": serve before start");
  }
  // Whatever happens in the accept loop — fd exhaustion in accept(),
  // thread-spawn failure — the drain below must still run, or
  // destroying joinable handler threads would std::terminate the
  // daemon with requests in flight.
  try {
    while (!stopping_.load(std::memory_order_acquire)) {
      Socket sock = listener_.accept();
      if (!sock.valid()) break;  // woken for shutdown
      connections.inc();
      auto conn = std::make_unique<Conn>();
      Conn* raw = conn.get();
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.push_back(std::move(conn));
      }
      raw->thread = std::thread([this, raw, s = std::move(sock)]() mutable {
        {
          std::lock_guard<std::mutex> lock(conns_mu_);
          raw->sock = &s;
        }
        // Registration must precede this check: a drain that started
        // before it could not knock this socket, so knock ourselves.
        if (!stopping_.load(std::memory_order_acquire)) {
          handle_connection(s);
        }
        {
          std::lock_guard<std::mutex> lock(conns_mu_);
          raw->sock = nullptr;
        }
        raw->done.store(true, std::memory_order_release);
      });
      reap_finished();
    }
  } catch (...) {
    stopping_.store(true, std::memory_order_release);
    drain();
    throw;
  }
  drain();
}

/// Joins and discards handler threads that already finished, so a
/// long-lived daemon's thread list tracks live connections, not
/// historical ones.
void Service::reap_finished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    c->thread.join();
    return true;
  });
}

/// Graceful drain: knock idle connections loose (EOF on their next
/// read; in-flight requests finish and deliver first), then join every
/// handler.
void Service::drain() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::unique_ptr<Conn>& c : conns_) {
      if (c->sock != nullptr) c->sock->shutdown_read();
    }
  }
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.back());
      conns_.pop_back();
    }
    // A Conn whose std::thread constructor threw never became
    // joinable; joining it would itself throw.
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void send_error(Socket& sock, const std::string& message) {
  PayloadWriter w;
  w.str(message);
  write_frame(sock, FrameTag::kError, w.take());
}

std::optional<std::string> read_file_bounded(const std::string& path,
                                             std::uint64_t cap) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text;
  char buf[64 * 1024];
  while (text.size() <= cap && (in.read(buf, sizeof(buf)), in.gcount() > 0)) {
    text.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

}  // namespace hypercover::server
