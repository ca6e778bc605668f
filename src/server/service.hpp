#pragma once
// server::Service — the connection skeleton of both serving daemons.
//
// SolveServer and router::Router differ only in what a graph submit and
// a Solve do. The rest lives here once: the accept loop with one handler
// thread per connection, the knock-and-join drain, the Hello (exactly
// kProtocolVersion, anything else gets Error), Stats, Metrics, Shutdown
// and unknown-tag answers, the policy that a failing connection costs
// that connection and never the daemon, and the three common counters
// (connections, requests, protocol errors), each kept as an atomic for
// the StatsReply plus its registry series under the daemon's prefix.
//
// A daemon derives from Service and supplies a Session per connection,
// its Stats snapshot and, optionally, a Shutdown hook. The Session call
// is the only indirect call on the per-frame path. Each handler thread
// owns its Socket and Session; only the connection list (the drain
// knocks sockets that handlers own) and the counters are shared.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "server/socket.hpp"
#include "server/wire.hpp"

namespace hypercover::server {

/// A serving counter on both of its surfaces: an atomic for this
/// daemon's own readers (StatsReply, the Router API) and its registry
/// series for the scrape, which sums every instance in the process. One
/// inc() moves both, so the two cannot drift apart.
class Tally {
 public:
  explicit Tally(const std::string& series)
      : series_(obs::metrics().counter(series)) {}
  void inc() noexcept {
    n_.fetch_add(1, std::memory_order_relaxed);
    series_.inc();
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return n_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> n_{0};
  obs::Counter& series_;
};

/// A Solve both daemons act on: decoded, checked and keyed.
struct SolveCall {
  std::string algorithm;
  api::SolveRequest request;
  /// The client's trace context. An untraced request on a daemon with
  /// trace_local gets a locally minted trace id here; wire_traced stays
  /// false, so its spans never ride the Result.
  TraceContext trace;
  bool wire_traced = false;
  std::uint64_t key = 0;  ///< util::solve_digest(graph, algorithm, request)
};

/// One connection's daemon-specific state: the graph it staged and
/// whatever else outlives a single request.
class Session {
 public:
  Session() = default;
  virtual ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Answers one SubmitGraph, SubmitGraphBinary or Solve frame. The
  /// frame is the session's to consume (the router moves its payload
  /// on). Returns false when the connection must be dropped.
  virtual bool handle(Socket& sock, Frame& frame) = 0;
};

class Service {
 public:
  /// `name` appears in the Hello refusal ("server" or "router");
  /// `metric_prefix` names the common series (hc_server_ or hc_router_);
  /// `trace_local` is the daemon's option of that name (read_solve).
  Service(std::string name, const std::string& metric_prefix,
          std::uint32_t max_frame_bytes, bool trace_local);
  virtual ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Binds the listen address, once. Throws SocketError on failure.
  void listen(const std::string& address);

  /// Accepts and serves connections until Shutdown or request_stop(),
  /// then drains: every handler finishes its request and is joined.
  /// Throws std::logic_error before listen().
  void serve();

  /// Thread- and async-signal-safe; idempotent.
  void request_stop() noexcept;

  [[nodiscard]] const std::string& address() const noexcept {
    return listener_.address();
  }

 protected:
  /// Connections accepted, frames read, connections dropped as confused.
  Tally connections, requests, protocol_errors;

  /// Counts one protocol violation on both surfaces.
  void count_protocol_error() noexcept { protocol_errors.inc(); }

  /// A fully decoded request must have consumed its whole payload.
  /// Trailing bytes mean the peer framed a different (likely newer or
  /// corrupt) request shape than we just parsed — silently accepting the
  /// prefix would act on half a request. Found by the wire fuzz harness;
  /// answered with one Error, then the connection is dropped as
  /// desynchronized. Returns true when the request is clean.
  bool consumed_all(Socket& sock, const PayloadReader& r, const char* what);

  /// Decodes a Solve against the connection's graph (`graph_digest`,
  /// when `have_graph`) and answers Error to the ones no daemon serves:
  /// no graph staged yet, or an unknown algorithm. Returns false to drop
  /// the connection (trailing bytes); leaves `call` empty when the frame
  /// was answered.
  bool read_solve(Socket& sock, const Frame& frame, bool have_graph,
                  std::uint64_t graph_digest, std::optional<SolveCall>& call);

  /// A fresh session for one accepted connection.
  virtual std::unique_ptr<Session> open_session() = 0;

  /// The payload of a StatsReply.
  virtual ServerStats stats_snapshot() = 0;

  /// Runs after ShutdownOk went out and before the drain starts.
  virtual void on_shutdown() {}

 private:
  /// One handler thread, reaped opportunistically by the accept loop
  /// and joined at drain.
  struct Conn {
    std::thread thread;
    Socket* sock = nullptr;  // valid while the handler runs (conns_mu_)
    std::atomic<bool> done{false};
  };

  void handle_connection(Socket& sock);
  void reap_finished();
  void drain();

  const std::string name_;
  const std::uint32_t max_frame_bytes_;
  const bool trace_local_;
  Listener listener_;
  std::atomic<bool> stopping_{false};
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Writes one Error frame carrying `message`.
void send_error(Socket& sock, const std::string& message);

/// Reads the file at `path` for a by-path text submit, in 64 KiB chunks
/// until it holds more than `cap` bytes: inline mode is capped by the
/// frame length, so the by-path mode must not let a huge (or endless:
/// /dev/zero) file balloon the handler. A result longer than `cap`
/// means "too big"; nullopt means the file cannot be opened.
[[nodiscard]] std::optional<std::string> read_file_bounded(
    const std::string& path, std::uint64_t cap);

}  // namespace hypercover::server
