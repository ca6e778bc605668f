#pragma once
// router::Router — the sharding front-end of the solve service.
//
// Speaks the exact wire.hpp protocol on both faces: clients connect to
// the router as if it were a single hypercover_served; the router fans
// out to N real backends. Every Solve is routed by its solve digest
// (util::solve_digest — graph digest x algorithm x result-affecting
// knobs) over a consistent-hash ring (ring.hpp), so each backend's LRU
// result cache owns a stable shard of the key space and repeat requests
// hit warm caches instead of re-solving cold everywhere.
//
// Fault model: a backend that dies, stalls past the timeout, or answers
// garbage costs one failed attempt, never a failed request — the solve
// is re-dispatched to the next ring node, which is safe because a solve
// is bit-identical by contract (same digest in, same Solution out,
// wherever it runs). The failed backend is marked unhealthy and skipped
// until an exponentially backed-off probe window opens; the first
// request routed to it after the window IS the probe (success restores
// it, failure pushes the window out again).
//
// Stats: a Stats frame to the router answers with the fleet-wide
// aggregate — the sum of every reachable backend's ServerStats plus the
// router's own connection/request/protocol counters — through the
// existing StatsReply frame, no protocol change. Per-backend counters
// (solves, cache hits, failures, health) are exposed on the Router API
// and printed by the hypercover_router binary at drain.
//
// Threading: server::Service (service.hpp, shared with SolveServer)
// runs the accept loop and one handler thread per client connection.
// Each handler's session keeps its own lazily-connected
// upstream socket per backend (the backend protocol is stateful — a
// staged graph belongs to a connection), so handlers never share
// sockets and need no I/O locks; only the health registry and counters
// are shared.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/wire.hpp"

namespace hypercover::router {

struct RouterOptions {
  /// Router's own listen address: "unix:<path>" or "<host>:<port>".
  std::string listen = "unix:/tmp/hypercover_router.sock";
  /// Backend addresses, same syntax. Ring placement depends only on
  /// this list's contents (not order), so every router over the same
  /// fleet agrees.
  std::vector<std::string> backends;
  /// Virtual nodes per backend on the hash ring.
  std::uint32_t vnodes = 64;
  /// Receive deadline for one backend reply; expiry fails the attempt
  /// over to the next ring node. 0 waits forever (then a stalled
  /// backend stalls the request — only sane for tests).
  std::uint32_t backend_timeout_ms = 30000;
  /// Deadline for establishing one backend connection.
  std::uint32_t connect_timeout_ms = 2000;
  /// Unhealthy-backend probe backoff: first window, doubling per
  /// consecutive failure, capped.
  std::uint32_t probe_backoff_ms = 200;
  std::uint32_t probe_backoff_max_ms = 5000;
  /// Forward a client Shutdown to every backend (fleet shutdown) before
  /// draining the router itself.
  bool forward_shutdown = true;
  /// Hard cap on one frame's payload, both faces.
  std::uint32_t max_frame_bytes = server::kDefaultMaxFrameBytes;
  /// Log per-request routing events (Busy forwards, failovers, ring
  /// exhaustion — with the solve digest prefix and trace id) to stderr.
  bool verbose = false;
  /// Record router spans for UNtraced requests under a locally minted
  /// trace id (the daemon's --trace-out drain export). Local trace ids
  /// are never propagated to backends and never ride a client Result.
  bool trace_local = false;
};

/// Point-in-time view of one backend, for tests and the drain report.
struct BackendSnapshot {
  std::string address;
  bool healthy = true;
  std::uint32_t consecutive_failures = 0;
  std::uint64_t solves = 0;      ///< Results this backend served
  std::uint64_t cache_hits = 0;  ///< ... of which were its LRU hits
  std::uint64_t busy = 0;        ///< Busy frames it answered
  std::uint64_t failures = 0;    ///< socket/timeout/protocol failures
};

class Router {
 public:
  explicit Router(const RouterOptions& opts);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the listen address. Does not touch the backends — a fleet
  /// may come up in any order; unreachable backends are discovered (and
  /// health-tracked) on first use.
  void start();

  /// Accept loop; returns after request_stop() (or a forwarded
  /// Shutdown) once every client connection drained.
  void serve();

  void request_stop() noexcept;

  [[nodiscard]] const std::string& address() const noexcept;
  [[nodiscard]] const RouterOptions& options() const noexcept;

  /// The fleet aggregate a Stats frame answers with: queries every
  /// usable backend over the wire and sums, plus router-local counters.
  [[nodiscard]] server::ServerStats fleet_stats();

  [[nodiscard]] std::vector<BackendSnapshot> backend_snapshots() const;

  /// Re-dispatches after a failed backend attempt (the failover count).
  [[nodiscard]] std::uint64_t retries() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hypercover::router
