#pragma once
// server::SolveServer — the persistent hypercover solve service.
//
// The daemon layer that makes every prior throughput PR reachable from
// outside the process: a long-lived server listening on a Unix-domain or
// TCP socket, speaking the frame protocol of wire.hpp, and dispatching
// every Solve request as an api::BatchJob on ONE shared
// api::BatchScheduler in service mode — so solves from concurrent
// clients interleave exactly like the jobs of a PR 4 batch, with the
// same bit-identical-to-solo Solution guarantee, and every response
// carries the certificate that proves it.
//
// Three serving concerns, each deliberately simple:
//   * Result cache  — digest-keyed LRU (util::solve_digest x the full
//     request); a hit returns the stored Solution, bit-identical to a
//     fresh solo solve by the scheduler's determinism guarantee.
//   * Admission     — at most `max_inflight` dispatched jobs and
//     `max_queued_bytes` of admitted graph bytes at once; overload is
//     answered with a typed Busy frame carrying the current load, never
//     with a hang or a silent queue. A graph weighs what it was
//     submitted as: text bytes, or hgb bytes for a binary submit. A
//     text graph sent through router::Router arrives as the router's
//     inline hgb, so it is admitted, and counted in `queued_bytes`, at
//     its hgb size (2-3x its text size on small instances).
//   * Graceful drain — Shutdown (or request_stop()) stops accepting,
//     knocks idle connections loose, lets every in-flight solve finish
//     and deliver its Result, then drains the scheduler and returns.
//
// Threading: one accept loop (the serve() caller), one handler thread
// per connection (blocking request/response, so a connection needs no
// internal synchronization), and the scheduler's worker pool underneath
// all of them.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "server/wire.hpp"

namespace hypercover::server {

struct ServerOptions {
  /// "unix:<path>" or "<host>:<port>" (port 0 = ephemeral; the bound
  /// port is reported by address()).
  std::string listen = "unix:/tmp/hypercover.sock";
  /// Scheduler pool size (0 = one worker per hardware thread).
  std::uint32_t threads = 0;
  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t cache_entries = 256;
  /// Admission: maximum concurrently dispatched solve jobs. 0 rejects
  /// every solve with Busy (a drain/test mode, not a useful server).
  std::uint32_t max_inflight = 64;
  /// Admission: maximum total graph bytes (text, or hgb for binary and
  /// router-staged submits) held by in-flight solves, plus the
  /// per-submit size cap.
  std::uint64_t max_queued_bytes = 64u << 20;
  /// Rounds a scheduler worker steps one job before requeueing it.
  std::uint32_t round_quantum = 32;
  /// Hard cap on one frame's payload (protocol safety, not admission).
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Log per-request serving events (Busy rejections, with the solve
  /// digest prefix and trace id) to stderr.
  bool verbose = false;
  /// Record spans for UNtraced requests under a locally minted trace id
  /// (the daemon's --trace-out drain export). Spans still never ride a
  /// Result unless the client sent its own trace id.
  bool trace_local = false;
};

class SolveServer {
 public:
  explicit SolveServer(const ServerOptions& opts = {});
  ~SolveServer();

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Binds the listen address and starts the scheduler service. Throws
  /// SocketError on bind failure. Must be called exactly once, before
  /// serve().
  void start();

  /// Accepts and serves connections until a Shutdown frame or
  /// request_stop(), then drains (in-flight solves finish and deliver)
  /// and returns. Call from the thread that owns the server's lifetime.
  void serve();

  /// Signals serve() to stop accepting and drain. Thread- and
  /// async-signal-safe; idempotent.
  void request_stop() noexcept;

  /// The bound address (TCP port 0 resolved). Valid after start().
  [[nodiscard]] const std::string& address() const noexcept;

  [[nodiscard]] const ServerOptions& options() const noexcept;

  /// Snapshot of the serving counters (the payload of a StatsReply).
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hypercover::server
