#pragma once
// server::Client — the blocking client of the solve service.
//
// One reusable connection speaking the wire.hpp frame protocol:
// connect() performs the Hello handshake, then any number of
// submit_graph_*() / solve() round trips reuse the socket — the whole
// point of the serving path is that a stream of solves pays connection
// and process startup once, not per request.
//
// Error model: overload comes back as BusyError (typed, carries the
// server's load so callers can back off), a server-side failure as
// RemoteError (the Error frame's message), a malformed reply as
// ProtocolError, and a dead socket as SocketError. The client never
// hangs on a well-behaved server: every request has exactly one reply.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "server/socket.hpp"
#include "server/wire.hpp"

namespace hypercover::server {

/// The server answered Busy: admission control rejected the request.
class BusyError : public std::runtime_error {
 public:
  explicit BusyError(const BusyInfo& info);
  BusyInfo info;
};

/// The server answered Error (bad graph, unknown algorithm, failed
/// solve, protocol misuse).
class RemoteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bounded exponential backoff for Busy replies to solve(). Attempt k
/// (0-based) sleeps base_delay_ms << k, capped at max_delay_ms, with
/// the upper half jittered from an explicitly seeded PRNG — so two
/// clients with different seeds desynchronize instead of re-stampeding,
/// while any one run replays the same delay sequence (the determinism
/// contract: same seed, same schedule). max_retries == 0 keeps the
/// historical throw-on-first-Busy behavior.
struct BusyRetryPolicy {
  std::uint32_t max_retries = 0;
  std::uint32_t base_delay_ms = 10;
  std::uint32_t max_delay_ms = 2000;
  std::uint64_t seed = 0;
};

class Client {
 public:
  Client() = default;

  /// Connects and performs the Hello handshake. Throws SocketError if
  /// the server is unreachable, RemoteError on a version mismatch.
  /// timeout_ms > 0 bounds both connection establishment and every
  /// subsequent reply wait (SocketTimeout on expiry); 0 — the default,
  /// right for local unix sockets — never times out.
  void connect(const std::string& address, std::uint32_t timeout_ms = 0);

  [[nodiscard]] bool connected() const noexcept { return sock_.valid(); }

  /// Sends the instance in hypergraph/io.hpp text form; the server
  /// parses it and keys this connection's subsequent solves against it.
  GraphInfo submit_graph_text(std::string_view text);

  /// Path-by-reference: the SERVER opens this path (useful when client
  /// and server share a filesystem — the instance bytes skip the socket).
  GraphInfo submit_graph_path(const std::string& path);

  /// Sends an hgb buffer (hypergraph/binary.hpp) inline; the server
  /// validates and adopts it without re-parsing any text.
  GraphInfo submit_graph_binary(std::span<const std::uint8_t> hgb);

  /// Path-by-reference for an .hgb file: the SERVER mmaps and adopts it
  /// zero-copy — the cheapest way to stage a large shared instance.
  GraphInfo submit_graph_binary_path(const std::string& path);

  /// Solves the connection's current graph. The returned WireResult
  /// carries the full cover and duals for local re-verification, the
  /// Busy-retry work actually performed (busy_retries / busy_backoff_ms
  /// — client-local fields, never on the wire), and, with tracing
  /// enabled, the request's stitched spans (the client.solve root plus
  /// whatever the server shipped back). On a Busy reply, retries per the
  /// configured BusyRetryPolicy before letting the final BusyError
  /// escape; resending is safe because a solve is idempotent
  /// (bit-identical) by contract.
  WireResult solve(std::string_view algorithm, const SolveKnobs& knobs = {});

  /// Installs the Busy backoff policy for subsequent solve() calls.
  void set_busy_retry(const BusyRetryPolicy& policy) noexcept {
    busy_retry_ = policy;
  }

  /// Enables per-solve tracing: each solve() mints a trace id, records a
  /// client.solve root span (plus per-retry client.busy_retry spans) and
  /// propagates the context on the wire so the router and server stitch
  /// their spans into the same trace.
  void set_tracing(bool enabled) noexcept { tracing_ = enabled; }

  ServerStats stats();

  /// Prometheus text exposition scraped from the server.
  std::string metrics_text();

  /// Asks the server to drain and exit; returns once ShutdownOk arrives.
  void shutdown_server();

  void close() noexcept { sock_.close(); }

 private:
  /// One request/response exchange; throws on Busy/Error replies and
  /// verifies the reply tag.
  Frame round_trip(FrameTag request, const std::vector<std::uint8_t>& payload,
                   FrameTag expected_reply);

  /// Shared body of the submit_graph_* forms: kind byte, then the
  /// length-prefixed graph bytes or path.
  GraphInfo submit_graph(FrameTag tag, std::uint8_t kind,
                         std::string_view bytes);

  Socket sock_;
  BusyRetryPolicy busy_retry_;
  bool tracing_ = false;
};

}  // namespace hypercover::server
