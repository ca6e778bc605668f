#pragma once
// The solve service's frame protocol: length-prefixed binary frames over
// a stream socket, shared verbatim by server::SolveServer,
// router::Router (on both of its faces) and server::Client (one
// encoder/decoder, so the sides cannot drift).
//
// Frame layout (all integers little-endian):
//   u32 payload_length | u8 tag | payload bytes
//
// Conversation (client drives; every request gets exactly one reply):
//   Hello{version}            -> HelloOk{version, algorithms}  | Error
//   SubmitGraph{text | path}  -> GraphOk{graph_digest, n, m}   | Error
//   SubmitGraphBinary{hgb bytes | path} -> GraphOk{...}        | Error
//   Solve{algo, knobs}        -> Result{...}                   | Busy | Error
//   Stats{}                   -> StatsReply{counters}
//   Metrics{}                 -> MetricsReply{Prometheus text}
//   Shutdown{}                -> ShutdownOk{}   (server then drains + exits)
//
// A malformed frame (oversized length field, unknown tag, short payload)
// is answered with Error where a reply is still possible and the
// connection is dropped; the *server* stays up — one confused client
// must never take down the service. Result payloads carry the full
// cover bitmap and dual vector, so a client can re-verify the solution
// against its own copy of the instance without trusting the server.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.hpp"
#include "api/solution.hpp"
#include "obs/obs.hpp"
#include "server/socket.hpp"

namespace hypercover::server {

/// The one protocol version every peer in this repo speaks. A Hello
/// carrying any other version gets Error and the connection is dropped;
/// there is no negotiation. Trace propagation rides optional suffixes
/// (a trace-context tail on Solve, a span-block tail on Result), omitted
/// for untraced requests.
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Default cap on one frame's payload. Admission control can lower the
/// effective graph size well below this; the cap exists so a garbage
/// length field cannot make a peer allocate gigabytes.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

enum class FrameTag : std::uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kSubmitGraph = 3,
  kGraphOk = 4,
  kSolve = 5,
  kResult = 6,
  kStats = 7,
  kStatsReply = 8,
  kShutdown = 9,
  kShutdownOk = 10,
  kBusy = 11,
  kError = 12,
  kSubmitGraphBinary = 13,
  kMetrics = 14,       // request: empty payload
  kMetricsReply = 15,  // reply: one str, Prometheus text exposition
};

/// Graph kinds on a SubmitGraph / SubmitGraphBinary frame: the graph
/// itself (text or hgb bytes), or a path the receiving peer opens.
inline constexpr std::uint8_t kGraphInline = 0;
inline constexpr std::uint8_t kGraphByPath = 1;

/// Peer spoke the protocol wrongly (truncated frame, unknown tag, length
/// over the cap, short payload). Distinct from SocketError (OS failure).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Frame {
  FrameTag tag{};
  std::vector<std::uint8_t> payload;
};

/// Writes one frame (header + payload in one buffered send).
void write_frame(Socket& sock, FrameTag tag,
                 const std::vector<std::uint8_t>& payload);
void write_frame(Socket& sock, FrameTag tag);  // empty payload

/// Reads one frame. Returns false on clean EOF before any header byte;
/// throws ProtocolError on truncation or a length over `max_payload`,
/// SocketError on OS failure.
[[nodiscard]] bool read_frame(Socket& sock, Frame& out,
                              std::uint32_t max_payload = kDefaultMaxFrameBytes);

// --- payload serialization -------------------------------------------------

/// Append-only little-endian payload builder.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// u32 length + raw bytes.
  void str(std::string_view s);
  /// u32 length + raw bytes (binary blobs, e.g. an hgb buffer).
  void bytes(std::span<const std::uint8_t> b);
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader; throws ProtocolError on
/// any read past the end (a short payload is a protocol violation, never
/// undefined behavior).
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}
  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  /// u32 length + raw bytes; the length is validated against remaining().
  [[nodiscard]] std::vector<std::uint8_t> bytes();
  [[nodiscard]] bool done() const noexcept { return pos_ == buf_.size(); }
  /// Bytes left to read — lets decoders validate an element count
  /// against the actual payload before allocating count-sized storage.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  const std::uint8_t* need(std::size_t n);
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

// --- typed payloads --------------------------------------------------------

/// The solver knobs that travel on a Solve frame — the wire projection of
/// api::SolveRequest (execution-only knobs like engine threads stay
/// server-side; result-affecting knobs are all here).
struct SolveKnobs {
  double eps = 0.5;
  bool f_approx = false;
  std::uint32_t f_override = 0;
  /// 0 = the engine default.
  std::uint32_t max_rounds = 0;
  bool appendix_c = false;
  /// When set, alpha_fixed replaces the local per-edge alpha rule.
  bool use_alpha_fixed = false;
  double alpha_fixed = 2.0;
  bool certify = true;
};

/// The knobs mapped onto a solve request (the reverse direction has no
/// single mapping — a SolveRequest holds live-only state too).
[[nodiscard]] api::SolveRequest to_request(const SolveKnobs& knobs);

/// Trace context riding a Solve frame: the request's trace id and the
/// sender's enclosing span, so the receiving layer parents its spans
/// into one stitched per-request trace. trace_id == 0 means "not traced"
/// and the tail is omitted entirely (the canonical encoding).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// Byte offset of TraceContext::parent_span_id from the *end* of a
/// Solve payload that carries a trace tail — the router patches those 8
/// bytes in place to re-parent the forwarded request under its attempt
/// span without re-encoding the knobs.
inline constexpr std::size_t kTraceParentTailOffset = 8;

void encode_solve(PayloadWriter& w, std::string_view algorithm,
                  const SolveKnobs& knobs, const TraceContext& trace = {});
void decode_solve(PayloadReader& r, std::string& algorithm, SolveKnobs& knobs,
                  TraceContext* trace = nullptr);

/// A Result frame, decoded. Mirrors the api::Solution fields the
/// acceptance contract names (cover, duals, transcript digest,
/// certificate) plus the serving metadata (cache hit, solve digest).
struct WireResult {
  bool cache_hit = false;
  std::string algorithm;
  std::uint8_t outcome = 0;  // api::RunOutcome
  std::uint32_t rounds = 0;
  bool completed = false;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  std::uint32_t iterations = 0;
  hg::Weight cover_weight = 0;
  double dual_total = 0;
  double certified_ratio = 0;
  bool cert_valid = false;
  bool cert_cover_valid = false;
  bool cert_packing_feasible = false;
  std::string cert_error;
  std::uint64_t transcript_hash = 0;
  std::uint64_t solve_digest = 0;
  double wall_ms = 0;
  std::vector<bool> in_cover;   // full instance size
  std::vector<double> duals;    // full instance size
  /// Spans recorded downstream of this hop for the request's trace.
  /// Encoded as an optional tail, omitted when empty.
  std::vector<obs::SpanRecord> spans;
  /// Client-local serving stats, filled by Client::solve and NEVER
  /// encoded: Busy retries performed and backoff actually slept.
  std::uint32_t busy_retries = 0;
  std::uint64_t busy_backoff_ms = 0;
};

void encode_result(PayloadWriter& w, const api::Solution& sol, bool cache_hit,
                   std::uint64_t solve_digest,
                   std::span<const obs::SpanRecord> spans = {});
/// Re-encodes a decoded Result. decode/encode are canonical inverses:
/// encode(decode(p)) is the canonical form of p, and re-encoding is
/// idempotent — the property the wire fuzz harness enforces, and what
/// the router needs to forward Results without holding a Solution.
void encode_result(PayloadWriter& w, const WireResult& res);
[[nodiscard]] WireResult decode_result(PayloadReader& r);

/// The GraphOk reply to a SubmitGraph / SubmitGraphBinary frame.
struct GraphInfo {
  std::uint64_t digest = 0;
  std::uint32_t vertices = 0;
  std::uint32_t edges = 0;
};

void encode_graph_ok(PayloadWriter& w, const GraphInfo& g);
[[nodiscard]] GraphInfo decode_graph_ok(PayloadReader& r);

/// Server counters on a StatsReply frame.
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;        // frames that got a reply
  std::uint64_t solves = 0;          // Result frames sent
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;  // capacity pressure
  std::uint64_t busy_rejections = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t queued_bytes = 0;
  std::uint64_t cache_entries = 0;
  std::uint32_t pool_threads = 0;
  std::uint32_t max_inflight = 0;
  // Cumulative engine work across cold solves (cache hits ran no engine),
  // summed from each Solution's RunStats. engine_step_cycles
  // over engine_agent_steps is the server's cycles-per-agent-step, where
  // a round steps only its acting side (vertices in even rounds, edges in
  // odd ones); engine_slots_processed counts the presence bytes wiped
  // when a direction that was read retires (64 per wiped presence line,
  // capped at the link count).
  std::uint64_t engine_rounds = 0;
  std::uint64_t engine_agent_steps = 0;
  std::uint64_t engine_step_cycles = 0;
  std::uint64_t engine_slots_processed = 0;
};

/// Calls `f("field", &ServerStats::field)` for every field in wire
/// order: the one field list the StatsReply codec, the router's fleet
/// sum and the CLI's --server-stats print share.
template <class F>
void for_each_stats_field(F&& f) {
  f("connections", &ServerStats::connections);
  f("requests", &ServerStats::requests);
  f("solves", &ServerStats::solves);
  f("cache_hits", &ServerStats::cache_hits);
  f("cache_misses", &ServerStats::cache_misses);
  f("cache_evictions", &ServerStats::cache_evictions);
  f("busy_rejections", &ServerStats::busy_rejections);
  f("protocol_errors", &ServerStats::protocol_errors);
  f("in_flight", &ServerStats::in_flight);
  f("queued_bytes", &ServerStats::queued_bytes);
  f("cache_entries", &ServerStats::cache_entries);
  f("pool_threads", &ServerStats::pool_threads);
  f("max_inflight", &ServerStats::max_inflight);
  f("engine_rounds", &ServerStats::engine_rounds);
  f("engine_agent_steps", &ServerStats::engine_agent_steps);
  f("engine_step_cycles", &ServerStats::engine_step_cycles);
  f("engine_slots_processed", &ServerStats::engine_slots_processed);
}

void encode_stats(PayloadWriter& w, const ServerStats& s);
[[nodiscard]] ServerStats decode_stats(PayloadReader& r);

/// The typed overload answer: what was full and how full it was, so a
/// client can back off intelligently instead of guessing.
struct BusyInfo {
  std::uint64_t in_flight = 0;
  std::uint64_t max_inflight = 0;
  std::uint64_t queued_bytes = 0;
  std::uint64_t max_queued_bytes = 0;
};

void encode_busy(PayloadWriter& w, const BusyInfo& b);
[[nodiscard]] BusyInfo decode_busy(PayloadReader& r);

}  // namespace hypercover::server
