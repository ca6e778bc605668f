#include "server/client.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/prng.hpp"

namespace hypercover::server {

namespace {

std::string busy_message(const BusyInfo& info) {
  std::ostringstream os;
  os << "server busy: " << info.in_flight << "/" << info.max_inflight
     << " jobs in flight, " << info.queued_bytes << "/"
     << info.max_queued_bytes << " queued bytes";
  return os.str();
}

}  // namespace

BusyError::BusyError(const BusyInfo& busy)
    : std::runtime_error(busy_message(busy)), info(busy) {}

Frame Client::round_trip(FrameTag request,
                         const std::vector<std::uint8_t>& payload,
                         FrameTag expected_reply) {
  write_frame(sock_, request, payload);
  Frame reply;
  if (!read_frame(sock_, reply)) {
    throw ProtocolError("server closed the connection instead of replying");
  }
  if (reply.tag == expected_reply) return reply;
  PayloadReader r(reply.payload);
  if (reply.tag == FrameTag::kBusy) throw BusyError(decode_busy(r));
  if (reply.tag == FrameTag::kError) throw RemoteError(r.str());
  throw ProtocolError("unexpected reply tag " +
                      std::to_string(static_cast<unsigned>(reply.tag)));
}

void Client::connect(const std::string& address, std::uint32_t timeout_ms) {
  sock_ = connect_to(address, timeout_ms);
  sock_.set_recv_timeout(timeout_ms);
  PayloadWriter w;
  w.u32(kProtocolVersion);
  const Frame reply = round_trip(FrameTag::kHello, w.take(), FrameTag::kHelloOk);
  PayloadReader r(reply.payload);
  const std::uint32_t got = r.u32();
  if (got != kProtocolVersion) {
    throw RemoteError("server speaks protocol version " +
                      std::to_string(got) + ", client speaks " +
                      std::to_string(kProtocolVersion));
  }
}

GraphInfo Client::submit_graph(FrameTag tag, std::uint8_t kind,
                               std::string_view bytes) {
  PayloadWriter w;
  w.u8(kind);
  w.str(bytes);
  const Frame reply = round_trip(tag, w.take(), FrameTag::kGraphOk);
  PayloadReader r(reply.payload);
  return decode_graph_ok(r);
}

GraphInfo Client::submit_graph_text(std::string_view text) {
  return submit_graph(FrameTag::kSubmitGraph, kGraphInline, text);
}

GraphInfo Client::submit_graph_path(const std::string& path) {
  return submit_graph(FrameTag::kSubmitGraph, kGraphByPath, path);
}

GraphInfo Client::submit_graph_binary(std::span<const std::uint8_t> hgb) {
  const std::string_view bytes(reinterpret_cast<const char*>(hgb.data()),
                               hgb.size());
  return submit_graph(FrameTag::kSubmitGraphBinary, kGraphInline, bytes);
}

GraphInfo Client::submit_graph_binary_path(const std::string& path) {
  return submit_graph(FrameTag::kSubmitGraphBinary, kGraphByPath, path);
}

WireResult Client::solve(std::string_view algorithm, const SolveKnobs& knobs) {
  // A trace id is minted per traced solve; the root span records locally
  // and the context rides the Solve so every layer parents under it.
  const std::uint64_t trace_id = tracing_ ? obs::new_id() : 0;
  obs::Span root(obs::recorder(), "client.solve", obs::Proc::kClient,
                 trace_id, /*parent_span_id=*/0);
  const TraceContext trace{trace_id, trace_id != 0 ? root.id() : 0};
  PayloadWriter w;
  encode_solve(w, algorithm, knobs, trace);
  const std::vector<std::uint8_t> payload = w.take();
  // Jitter source seeded explicitly from the policy: the delay schedule
  // is a pure function of (seed, attempt index), replayable run to run.
  util::Xoshiro256StarStar jitter(busy_retry_.seed);
  std::uint32_t retries = 0;
  std::uint64_t backoff_ms = 0;
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      const Frame reply =
          round_trip(FrameTag::kSolve, payload, FrameTag::kResult);
      PayloadReader r(reply.payload);
      WireResult res = decode_result(r);
      res.busy_retries = retries;
      res.busy_backoff_ms = backoff_ms;
      if (retries > 0) {
        obs::metrics()
            .counter("hc_client_busy_retries_total")
            .inc(retries);
        obs::metrics()
            .counter("hc_client_busy_backoff_ms_total")
            .inc(backoff_ms);
      }
      if (trace_id != 0) {
        root.set_arg(retries);
        root.end();
        auto mine = obs::recorder().collect(trace_id);
        res.spans.insert(res.spans.end(), mine.begin(), mine.end());
      }
      return res;
    } catch (const BusyError&) {
      if (attempt >= busy_retry_.max_retries) throw;
      const std::uint32_t shift = std::min(attempt, 31U);
      const std::uint64_t ceiling =
          std::min<std::uint64_t>(busy_retry_.max_delay_ms,
                                  std::uint64_t(busy_retry_.base_delay_ms)
                                      << shift);
      // Half fixed, half jittered: bounded below so progress is made,
      // bounded above by the policy cap.
      const std::uint64_t half = ceiling / 2;
      const std::uint64_t delay = half + jitter.below(half + 1);
      ++retries;
      backoff_ms += delay;
      obs::Span wait(obs::recorder(), "client.busy_retry", obs::Proc::kClient,
                     trace_id, root.id(), attempt);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

std::string Client::metrics_text() {
  const Frame reply =
      round_trip(FrameTag::kMetrics, {}, FrameTag::kMetricsReply);
  PayloadReader r(reply.payload);
  return std::string(r.str());
}

ServerStats Client::stats() {
  const Frame reply = round_trip(FrameTag::kStats, {}, FrameTag::kStatsReply);
  PayloadReader r(reply.payload);
  return decode_stats(r);
}

void Client::shutdown_server() {
  (void)round_trip(FrameTag::kShutdown, {}, FrameTag::kShutdownOk);
}

}  // namespace hypercover::server
