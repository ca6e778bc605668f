#include "server/wire.hpp"

#include <bit>
#include <cstring>

#include "core/mwhvc.hpp"

namespace hypercover::server {

namespace {

void put_le32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  buf.push_back(static_cast<std::uint8_t>(v));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v >> 16));
  buf.push_back(static_cast<std::uint8_t>(v >> 24));
}

}  // namespace

// --- framing ---------------------------------------------------------------

void write_frame(Socket& sock, FrameTag tag,
                 const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> buf;
  buf.reserve(5 + payload.size());
  put_le32(buf, static_cast<std::uint32_t>(payload.size()));
  buf.push_back(static_cast<std::uint8_t>(tag));
  buf.insert(buf.end(), payload.begin(), payload.end());
  sock.send_all(buf.data(), buf.size());
}

void write_frame(Socket& sock, FrameTag tag) { write_frame(sock, tag, {}); }

bool read_frame(Socket& sock, Frame& out, std::uint32_t max_payload) {
  std::uint8_t header[5];
  try {
    if (!sock.recv_all(header, sizeof(header))) return false;
  } catch (const SocketEof& eof) {
    // EOF inside the header or payload is a truncated frame — a protocol
    // violation by the peer, not an OS failure on our side.
    throw ProtocolError(std::string("truncated frame header: ") + eof.what());
  }
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            (static_cast<std::uint32_t>(header[1]) << 8) |
                            (static_cast<std::uint32_t>(header[2]) << 16) |
                            (static_cast<std::uint32_t>(header[3]) << 24);
  if (len > max_payload) {
    throw ProtocolError("frame length " + std::to_string(len) +
                        " exceeds the " + std::to_string(max_payload) +
                        "-byte cap");
  }
  out.tag = static_cast<FrameTag>(header[4]);
  out.payload.resize(len);
  try {
    if (len > 0 && !sock.recv_all(out.payload.data(), len)) {
      throw ProtocolError("connection closed mid-frame (expected " +
                          std::to_string(len) + " payload bytes)");
    }
  } catch (const SocketEof& eof) {
    throw ProtocolError(std::string("connection closed mid-frame: ") +
                        eof.what());
  }
  return true;
}

// --- payload primitives ----------------------------------------------------

void PayloadWriter::u32(std::uint32_t v) { put_le32(buf_, v); }

void PayloadWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void PayloadWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void PayloadWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void PayloadWriter::bytes(std::span<const std::uint8_t> b) {
  u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

const std::uint8_t* PayloadReader::need(std::size_t n) {
  if (buf_.size() - pos_ < n) {
    throw ProtocolError("payload truncated (need " + std::to_string(n) +
                        " bytes at offset " + std::to_string(pos_) + " of " +
                        std::to_string(buf_.size()) + ")");
  }
  const std::uint8_t* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t PayloadReader::u8() { return *need(1); }

std::uint32_t PayloadReader::u32() {
  const std::uint8_t* p = need(4);
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t PayloadReader::u64() {
  const std::uint64_t lo = u32();
  return lo | (static_cast<std::uint64_t>(u32()) << 32);
}

double PayloadReader::f64() { return std::bit_cast<double>(u64()); }

std::string PayloadReader::str() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = need(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

std::vector<std::uint8_t> PayloadReader::bytes() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = need(len);
  return std::vector<std::uint8_t>(p, p + len);
}

// --- typed payloads --------------------------------------------------------

api::SolveRequest to_request(const SolveKnobs& knobs) {
  api::SolveRequest req;
  req.eps = knobs.eps;
  req.f_approx = knobs.f_approx;
  req.f_override = knobs.f_override;
  if (knobs.max_rounds != 0) req.engine.max_rounds = knobs.max_rounds;
  req.mwhvc.appendix_c = knobs.appendix_c;
  if (knobs.use_alpha_fixed) {
    req.mwhvc.alpha_mode = core::AlphaMode::kFixed;
    req.mwhvc.alpha_fixed = knobs.alpha_fixed;
  }
  req.certify = knobs.certify;
  return req;
}

namespace {
constexpr std::uint8_t kKnobFApprox = 1u << 0;
constexpr std::uint8_t kKnobAppendixC = 1u << 1;
constexpr std::uint8_t kKnobAlphaFixed = 1u << 2;
constexpr std::uint8_t kKnobNoCertify = 1u << 3;
}  // namespace

void encode_solve(PayloadWriter& w, std::string_view algorithm,
                  const SolveKnobs& knobs, const TraceContext& trace) {
  w.str(algorithm);
  w.f64(knobs.eps);
  w.u32(knobs.f_override);
  w.u32(knobs.max_rounds);
  w.f64(knobs.alpha_fixed);
  std::uint8_t flags = 0;
  if (knobs.f_approx) flags |= kKnobFApprox;
  if (knobs.appendix_c) flags |= kKnobAppendixC;
  if (knobs.use_alpha_fixed) flags |= kKnobAlphaFixed;
  if (!knobs.certify) flags |= kKnobNoCertify;
  w.u8(flags);
  // v4 trace-context tail, omitted for untraced requests so the frame
  // stays byte-identical to v3 (kTraceParentTailOffset depends on the
  // parent span id being the final 8 bytes).
  if (trace.trace_id != 0) {
    w.u64(trace.trace_id);
    w.u64(trace.parent_span_id);
  }
}

void decode_solve(PayloadReader& r, std::string& algorithm, SolveKnobs& knobs,
                  TraceContext* trace) {
  algorithm = r.str();
  knobs.eps = r.f64();
  knobs.f_override = r.u32();
  knobs.max_rounds = r.u32();
  knobs.alpha_fixed = r.f64();
  const std::uint8_t flags = r.u8();
  knobs.f_approx = (flags & kKnobFApprox) != 0;
  knobs.appendix_c = (flags & kKnobAppendixC) != 0;
  knobs.use_alpha_fixed = (flags & kKnobAlphaFixed) != 0;
  knobs.certify = (flags & kKnobNoCertify) == 0;
  if (trace != nullptr) *trace = TraceContext{};
  // A trailing trace context is consumed even when the caller passes no
  // out-param, so the consumed_all discipline holds for traced frames.
  if (r.remaining() != 0) {
    TraceContext t;
    t.trace_id = r.u64();
    t.parent_span_id = r.u64();
    if (trace != nullptr) *trace = t;
  }
}

namespace {

// Cover as a bitmap: n then ceil(n/8) bytes, LSB-first within a byte.
// Unused tail bits of the last byte are written as zero — the canonical
// encoding the fuzz harness pins down with its re-encode check.
void put_cover_bitmap(PayloadWriter& w, const std::vector<bool>& in_cover) {
  const std::uint32_t n = static_cast<std::uint32_t>(in_cover.size());
  w.u32(n);
  std::uint8_t byte = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (in_cover[v]) byte |= static_cast<std::uint8_t>(1u << (v % 8));
    if (v % 8 == 7) {
      w.u8(byte);
      byte = 0;
    }
  }
  if (n % 8 != 0) w.u8(byte);
}

void put_duals(PayloadWriter& w, const std::vector<double>& duals) {
  w.u32(static_cast<std::uint32_t>(duals.size()));
  for (const double d : duals) w.f64(d);
}

// v4 Result span tail: u32 count, then per span six u64s, the proc
// byte, and the name string. Omitted entirely when there are no spans,
// so the untraced Result stays byte-identical to v3 — and "absent" is
// the canonical form of "count == 0" under the re-encode fixed point.
void put_spans(PayloadWriter& w, std::span<const obs::SpanRecord> spans) {
  if (spans.empty()) return;
  w.u32(static_cast<std::uint32_t>(spans.size()));
  for (const obs::SpanRecord& s : spans) {
    w.u64(s.trace_id);
    w.u64(s.span_id);
    w.u64(s.parent_span_id);
    w.u64(s.start_ns);
    w.u64(s.dur_ns);
    w.u64(s.arg);
    w.u8(s.proc);
    w.str(s.name);
  }
}

std::vector<obs::SpanRecord> read_spans(PayloadReader& r) {
  std::vector<obs::SpanRecord> spans;
  if (r.remaining() == 0) return spans;
  const std::uint32_t count = r.u32();
  // 6 u64s + proc byte + the name's length word: the smallest possible
  // span record. Validated before allocating count-sized storage.
  constexpr std::uint64_t kMinSpanBytes = 6 * 8 + 1 + 4;
  if (static_cast<std::uint64_t>(count) * kMinSpanBytes > r.remaining()) {
    throw ProtocolError("span count " + std::to_string(count) +
                        " exceeds the payload");
  }
  spans.resize(count);
  for (obs::SpanRecord& s : spans) {
    s.trace_id = r.u64();
    s.span_id = r.u64();
    s.parent_span_id = r.u64();
    s.start_ns = r.u64();
    s.dur_ns = r.u64();
    s.arg = r.u64();
    s.proc = r.u8();
    s.set_name(r.str().c_str());
  }
  return spans;
}

}  // namespace

void encode_result(PayloadWriter& w, const api::Solution& sol, bool cache_hit,
                   std::uint64_t solve_digest,
                   std::span<const obs::SpanRecord> spans) {
  w.u8(cache_hit ? 1 : 0);
  w.str(sol.algorithm);
  w.u8(static_cast<std::uint8_t>(sol.outcome));
  w.u32(sol.net.rounds);
  w.u8(sol.net.completed ? 1 : 0);
  w.u64(sol.net.total_messages);
  w.u64(sol.net.total_bits);
  w.u32(sol.iterations);
  w.i64(sol.cover_weight);
  w.f64(sol.dual_total);
  w.f64(sol.certificate.certified_ratio);
  w.u8(sol.certificate.valid() ? 1 : 0);
  w.u8(sol.certificate.cover_valid ? 1 : 0);
  w.u8(sol.certificate.packing_feasible ? 1 : 0);
  w.str(sol.certificate.error);
  w.u64(sol.net.transcript_hash);
  w.u64(solve_digest);
  w.f64(sol.wall_ms);
  put_cover_bitmap(w, sol.in_cover);
  put_duals(w, sol.duals);
  put_spans(w, spans);
}

void encode_result(PayloadWriter& w, const WireResult& res) {
  // Field-for-field the same layout as the Solution overload above; the
  // two must stay in sync (decode_result reads this order).
  w.u8(res.cache_hit ? 1 : 0);
  w.str(res.algorithm);
  w.u8(res.outcome);
  w.u32(res.rounds);
  w.u8(res.completed ? 1 : 0);
  w.u64(res.total_messages);
  w.u64(res.total_bits);
  w.u32(res.iterations);
  w.i64(res.cover_weight);
  w.f64(res.dual_total);
  w.f64(res.certified_ratio);
  w.u8(res.cert_valid ? 1 : 0);
  w.u8(res.cert_cover_valid ? 1 : 0);
  w.u8(res.cert_packing_feasible ? 1 : 0);
  w.str(res.cert_error);
  w.u64(res.transcript_hash);
  w.u64(res.solve_digest);
  w.f64(res.wall_ms);
  put_cover_bitmap(w, res.in_cover);
  put_duals(w, res.duals);
  put_spans(w, res.spans);
}

WireResult decode_result(PayloadReader& r) {
  WireResult out;
  out.cache_hit = r.u8() != 0;
  out.algorithm = r.str();
  out.outcome = r.u8();
  out.rounds = r.u32();
  out.completed = r.u8() != 0;
  out.total_messages = r.u64();
  out.total_bits = r.u64();
  out.iterations = r.u32();
  out.cover_weight = r.i64();
  out.dual_total = r.f64();
  out.certified_ratio = r.f64();
  out.cert_valid = r.u8() != 0;
  out.cert_cover_valid = r.u8() != 0;
  out.cert_packing_feasible = r.u8() != 0;
  out.cert_error = r.str();
  out.transcript_hash = r.u64();
  out.solve_digest = r.u64();
  out.wall_ms = r.f64();
  // Validate both counts against the bytes actually present BEFORE
  // sizing storage from them: a corrupt count must be a ProtocolError,
  // never a multi-gigabyte allocation (the frame cap bounds the payload,
  // so it can never legitimately carry such counts).
  const std::uint32_t n = r.u32();
  if ((static_cast<std::size_t>(n) + 7) / 8 > r.remaining()) {
    throw ProtocolError("cover bitmap count " + std::to_string(n) +
                        " exceeds the payload");
  }
  out.in_cover.assign(n, false);
  std::uint8_t byte = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v % 8 == 0) byte = r.u8();
    out.in_cover[v] = (byte & (1u << (v % 8))) != 0;
  }
  const std::uint32_t m = r.u32();
  if (static_cast<std::size_t>(m) * 8 > r.remaining()) {
    throw ProtocolError("dual count " + std::to_string(m) +
                        " exceeds the payload");
  }
  out.duals.resize(m);
  for (std::uint32_t e = 0; e < m; ++e) out.duals[e] = r.f64();
  out.spans = read_spans(r);
  return out;
}

void encode_stats(PayloadWriter& w, const ServerStats& s) {
  w.u64(s.connections);
  w.u64(s.requests);
  w.u64(s.solves);
  w.u64(s.cache_hits);
  w.u64(s.cache_misses);
  w.u64(s.cache_evictions);
  w.u64(s.busy_rejections);
  w.u64(s.protocol_errors);
  w.u64(s.in_flight);
  w.u64(s.queued_bytes);
  w.u64(s.cache_entries);
  w.u32(s.pool_threads);
  w.u32(s.max_inflight);
  w.u64(s.engine_rounds);
  w.u64(s.engine_agent_steps);
  w.u64(s.engine_step_cycles);
  w.u64(s.engine_slots_processed);
  w.u64(s.engine_clear_slots);
  w.u64(s.engine_sparse_clear_passes);
  w.u64(s.engine_dense_clear_passes);
}

ServerStats decode_stats(PayloadReader& r) {
  ServerStats s;
  s.connections = r.u64();
  s.requests = r.u64();
  s.solves = r.u64();
  s.cache_hits = r.u64();
  s.cache_misses = r.u64();
  s.cache_evictions = r.u64();
  s.busy_rejections = r.u64();
  s.protocol_errors = r.u64();
  s.in_flight = r.u64();
  s.queued_bytes = r.u64();
  s.cache_entries = r.u64();
  s.pool_threads = r.u32();
  s.max_inflight = r.u32();
  s.engine_rounds = r.u64();
  s.engine_agent_steps = r.u64();
  s.engine_step_cycles = r.u64();
  s.engine_slots_processed = r.u64();
  s.engine_clear_slots = r.u64();
  s.engine_sparse_clear_passes = r.u64();
  s.engine_dense_clear_passes = r.u64();
  return s;
}

void encode_busy(PayloadWriter& w, const BusyInfo& b) {
  w.u64(b.in_flight);
  w.u64(b.max_inflight);
  w.u64(b.queued_bytes);
  w.u64(b.max_queued_bytes);
}

BusyInfo decode_busy(PayloadReader& r) {
  BusyInfo b;
  b.in_flight = r.u64();
  b.max_inflight = r.u64();
  b.queued_bytes = r.u64();
  b.max_queued_bytes = r.u64();
  return b;
}

}  // namespace hypercover::server
