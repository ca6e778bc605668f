// perfbench workload program: runs one benchmark workload against the
// hypercover library in this process and prints its raw samples as one
// JSON object.
//
//   perfbench_workloads --workload <engine_solve|served_cold|served_hot>
//                       --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// This program only measures and checks; perfbench/run.py turns the raw
// samples into the reported metrics (percentiles, shares, the ledger
// check), so all of the benchmark's arithmetic lives in one self-tested
// place. Inputs are generated from --seed; the library only ever sees the
// generated instances.
//
// Untraced runs (--trace 0) time whole operations. Traced runs (--trace 1)
// additionally time calls into each layer's public functions from here
// (make_run / step_round / finish / certify, the two Client round trips,
// text parse, result encode/decode) and fold the span tree that
// Client::set_tracing already returns on each WireResult. Traced runs
// alternate traced and untraced operations so the tracing overhead is
// measured on the same host episode.
//
// Every operation is checked against a solo in-process reference solve
// made during set-up (transcript hash, cover, duals, certificate; the
// solve digest and cache-hit flag for served operations). Any mismatch
// is a failed operation.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "obs/obs.hpp"
#include "router/router.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "util/digest.hpp"
#include "util/prng.hpp"
#include "verify/verify.hpp"

namespace {

using namespace hypercover;
using Clock = std::chrono::steady_clock;

// --- workload parameters ----------------------------------------------------

constexpr double kEps = 0.5;
// engine_solve: one uniform 3-rank instance, solved at one engine thread.
constexpr std::uint32_t kEngineN = 10000;
constexpr std::uint32_t kEngineM = 30000;
constexpr std::uint32_t kEngineF = 3;
constexpr int kEngineLog2W = 16;
// Served fleet: a router over two single-worker backends, driven in a
// closed loop over four client connections.
constexpr std::size_t kBackends = 2;
constexpr std::size_t kConnections = 4;
constexpr std::uint32_t kReplyTimeoutMs = 20000;
// served_cold: mid-size mixed instances, caches off.
constexpr std::size_t kColdItems = 48;
constexpr std::uint32_t kColdMinN = 2000;
constexpr std::uint32_t kColdMaxN = 4000;
// served_hot: small instances, all cached during set-up.
constexpr std::size_t kHotItems = 64;
constexpr std::uint32_t kHotMinN = 260;
constexpr std::uint32_t kHotMaxN = 470;
// Set-up is repeated before and again after the measured window, so one
// host episode cannot move every repetition; run.py takes the median.
constexpr int kSetupRepsBefore = 4;
constexpr int kSetupRepsAfter = 4;
// Traced-run side measurements.
constexpr int kSideReps = 9;
constexpr int kSpeedupReps = 3;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point after(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// --- host probe -------------------------------------------------------------

/// A fixed dependent random walk over 16 MiB, unrelated to the library:
/// it only flags noisy host episodes (memory bandwidth / cache contention
/// from neighbours) and never normalizes any reported metric.
class HostProbe {
 public:
  HostProbe() : next_(kWords) {
    // Sattolo's shuffle: one cycle through every word, so the walk below
    // touches the whole buffer in an order the prefetcher cannot follow.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t i = kWords - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  double run_ms() {
    const auto t0 = Clock::now();
    std::uint32_t at = 0;
    for (std::uint32_t k = 0; k < kSteps; ++k) at = next_[at];
    const auto t1 = Clock::now();
    sink_ += at;
    return ms_between(t0, t1);
  }

  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::uint32_t kWords = (16u << 20) / sizeof(std::uint32_t);
  static constexpr std::uint32_t kSteps = 1u << 19;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
};

/// Process CPU time sampled against wall time every 20 ms over the
/// measured window, so run.py can price any slice of the run's operations.
class CpuTimeline {
 public:
  explicit CpuTimeline(Clock::time_point t0) : t0_(t0) {
    sample();
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        sample();
      }
    });
  }
  CpuTimeline(const CpuTimeline&) = delete;
  CpuTimeline& operator=(const CpuTimeline&) = delete;
  ~CpuTimeline() { finish(); }

  /// Stops sampling (idempotent) and returns the (window ms, CPU s) points.
  const std::vector<std::array<double, 2>>& finish() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      sample();
    }
    return points_;
  }

 private:
  void sample() {
    points_.push_back({ms_between(t0_, Clock::now()), cpu_seconds()});
  }

  Clock::time_point t0_;
  std::atomic<bool> stop_{false};
  // Written by one thread at a time: the constructor, the sampler, then
  // finish() after the join.
  std::vector<std::array<double, 2>> points_;
  std::thread thread_;
};

// --- raw sample log ----------------------------------------------------------

/// Samples of one thread (or the whole run, after merging).
struct OpLog {
  std::uint64_t attempted = 0;
  std::vector<double> lat_ms;     // latency of every correct operation
  std::vector<double> done_ms;    // ... and when it completed (window time)
  std::map<std::string, std::uint64_t> failures;  // reason -> count
  std::map<std::string, std::vector<double>> samples;  // per-layer samples
  // Per traced op: wall, then the parts perfbench/metrics.json lists.
  std::vector<std::vector<double>> ledger;
  std::vector<double> wall_traced_ms, wall_untraced_ms;

  void add(const std::string& name, double v) { samples[name].push_back(v); }

  void ok(double latency_ms, double completed_ms) {
    lat_ms.push_back(latency_ms);
    done_ms.push_back(completed_ms);
  }

  void merge(OpLog&& o) {
    attempted += o.attempted;
    const auto append = [](std::vector<double>& to, std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(lat_ms, o.lat_ms);
    append(done_ms, o.done_ms);
    append(wall_traced_ms, o.wall_traced_ms);
    append(wall_untraced_ms, o.wall_untraced_ms);
    for (auto& [k, n] : o.failures) failures[k] += n;
    for (auto& [k, v] : o.samples) append(samples[k], v);
    for (auto& row : o.ledger) ledger.push_back(std::move(row));
  }
};

struct Raw {
  std::string workload;
  bool trace = false;
  std::vector<double> setup_s;
  std::vector<double> probe_ms;
  std::vector<std::array<double, 2>> cpu_timeline;  // (window ms, CPU s)
  double peak_rss_mb = 0;
  std::map<std::string, double> scalars;  // per-layer values computed here
  OpLog ops;
};

// --- JSON output -------------------------------------------------------------

void put_num(std::string& out, double v) {
  char buf[40];
  if (!std::isfinite(v)) v = 0;
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void put_str(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void put_array(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    put_num(out, v[i]);
  }
  out += ']';
}

std::string to_json(const Raw& r) {
  std::string o = "{\"workload\":";
  put_str(o, r.workload);
  o += ",\"trace\":";
  o += r.trace ? "true" : "false";
  const auto key = [&o](std::string_view k) {
    o += ',';
    put_str(o, k);
    o += ':';
  };
  key("setup_s");
  put_array(o, r.setup_s);
  key("probe_ms");
  put_array(o, r.probe_ms);
  key("cpu_timeline");
  o += '[';
  for (std::size_t i = 0; i < r.cpu_timeline.size(); ++i) {
    if (i > 0) o += ',';
    put_array(o, {r.cpu_timeline[i][0], r.cpu_timeline[i][1]});
  }
  o += ']';
  key("peak_rss_mb");
  put_num(o, r.peak_rss_mb);
  key("attempted");
  put_num(o, static_cast<double>(r.ops.attempted));
  key("lat_ms");
  put_array(o, r.ops.lat_ms);
  key("done_ms");
  put_array(o, r.ops.done_ms);
  key("wall_traced_ms");
  put_array(o, r.ops.wall_traced_ms);
  key("wall_untraced_ms");
  put_array(o, r.ops.wall_untraced_ms);
  key("failures");
  o += '{';
  bool first = true;
  for (const auto& [k, n] : r.ops.failures) {
    if (!first) o += ',';
    first = false;
    put_str(o, k);
    o += ':';
    put_num(o, static_cast<double>(n));
  }
  o += '}';
  key("scalars");
  o += '{';
  first = true;
  for (const auto& [k, v] : r.scalars) {
    if (!first) o += ',';
    first = false;
    put_str(o, k);
    o += ':';
    put_num(o, v);
  }
  o += '}';
  key("samples");
  o += '{';
  first = true;
  for (const auto& [k, v] : r.ops.samples) {
    if (!first) o += ',';
    first = false;
    put_str(o, k);
    o += ':';
    put_array(o, v);
  }
  o += '}';
  key("ledger");
  o += '[';
  for (std::size_t i = 0; i < r.ops.ledger.size(); ++i) {
    if (i > 0) o += ',';
    put_array(o, r.ops.ledger[i]);
  }
  o += "]}";
  return o;
}

// --- correctness -------------------------------------------------------------

/// Empty when `sol` matches the reference solve bit for bit and carries a
/// valid certificate; otherwise the failure reason.
std::string check_solution(const api::Solution& sol, const api::Solution& ref) {
  if (!sol.net.completed) return "incomplete";
  if (!sol.certificate.valid()) return "invalid_certificate";
  if (sol.net.transcript_hash != ref.net.transcript_hash) {
    return "wrong_transcript";
  }
  if (sol.cover_weight != ref.cover_weight || sol.in_cover != ref.in_cover ||
      sol.duals != ref.duals) {
    return "wrong_solution";
  }
  return {};
}

api::Solution reference_solve(std::string_view algo, const hg::Hypergraph& g,
                              const api::SolveRequest& req) {
  api::Solution ref = api::solve(algo, g, req);
  if (!ref.net.completed || !ref.certificate.valid()) {
    throw std::runtime_error("reference solve of " + std::string(algo) +
                             " did not certify: " + ref.certificate.error);
  }
  return ref;
}

// --- engine layers, timed from outside ---------------------------------------

/// One solve decomposed into the calls api::solve makes, each timed:
/// api::make_run, every ProtocolRun::step_round, finish, destroying the
/// run (engine shards and arenas), verify::certify.
struct TimedSolve {
  double make_run_ms = 0;
  double rounds_ms = 0;
  double finish_ms = 0;
  double teardown_ms = 0;
  double certify_ms = 0;
  std::vector<double> round_ms;
  api::Solution sol;
};

TimedSolve timed_solve(std::string_view algo, const hg::Hypergraph& g,
                       const api::SolveRequest& req) {
  TimedSolve t;
  const auto t0 = Clock::now();
  std::unique_ptr<api::ProtocolRun> run = api::make_run(algo, g, req);
  const auto t1 = Clock::now();
  auto last = t1;
  while (!run->done() && run->rounds() < run->max_rounds()) {
    run->step_round();
    const auto now = Clock::now();
    t.round_ms.push_back(ms_between(last, now));
    last = now;
  }
  t.sol = run->finish();
  const auto t2 = Clock::now();
  run.reset();
  const auto t3 = Clock::now();
  t.sol.certificate = verify::certify(g, t.sol.in_cover, t.sol.duals);
  const auto t4 = Clock::now();
  t.make_run_ms = ms_between(t0, t1);
  t.rounds_ms = ms_between(t1, last);
  t.finish_ms = ms_between(last, t2);
  t.teardown_ms = ms_between(t2, t3);
  t.certify_ms = ms_between(t3, t4);
  return t;
}

/// Records a timed solve's layer samples and RunStats counts.
void add_engine_samples(OpLog& log, const TimedSolve& t) {
  const congest::RunStats& net = t.sol.net;
  log.add("api.make_run_ms", t.make_run_ms);
  log.add("congest.rounds_ms", t.rounds_ms);
  log.add("api.finish_ms", t.finish_ms);
  log.add("api.teardown_ms", t.teardown_ms);
  log.add("verify.certify_ms", t.certify_ms);
  for (const double r : t.round_ms) log.add("congest.round_ms", r);
  log.add("congest.round_max_ms",
          t.round_ms.empty()
              ? 0.0
              : *std::max_element(t.round_ms.begin(), t.round_ms.end()));
  if (net.agent_steps > 0) {
    log.add("congest.ns_per_agent_step",
            t.rounds_ms * 1e6 / static_cast<double>(net.agent_steps));
  }
  log.add("core.rounds", net.rounds);
  log.add("congest.messages", static_cast<double>(net.total_messages));
  log.add("congest.bits", static_cast<double>(net.total_bits));
  log.add("congest.agent_steps", static_cast<double>(net.agent_steps));
  log.add("congest.slots_processed", static_cast<double>(net.slots_processed));
}

/// The same solve at 2 engine threads against 1 (median walls), report only.
double speedup_2t(std::string_view algo, const hg::Hypergraph& g,
                  api::SolveRequest req, const api::Solution& ref) {
  std::vector<double> t1, t2;
  for (int i = 0; i < kSpeedupReps; ++i) {
    for (const std::uint32_t threads : {1u, 2u}) {
      req.engine.threads = threads;
      const auto a = Clock::now();
      const api::Solution sol = api::solve(algo, g, req);
      (threads == 1 ? t1 : t2).push_back(ms_between(a, Clock::now()));
      if (!check_solution(sol, ref).empty()) {
        throw std::runtime_error("2-thread solve diverged from the reference");
      }
    }
  }
  return median(t1) / median(t2);
}

/// hg::map_file, text parse + digest, and result encode/decode for one
/// instance (side measurements of the traced run).
void add_ingest_samples(OpLog& log, const hg::Hypergraph& g,
                        const std::string& text, const std::string& hgb_path,
                        const api::Solution& sol, int reps) {
  hg::write_binary_file(hgb_path, g);
  for (int i = 0; i < reps; ++i) {
    auto a = Clock::now();
    const hg::Hypergraph mapped = hg::map_file(hgb_path);
    log.add("hypergraph.map_ms", ms_between(a, Clock::now()));
    a = Clock::now();
    const std::uint64_t digest = util::graph_digest(hg::from_text(text));
    log.add("hypergraph.parse_ms", ms_between(a, Clock::now()));
    if (digest != util::graph_digest(mapped)) {
      throw std::runtime_error("text and hgb forms of an instance disagree");
    }
  }
  std::filesystem::remove(hgb_path);
  for (int i = 0; i < reps; ++i) {
    server::PayloadWriter w;
    auto a = Clock::now();
    server::encode_result(w, sol, /*cache_hit=*/false, /*solve_digest=*/0);
    const std::vector<std::uint8_t> bytes = w.take();
    log.add("server.encode_result_us", 1e3 * ms_between(a, Clock::now()));
    server::PayloadReader r(bytes);
    a = Clock::now();
    const server::WireResult back = server::decode_result(r);
    log.add("server.decode_result_us", 1e3 * ms_between(a, Clock::now()));
    log.add("server.result_bytes", static_cast<double>(bytes.size()));
    if (back.transcript_hash != sol.net.transcript_hash) {
      throw std::runtime_error("result encode/decode round trip diverged");
    }
  }
}

// --- engine_solve ------------------------------------------------------------

api::SolveRequest engine_request() {
  api::SolveRequest req;
  req.eps = kEps;
  req.engine.threads = 1;
  req.certify = true;
  return req;
}

void run_engine_solve(std::uint64_t seed, double seconds, bool trace,
                      const std::string& scratch, Raw& raw) {
  const hg::Hypergraph generated =
      hg::random_uniform(kEngineN, kEngineM, kEngineF,
                         hg::exponential_weights(kEngineLog2W), seed);
  // Set-up: stage the instance as .hgb and map it.
  const auto hgb_path = [&](int rep) {
    return scratch + "/engine_solve_" + std::to_string(rep) + ".hgb";
  };
  const auto set_up = [&](int rep) {
    const std::string path = hgb_path(rep);
    const auto a = Clock::now();
    hg::write_binary_file(path, generated);
    hg::Hypergraph mapped = hg::map_file(path);
    raw.setup_s.push_back(ms_between(a, Clock::now()) / 1e3);
    return mapped;
  };
  hg::Hypergraph g;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) g = set_up(rep);
  const api::SolveRequest req = engine_request();
  const api::Solution ref = reference_solve("mwhvc", g, req);

  OpLog& log = raw.ops;
  const auto t0 = Clock::now();
  const auto deadline = after(t0, seconds);
  CpuTimeline cpu(t0);
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    ++log.attempted;
    const bool traced = trace && i % 2 == 0;
    const auto a = Clock::now();
    std::string why;
    if (traced) {
      TimedSolve t = timed_solve("mwhvc", g, req);
      const auto b = Clock::now();
      const double wall = ms_between(a, b);
      log.wall_traced_ms.push_back(wall);
      log.ledger.push_back(
          {wall, t.make_run_ms, t.rounds_ms, t.finish_ms, t.teardown_ms,
           t.certify_ms});
      add_engine_samples(log, t);
      why = check_solution(t.sol, ref);
      if (why.empty()) log.ok(wall, ms_between(t0, b));
    } else {
      const api::Solution sol = api::solve("mwhvc", g, req);
      const auto b = Clock::now();
      const double wall = ms_between(a, b);
      if (trace) log.wall_untraced_ms.push_back(wall);
      why = check_solution(sol, ref);
      if (why.empty()) log.ok(wall, ms_between(t0, b));
    }
    if (!why.empty()) ++log.failures[why];
  }
  raw.cpu_timeline = cpu.finish();
  constexpr int kSetupReps = kSetupRepsBefore + kSetupRepsAfter;
  for (int rep = kSetupRepsBefore; rep < kSetupReps; ++rep) (void)set_up(rep);

  if (trace) {
    log.samples["api.solo_solve_ms"] = log.wall_untraced_ms;
    add_ingest_samples(log, g, hg::to_text(g),
                       scratch + "/engine_solve_side.hgb", ref, kSideReps);
    raw.scalars["congest.speedup_2t"] = speedup_2t("mwhvc", g, req, ref);
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::filesystem::remove(hgb_path(rep));
  }
}

// --- served workloads --------------------------------------------------------

/// One instance of a served workload with its solo reference.
struct Item {
  hg::Hypergraph graph;
  std::string text;
  std::string algo;
  std::uint64_t graph_digest = 0;
  std::uint64_t solve_key = 0;
  api::Solution ref;
};

/// Mixed families (uniform, set cover, bounded degree) with n spread over
/// [min_n, max_n] by stratified draws, so every seed offers about the same
/// total work; algorithms mwhvc and kvy in a 3:1 ratio.
std::vector<Item> make_items(std::size_t count, std::uint32_t min_n,
                             std::uint32_t max_n, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  std::vector<Item> items(count);
  for (std::size_t i = 0; i < count; ++i) {
    Item& it = items[i];
    const double stratum = (static_cast<double>(i) + rng.uniform01()) / count;
    const auto n =
        static_cast<std::uint32_t>(min_n + stratum * (max_n - min_n));
    const std::uint64_t gseed = rng();
    switch (i % 3) {
      case 0:
        it.graph = hg::random_uniform(n, 2 * n, 3, hg::exponential_weights(9),
                                      gseed);
        break;
      case 1:
        it.graph = hg::random_set_cover(n, 2 * n, 3, hg::uniform_weights(77),
                                        gseed);
        break;
      default:
        it.graph = hg::random_bounded_degree(n, n + n / 2, 4, 7,
                                             hg::exponential_weights(6), gseed);
        break;
    }
    it.algo = i % 4 == 3 ? "kvy" : "mwhvc";
  }
  return items;
}

server::SolveKnobs served_knobs() {
  server::SolveKnobs knobs;
  knobs.eps = kEps;
  return knobs;
}

/// Solo reference solves (excluded from set-up time: they exist only to
/// check the served answers).
void make_references(std::vector<Item>& items) {
  const api::SolveRequest req = server::to_request(served_knobs());
  for (Item& it : items) {
    it.graph_digest = util::graph_digest(it.graph);
    it.solve_key = util::solve_digest(it.graph_digest, it.algo, req);
    it.ref = reference_solve(it.algo, it.graph, req);
  }
}

/// An in-process fleet: router::Router over kBackends SolveServers, each
/// with one scheduler worker, all on loopback TCP.
class Fleet {
 public:
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() {
    if (router_) router_->request_stop();
    for (auto& b : backends_) b->request_stop();
    for (std::thread& t : threads_) t.join();
  }

  void start(std::size_t cache_entries) {
    router::RouterOptions ro;
    ro.listen = "127.0.0.1:0";
    ro.forward_shutdown = false;
    ro.backend_timeout_ms = kReplyTimeoutMs;
    for (std::size_t i = 0; i < kBackends; ++i) {
      server::ServerOptions so;
      so.listen = "127.0.0.1:0";
      so.threads = 1;
      so.cache_entries = cache_entries;
      backends_.push_back(std::make_unique<server::SolveServer>(so));
      server::SolveServer* b = backends_.back().get();
      b->start();
      ro.backends.push_back(b->address());
      threads_.emplace_back([b] { b->serve(); });
    }
    router_ = std::make_unique<router::Router>(ro);
    router_->start();
    router::Router* r = router_.get();
    threads_.emplace_back([r] { r->serve(); });
  }

  [[nodiscard]] router::Router& router() { return *router_; }

 private:
  std::vector<std::unique_ptr<server::SolveServer>> backends_;
  std::unique_ptr<router::Router> router_;
  std::vector<std::thread> threads_;  // last: joined before the servers die
};

struct FleetCounters {
  double solves = 0, cache_hits = 0, busy = 0, retries = 0, failures = 0;
};

FleetCounters fleet_counters(router::Router& r) {
  const server::ServerStats s = r.fleet_stats();
  FleetCounters c;
  c.solves = static_cast<double>(s.solves);
  c.cache_hits = static_cast<double>(s.cache_hits);
  c.busy = static_cast<double>(s.busy_rejections);
  c.retries = static_cast<double>(r.retries());
  for (const router::BackendSnapshot& b : r.backend_snapshots()) {
    c.failures += static_cast<double>(b.failures);
  }
  return c;
}

std::unique_ptr<server::Client> connect_client(const std::string& address,
                                               std::uint64_t seed) {
  auto c = std::make_unique<server::Client>();
  c->connect(address, kReplyTimeoutMs);
  server::BusyRetryPolicy retry;
  retry.max_retries = 4;
  retry.seed = seed;
  c->set_busy_retry(retry);
  return c;
}

/// The served layers of one traced operation, folded from the spans the
/// router and server shipped back on the Result.
struct SpanFold {
  double route_ms = 0;
  double attempts = 0;
  double admit_ms = 0;
  double queue_wait_ms = 0;
  double slice_ms = 0;
  double slices = 0;
  double server_window_ms = 0;
  std::vector<double> slice_each_ms;
  bool has_queue_wait = false;
};

SpanFold fold_spans(const std::vector<obs::SpanRecord>& spans) {
  // Client, router and servers share this process's span recorder, so
  // each hop's collect() ships the spans of the hops below it again:
  // count every span id once.
  using Rec = obs::SpanRecord;
  std::vector<Rec> unique = spans;
  std::sort(unique.begin(), unique.end(), [](const Rec& a, const Rec& b) {
    return a.span_id < b.span_id;
  });
  unique.erase(std::unique(unique.begin(), unique.end(),
                           [](const Rec& a, const Rec& b) {
                             return a.span_id == b.span_id;
                           }),
               unique.end());
  SpanFold f;
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max(), hi = 0;
  for (const obs::SpanRecord& s : unique) {
    const std::string_view name(s.name);
    const double ms = static_cast<double>(s.dur_ns) / 1e6;
    if (name == "router.route") f.route_ms += ms;
    if (name == "router.attempt") f.attempts += 1;
    bool server_layer = true;
    if (name == "server.admit") {
      f.admit_ms += ms;
    } else if (name == "server.queue_wait") {
      f.queue_wait_ms += ms;
      f.has_queue_wait = true;
    } else if (name == "batch.slice") {
      f.slice_ms += ms;
      f.slices += 1;
      f.slice_each_ms.push_back(ms);
    } else {
      server_layer = false;
    }
    if (server_layer) {
      lo = std::min(lo, s.start_ns);
      hi = std::max(hi, s.start_ns + s.dur_ns);
    }
  }
  if (hi > lo) f.server_window_ms = static_cast<double>(hi - lo) / 1e6;
  return f;
}

/// What every served client thread shares.
struct ServedCtx {
  Clock::time_point t0;  // start of the measured window
  bool hot = false;
  bool trace = false;
  std::string address;
};

/// Empty when the served answer matches the item's reference.
std::string check_served(const Item& it, const server::GraphInfo& gi,
                         const server::WireResult& res, bool hot) {
  if (gi.digest != it.graph_digest) return "wrong_graph_digest";
  if (res.solve_digest != it.solve_key) return "wrong_solve_digest";
  if (!res.completed) return "incomplete";
  if (!res.cert_valid) return "invalid_certificate";
  if (res.transcript_hash != it.ref.net.transcript_hash) {
    return "wrong_transcript";
  }
  if (res.cover_weight != it.ref.cover_weight ||
      res.in_cover != it.ref.in_cover || res.duals != it.ref.duals) {
    return "wrong_solution";
  }
  if (hot && !res.cache_hit) return "cache_miss";
  if (!hot && res.cache_hit) return "unexpected_cache_hit";
  return {};
}

/// One served operation: submit_graph_text + solve of item `it`, checked.
/// A failed operation replaces the connection.
void served_op(const ServedCtx& ctx, std::unique_ptr<server::Client>& client,
               const Item& it, bool traced, OpLog& log) {
  ++log.attempted;
  std::string why;
  try {
    client->set_tracing(traced);
    const auto a = Clock::now();
    const server::GraphInfo gi = client->submit_graph_text(it.text);
    const auto b = Clock::now();
    server::WireResult res = client->solve(it.algo, served_knobs());
    const auto c = Clock::now();
    why = check_served(it, gi, res, ctx.hot);
    const auto d = Clock::now();
    if (why.empty()) log.ok(ms_between(a, d), ms_between(ctx.t0, d));
    if (ctx.trace) {
      const double wall = ms_between(a, d);
      (traced ? log.wall_traced_ms : log.wall_untraced_ms).push_back(wall);
    }
    if (traced && why.empty()) {
      const SpanFold f = fold_spans(res.spans);
      const double submit_ms = ms_between(a, b);
      const double solve_ms = ms_between(b, c);
      log.add("client.submit_ms", submit_ms);
      log.add("client.solve_ms", solve_ms);
      log.add("router.route_ms", f.route_ms);
      log.add("router.attempts_per_op", f.attempts);
      log.add("server.admit_ms", f.admit_ms);
      if (f.has_queue_wait) log.add("server.queue_wait_ms", f.queue_wait_ms);
      log.add("batch.slices_per_op", f.slices);
      for (const double s : f.slice_each_ms) log.add("batch.slice_ms", s);
      const double server_gap =
          f.server_window_ms - f.admit_ms - f.queue_wait_ms - f.slice_ms;
      log.ledger.push_back({ms_between(a, d), submit_ms, solve_ms - f.route_ms,
                            f.route_ms - f.server_window_ms, f.admit_ms,
                            f.queue_wait_ms, f.slice_ms, server_gap});
      // Side measurements, outside the operation's wall time.
      auto e = Clock::now();
      const std::uint64_t digest = util::graph_digest(hg::from_text(it.text));
      log.add("hypergraph.parse_ms", ms_between(e, Clock::now()));
      if (digest != it.graph_digest) {
        throw std::runtime_error("parse digest drift");
      }
      res.spans.clear();
      server::PayloadWriter w;
      e = Clock::now();
      server::encode_result(w, res);
      const std::vector<std::uint8_t> bytes = w.take();
      log.add("server.encode_result_us", 1e3 * ms_between(e, Clock::now()));
      server::PayloadReader r(bytes);
      e = Clock::now();
      const server::WireResult back = server::decode_result(r);
      log.add("server.decode_result_us", 1e3 * ms_between(e, Clock::now()));
      log.add("server.result_bytes", static_cast<double>(bytes.size()));
      if (back.solve_digest != res.solve_digest) {
        throw std::runtime_error("result codec drift");
      }
    }
  } catch (const server::BusyError&) {
    why = "busy";
  } catch (const server::SocketTimeout&) {
    why = "timeout";
  } catch (const server::RemoteError&) {
    why = "remote_error";
  } catch (const std::exception&) {
    why = "error";
  }
  if (!why.empty()) {
    ++log.failures[why];
    // A failed round trip may leave the connection mid-frame: start over.
    try {
      client = connect_client(ctx.address, log.attempted);
    } catch (const std::exception&) {
      ++log.failures["reconnect"];
    }
  }
}

/// Solves every item once through the router, the connections sharing
/// the items, so each backend caches its own shard.
void warm_caches(const std::vector<Item>& items,
                 std::vector<std::unique_ptr<server::Client>>& clients) {
  std::vector<std::thread> warmers;
  std::vector<std::exception_ptr> errors(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    warmers.emplace_back([&, c] {
      try {
        for (std::size_t i = c; i < items.size(); i += clients.size()) {
          const Item& it = items[i];
          (void)clients[c]->submit_graph_text(it.text);
          const server::WireResult res =
              clients[c]->solve(it.algo, served_knobs());
          if (res.solve_digest != it.solve_key ||
              res.transcript_hash != it.ref.net.transcript_hash) {
            throw std::runtime_error("warm-up solve diverged from reference");
          }
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& w : warmers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void run_served(bool hot, std::uint64_t seed, double seconds, bool trace,
                const std::string& scratch, Raw& raw) {
  std::vector<Item> items =
      hot ? make_items(kHotItems, kHotMinN, kHotMaxN, seed)
          : make_items(kColdItems, kColdMinN, kColdMaxN, seed);
  make_references(items);

  // Set-up: bring the fleet up, connect every client, render the
  // instances as wire text, and (hot) warm the caches through the router
  // so each backend caches its own shard. The last fleet set up before the
  // window is the one measured.
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<server::Client>> clients;
  const auto set_up = [&] {
    clients.clear();
    fleet.reset();
    const auto a = Clock::now();
    fleet = std::make_unique<Fleet>();
    fleet->start(hot ? 256 : 0);
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(connect_client(fleet->router().address(), seed + c));
    }
    for (Item& it : items) it.text = hg::to_text(it.graph);
    if (hot) warm_caches(items, clients);
    raw.setup_s.push_back(ms_between(a, Clock::now()) / 1e3);
  };
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) set_up();
  const FleetCounters before = fleet_counters(fleet->router());

  ServedCtx ctx;
  ctx.hot = hot;
  ctx.trace = trace;
  ctx.address = fleet->router().address();

  // Closed loop: each connection sends its next request, for a seeded
  // item, as soon as the previous one is answered.
  std::vector<OpLog> logs(kConnections);
  std::vector<std::thread> workers;
  const auto t0 = Clock::now();
  const auto deadline = after(t0, seconds);
  ctx.t0 = t0;
  CpuTimeline cpu(t0);
  for (std::size_t c = 0; c < kConnections; ++c) {
    workers.emplace_back([&, c] {
      util::Xoshiro256StarStar pick(seed * 31 + c);
      for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
        const Item& it = items[pick.below(items.size())];
        served_op(ctx, clients[c], it, trace && i % 2 == 0, logs[c]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  raw.cpu_timeline = cpu.finish();
  for (OpLog& l : logs) raw.ops.merge(std::move(l));

  if (trace) {
    const FleetCounters after = fleet_counters(fleet->router());
    const double solves = after.solves - before.solves;
    raw.scalars["server.solves"] = solves;
    raw.scalars["server.cache_hit_share"] =
        solves > 0 ? (after.cache_hits - before.cache_hits) / solves : 0;
    raw.scalars["server.busy_rejections"] = after.busy - before.busy;
    raw.scalars["router.retries"] = after.retries - before.retries;
    raw.scalars["router.backend_failures"] = after.failures - before.failures;
  }
  for (int rep = 0; rep < kSetupRepsAfter; ++rep) set_up();
  clients.clear();
  fleet.reset();

  if (trace) {
    // Engine layers and ingest costs of the workload's own instances,
    // timed in process (the served path runs them inside the backends).
    OpLog& log = raw.ops;
    const api::SolveRequest req = server::to_request(served_knobs());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      const auto a = Clock::now();
      const api::Solution solo = api::solve(it.algo, it.graph, req);
      log.add("api.solo_solve_ms", ms_between(a, Clock::now()));
      const TimedSolve t = timed_solve(it.algo, it.graph, req);
      if (!check_solution(solo, it.ref).empty() ||
          !check_solution(t.sol, it.ref).empty()) {
        throw std::runtime_error("solo solve diverged from the reference");
      }
      add_engine_samples(log, t);
      add_ingest_samples(log, it.graph, it.text,
                         scratch + "/served_" + std::to_string(i) + ".hgb",
                         it.ref, /*reps=*/1);
    }
    const Item& big = *std::max_element(items.begin(), items.end(),
                                        [](const Item& x, const Item& y) {
                                          return x.graph.num_vertices() <
                                                 y.graph.num_vertices();
                                        });
    raw.scalars["congest.speedup_2t"] =
        speedup_2t(big.algo, big.graph, req, big.ref);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (!(a.seconds > 0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Raw raw;
    raw.workload = args.workload;
    raw.trace = args.trace;
    HostProbe probe;
    (void)probe.run_ms();  // the first walk also warms caches and clocks
    raw.probe_ms.push_back(probe.run_ms());
    if (args.workload == "engine_solve") {
      run_engine_solve(args.seed, args.seconds, args.trace, args.scratch, raw);
    } else if (args.workload == "served_cold" ||
               args.workload == "served_hot") {
      run_served(args.workload == "served_hot", args.seed, args.seconds,
                 args.trace, args.scratch, raw);
    } else {
      throw std::invalid_argument("unknown workload \"" + args.workload + "\"");
    }
    raw.probe_ms.push_back(probe.run_ms());
    raw.peak_rss_mb = peak_rss_mb();
    std::fprintf(stderr, "perfbench_workloads: probe sink %llu\n",
                 static_cast<unsigned long long>(probe.sink()));
    const std::string json = to_json(raw);
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", ex.what());
    return 2;
  }
}
