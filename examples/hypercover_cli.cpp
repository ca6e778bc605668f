// Command-line solver: read a hypergraph (file or stdin, format of
// hypergraph/io.hpp), run any algorithm from the solver registry, print
// the cover and its certificate, optionally machine-readably.
//
//   ./hypercover_cli --input=instance.hg [--algo=<name>] [--list-algos]
//       [--eps=0.5] [--appendix-c] [--alpha=<fixed>] [--threads=1]
//       [--f-approx] [--max-rounds=N]
//       [--quiet] [--cover-only] [--stats-json[=path]] [--binary]
//   ./hypercover_cli --input=instance.hg --convert=instance.hgb
//   ./hypercover_cli --batch=manifest.txt [--threads=N] [--algo=<default>]
//       [--batch-policy=rr|live] [--batch-quantum=32] [common knobs]
//   ./hypercover_cli --connect=<unix:/path | host:port> [solve flags]
//       [--binary] [--shutdown] [--server-stats] [--server-metrics]
//       [--timeout-ms=N] [--trace-out=trace.json]
//       [--busy-retries=4] [--busy-base-ms=10] [--busy-max-ms=2000]
//
// --convert=<out.hgb> writes the instance in the `hgb` binary format
// (hypergraph/binary.hpp) and exits — the offline converter for the
// zero-copy serving path. --binary declares the --input to be an .hgb
// file: local solves mmap and adopt it without parsing; --connect solves
// ship it with SubmitGraphBinary (by-path when the input is a real file,
// so a server sharing the filesystem mmaps it zero-copy; inline bytes
// from stdin). Without --binary the input is sniffed: a file that starts
// with the hgb magic is loaded as binary anyway.
//
// --connect=<addr> routes an ordinary single solve through a running
// hypercover_served daemon instead of solving in-process: the instance
// text is sent over the socket, the server dispatches it on its shared
// scheduler (or answers from its digest-keyed result cache), and the
// returned cover and duals are RE-VERIFIED LOCALLY against the instance
// — the exit codes keep their meaning without trusting the server.
// --shutdown asks the daemon to drain and exit; --server-stats prints
// its serving counters. A Busy answer (admission control rejected the
// request) is retried with bounded, seed-jittered exponential backoff
// (--busy-retries, default 4; --busy-base-ms / --busy-max-ms bound the
// delay; --busy-retries=0 fails fast); exit code 3 only once the
// retries are exhausted. --timeout-ms=N (opt-in, default 0 = wait
// forever) bounds both connect and each server reply — a stalled or
// unreachable server fails the run with exit 1 instead of hanging.
//
// --trace-out=<path> (a --connect flag) traces the solve end to end:
// the client mints a trace id, the context rides the Solve frame, and
// every layer's spans — client.solve, router.route / router.attempt,
// server.admit / server.queue_wait, batch.slice, sampled engine.round —
// come back on the Result and are written as one Chrome-trace JSON,
// loadable in Perfetto / chrome://tracing (scripts/trace_check.py
// validates it). --server-metrics prints the server's Prometheus text
// exposition and exits. Tracing is pure observation — the Solution
// bytes are bit-identical either way.
//
// --list-algos prints one `name<TAB>kind<TAB>description` line per
// registered algorithm (the valid --algo values) and exits. Dispatch is
// entirely registry-driven: a newly registered algorithm is available
// here with no CLI change.
//
// --batch=<manifest> solves a file of instances concurrently on one
// shared worker pool (api::BatchScheduler). Each manifest line names an
// instance file plus an optional per-line algorithm ('#' starts a
// comment — whole-line or trailing — and blank lines are skipped;
// --stats-json / --cover-only are single-solve flags and are rejected):
//     instances/web.hg
//     instances/sensor.hg kmw
// All common knobs (--eps, --threads as the pool size, --max-rounds, ...)
// apply to every job; every returned Solution is bit-identical to solving
// that instance alone. One summary line per job goes to stdout
// (file, algo, n, m, rounds, outcome, cover weight, certified ratio),
// then a throughput total to stderr. Exit 2 if any job fails verification.
//
// --threads=N steps agents on N workers (0 = one per hardware thread);
// the run is bit-identical at any value.
// --stats-json dumps a machine-readable record (algorithm, RunStats,
// transcript hash, engine work counters, verification certificate, wall
// time) to stdout, or to a file when given a path — the scripted
// perf-tracking hook (scripts/bench_json.py --solve-json folds it into
// the perf trajectory). A served record omits "threads": that is a
// local-engine knob the server never receives.
//
// Exit code 0 on success (cover verified), 2 on verification failure,
// 1 on usage/input errors. The stats record is emitted even when
// verification fails (e.g. a --max-rounds-truncated run) so partial runs
// can be tracked; its certificate object reports the failure.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "congest/thread_pool.hpp"
#include "core/mwhvc.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/stats.hpp"
#include "obs/trace_json.hpp"
#include "server/client.hpp"
#include "util/cli.hpp"
#include "util/digest.hpp"
#include "verify/verify.hpp"

namespace {

using namespace hypercover;

/// JSON has no infinity literal; certified_ratio is +inf when a valid
/// cover comes with an empty dual packing (greedy). Emit null there.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os << value;
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Serving provenance of one solve record: local in-process, or served
/// over a --connect socket (cold vs result-cache hit).
enum class Served { kLocal, kCold, kCacheHit };

/// Renders the solve record as a single JSON object. The transcript hash
/// and solve digest are emitted as hex strings: JSON numbers lose 64-bit
/// integer precision. `solve_digest` is util::solve_digest — the same
/// key the server cache uses.
std::string stats_json(const api::Solution& sol, std::uint32_t threads,
                       std::size_t cover_size,
                       std::uint64_t solve_digest, Served served,
                       std::uint32_t busy_retries,
                       std::uint64_t busy_backoff_ms) {
  const congest::RunStats& net = sol.net;
  const verify::Certificate& cert = sol.certificate;
  std::ostringstream os;
  os << "{\n";
  os << "  \"algo\": \"" << json_escape(sol.algorithm) << "\",\n";
  if (served == Served::kLocal) {
    os << "  \"threads\": " << threads << ",\n";
  }
  os << "  \"rounds\": " << net.rounds << ",\n";
  os << "  \"completed\": " << (net.completed ? "true" : "false") << ",\n";
  os << "  \"total_messages\": " << net.total_messages << ",\n";
  os << "  \"total_bits\": " << net.total_bits << ",\n";
  os << "  \"max_message_bits\": " << net.max_message_bits << ",\n";
  os << "  \"bandwidth_limit_bits\": " << net.bandwidth_limit_bits << ",\n";
  os << "  \"bandwidth_violations\": " << net.bandwidth_violations << ",\n";
  os << "  \"transcript_hash\": \"0x" << std::hex << net.transcript_hash
     << std::dec << "\",\n";
  os << "  \"solve_digest\": \"0x" << std::hex << solve_digest << std::dec
     << "\",\n";
  os << "  \"served\": " << (served == Served::kLocal ? "false" : "true")
     << ",\n";
  if (served != Served::kLocal) {
    os << "  \"cache_hit\": " << (served == Served::kCacheHit ? "true" : "false")
       << ",\n";
    os << "  \"busy_retries\": " << busy_retries << ",\n";
    os << "  \"busy_backoff_ms\": " << busy_backoff_ms << ",\n";
  }
  os << "  \"agent_steps\": " << net.agent_steps << ",\n";
  os << "  \"slots_processed\": " << net.slots_processed << ",\n";
  os << "  \"sparse_account_passes\": " << net.sparse_account_passes << ",\n";
  os << "  \"dense_account_passes\": " << net.dense_account_passes << ",\n";
  os << "  \"clear_slots\": " << net.clear_slots << ",\n";
  os << "  \"sparse_clear_passes\": " << net.sparse_clear_passes << ",\n";
  os << "  \"dense_clear_passes\": " << net.dense_clear_passes << ",\n";
  os << "  \"step_cycles\": " << net.step_cycles << ",\n";
  os << "  \"account_cycles\": " << net.account_cycles << ",\n";
  os << "  \"cycles_per_agent_step\": "
     << json_number(net.agent_steps > 0
                        ? static_cast<double>(net.step_cycles) /
                              static_cast<double>(net.agent_steps)
                        : 0.0)
     << ",\n";
  os << "  \"cover_weight\": " << cert.cover_weight << ",\n";
  os << "  \"cover_size\": " << cover_size << ",\n";
  os << "  \"dual_total\": " << cert.dual_total << ",\n";
  os << "  \"certified_ratio\": " << json_number(cert.certified_ratio)
     << ",\n";
  os << "  \"certificate\": {\n";
  os << "    \"valid\": " << (cert.valid() ? "true" : "false") << ",\n";
  os << "    \"cover_valid\": " << (cert.cover_valid ? "true" : "false")
     << ",\n";
  os << "    \"packing_feasible\": "
     << (cert.packing_feasible ? "true" : "false") << ",\n";
  os << "    \"error\": \"" << json_escape(cert.error) << "\"\n";
  os << "  },\n";
  os << "  \"wall_ms\": " << sol.wall_ms << "\n";
  os << "}\n";
  return os.str();
}

/// Solver knobs shared by the single-solve and --batch modes.
struct CommonKnobs {
  api::SolveRequest req;
  std::uint32_t threads = 1;
};

/// Parses the shared flags into `k`; returns a nonzero exit code (after
/// printing the error) on bad values, 0 otherwise.
int parse_knobs(const util::Cli& cli, CommonKnobs& k) {
  constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t threads_arg = cli.get("threads", 1);
  if (threads_arg < 0 || threads_arg > kU32Max) {
    std::cerr << "error: --threads must be in [0, " << kU32Max << "]\n";
    return 1;
  }
  k.threads = static_cast<std::uint32_t>(threads_arg);
  k.req.eps = cli.get("eps", 0.5);
  k.req.f_approx = cli.has("f-approx");
  k.req.engine.threads = k.threads;
  if (cli.has("max-rounds")) {
    const std::int64_t max_rounds =
        cli.get("max-rounds", std::int64_t{1} << 20);
    if (max_rounds <= 0 || max_rounds > kU32Max) {
      std::cerr << "error: --max-rounds must be in [1, " << kU32Max << "]\n";
      return 1;
    }
    k.req.engine.max_rounds = static_cast<std::uint32_t>(max_rounds);
  }
  k.req.mwhvc.appendix_c = cli.has("appendix-c");
  if (cli.has("alpha")) {
    k.req.mwhvc.alpha_mode = core::AlphaMode::kFixed;
    k.req.mwhvc.alpha_fixed = cli.get("alpha", 2.0);
  }
  return 0;
}

/// Prints / records one solved instance — certificate gate, --stats-json,
/// --cover-only, and the human-readable block — exactly as the local
/// path always has. Shared by the in-process and --connect modes; the
/// certificate on `sol` must already be the LOCALLY recomputed one, so
/// the exit-code contract (2 on verification failure) holds without
/// trusting any server.
int emit_solution(const util::Cli& cli, const hg::Hypergraph& g,
                  const api::Solution& sol, const CommonKnobs& knobs,
                  std::uint64_t solve_digest, Served served,
                  std::uint32_t busy_retries = 0,
                  std::uint64_t busy_backoff_ms = 0) {
  const bool quiet = cli.has("quiet");
  const verify::Certificate& cert = sol.certificate;
  std::size_t cover_size = 0;
  for (const bool b : sol.in_cover) cover_size += b;
  // The stats record is written even for a failed/partial run (the
  // certificate object in it says so); the exit code still reports the
  // verification failure below.
  bool json_on_stdout = false;
  if (cli.has("stats-json")) {
    const std::string json =
        stats_json(sol, knobs.threads, cover_size, solve_digest, served,
                   busy_retries, busy_backoff_ms);
    const std::string out_path = cli.get("stats-json", std::string("-"));
    // A bare --stats-json (no =path) parses as "1": dump to stdout, and
    // suppress the human-readable block below so stdout stays parseable
    // (--cover-only still appends its vertex list).
    if (out_path == "-" || out_path == "1" || out_path.empty()) {
      std::cout << json;
      json_on_stdout = true;
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
      }
      out << json;
      if (!quiet) std::cerr << "stats written to " << out_path << "\n";
    }
  }
  if (!cert.cover_valid) {
    std::cerr << "VERIFICATION FAILED: " << cert.error << "\n";
    return 2;
  }
  if (cli.has("cover-only")) {
    for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (sol.in_cover[v]) std::cout << v << "\n";
    }
    return 0;
  }
  if (json_on_stdout) return 0;
  std::cout << "algorithm: " << sol.algorithm << "\n";
  std::cout << "cover_weight: " << cert.cover_weight << "\n";
  std::cout << "cover_size: " << cover_size << "\n";
  if (cert.dual_total > 0) {
    std::cout << "dual_lower_bound: " << cert.dual_total << "\n";
    std::cout << "certified_ratio: " << cert.certified_ratio << "\n";
  }
  if (sol.net.rounds > 0) std::cout << "rounds: " << sol.net.rounds << "\n";
  std::cout << "cover:";
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (sol.in_cover[v]) std::cout << ' ' << v;
  }
  std::cout << "\n";
  return 0;
}

/// Reads the whole --input source (file or stdin) as raw text — the
/// bytes a --connect solve ships to the server verbatim.
int read_input_text(const util::Cli& cli, std::string& text) {
  const std::string path = cli.get("input", std::string("-"));
  std::ostringstream buf;
  if (path == "-") {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
    buf << in.rdbuf();
  }
  text = std::move(buf).str();
  return 0;
}

/// Does the file at `path` start with the hgb magic? (Missing/short
/// files sniff as "no" — the real open reports the error properly.)
bool file_is_hgb(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint8_t head[8] = {};
  in.read(reinterpret_cast<char*>(head), sizeof head);
  return in.gcount() == sizeof head && hg::looks_like_binary(head);
}

/// --connect mode: route the solve through a hypercover_served daemon,
/// then re-verify the returned cover and duals locally.
int run_connect(const util::Cli& cli, const CommonKnobs& knobs) {
  const std::string address = cli.get("connect", std::string());
  const bool quiet = cli.has("quiet");
  constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t timeout_ms = cli.get("timeout-ms", 0);
  const std::int64_t busy_retries = cli.get("busy-retries", 4);
  const std::int64_t busy_base_ms = cli.get("busy-base-ms", 10);
  const std::int64_t busy_max_ms = cli.get("busy-max-ms", 2000);
  if (timeout_ms < 0 || timeout_ms > kU32Max || busy_retries < 0 ||
      busy_retries > kU32Max || busy_base_ms < 1 || busy_base_ms > kU32Max ||
      busy_max_ms < busy_base_ms || busy_max_ms > kU32Max) {
    std::cerr << "error: --timeout-ms/--busy-* flags are out of range\n";
    return 1;
  }
  server::Client client;
  client.connect(address, static_cast<std::uint32_t>(timeout_ms));
  server::BusyRetryPolicy busy_policy;
  busy_policy.max_retries = static_cast<std::uint32_t>(busy_retries);
  busy_policy.base_delay_ms = static_cast<std::uint32_t>(busy_base_ms);
  busy_policy.max_delay_ms = static_cast<std::uint32_t>(busy_max_ms);
  client.set_busy_retry(busy_policy);

  if (cli.has("shutdown")) {
    client.shutdown_server();
    if (!quiet) std::cerr << "server at " << address << " shut down\n";
    return 0;
  }
  if (cli.has("server-metrics")) {
    std::cout << client.metrics_text();
    return 0;
  }
  if (cli.has("server-stats")) {
    const server::ServerStats s = client.stats();
    server::for_each_stats_field([&](const char* name, auto field) {
      std::cout << name << ": " << s.*field << "\n";
    });
    return 0;
  }

  const std::string algo = cli.get("algo", std::string("mwhvc"));
  const std::string input = cli.get("input", std::string("-"));
  std::string raw;  // instance bytes as read: text, or an hgb image
  if (const int rc = read_input_text(cli, raw); rc != 0) return rc;
  const std::span<const std::uint8_t> raw_bytes(
      reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size());
  const bool binary = cli.has("binary") || hg::looks_like_binary(raw_bytes);
  // Local copy for re-verification, whatever the wire form.
  const hg::Hypergraph g =
      binary ? hg::read_binary(raw_bytes) : hg::from_text(raw);
  if (!quiet) std::cerr << "instance: " << hg::compute_stats(g) << "\n";
  if (cli.has("threads")) {
    std::cerr << "note: --threads is a local-engine knob; "
                 "the server's own pool configuration applies\n";
  }

  server::SolveKnobs wire_knobs;
  wire_knobs.eps = knobs.req.eps;
  wire_knobs.f_approx = knobs.req.f_approx;
  if (cli.has("max-rounds")) wire_knobs.max_rounds = knobs.req.engine.max_rounds;
  wire_knobs.appendix_c = knobs.req.mwhvc.appendix_c;
  if (knobs.req.mwhvc.alpha_mode == core::AlphaMode::kFixed) {
    wire_knobs.use_alpha_fixed = true;
    wire_knobs.alpha_fixed = knobs.req.mwhvc.alpha_fixed;
  }

  const std::string trace_out = cli.get("trace-out", std::string());
  if (!trace_out.empty() && trace_out != "1") client.set_tracing(true);

  server::GraphInfo ginfo;
  server::WireResult wire;
  try {
    // Busy can answer either frame: Solve on the in-flight limits, and
    // a submit when the instance alone exceeds the byte budget.
    if (binary && input != "-") {
      // By-path: a server sharing the filesystem mmaps and adopts the
      // .hgb in place — the instance bytes never cross the socket.
      ginfo = client.submit_graph_binary_path(
          std::filesystem::absolute(input).string());
    } else if (binary) {
      ginfo = client.submit_graph_binary(raw_bytes);
    } else {
      ginfo = client.submit_graph_text(raw);
    }
    wire = client.solve(algo, wire_knobs);
  } catch (const server::BusyError& busy) {
    std::cerr << "error: " << busy.what();
    if (busy_policy.max_retries > 0) {
      std::cerr << " (after " << busy_policy.max_retries << " retries)";
    }
    std::cerr << "\n";
    return 3;
  }

  // The GraphOk digest is the server's view of the instance it will key
  // every solve against; it must equal our own hash of our own parse.
  const std::uint64_t local_graph_digest = util::graph_digest(g);
  if (ginfo.digest != local_graph_digest) {
    std::cerr << "warning: server graph digest 0x" << std::hex << ginfo.digest
              << " != local 0x" << local_graph_digest << std::dec << "\n";
  } else if (!quiet) {
    std::cerr << "graph digest cross-check: 0x" << std::hex
              << local_graph_digest << std::dec << " ok\n";
  }

  api::Solution sol;
  sol.algorithm = wire.algorithm;
  sol.in_cover = std::move(wire.in_cover);
  sol.duals = std::move(wire.duals);
  sol.cover_weight = wire.cover_weight;
  sol.dual_total = wire.dual_total;
  sol.iterations = wire.iterations;
  sol.net.rounds = wire.rounds;
  sol.net.completed = wire.completed;
  sol.net.total_messages = wire.total_messages;
  sol.net.total_bits = wire.total_bits;
  sol.net.transcript_hash = wire.transcript_hash;
  sol.outcome = static_cast<api::RunOutcome>(wire.outcome);
  sol.wall_ms = wire.wall_ms;
  // Never trust the server's certificate bits: re-check the cover and
  // packing against our own parse of the instance.
  sol.certificate = verify::certify(g, sol.in_cover, sol.duals);

  // The server keys its cache with the same util::solve_digest; a
  // mismatch means the two sides disagree about what was solved.
  const std::uint64_t local_digest =
      util::solve_digest(g, algo, server::to_request(wire_knobs));
  if (local_digest != wire.solve_digest) {
    std::cerr << "warning: server solve digest 0x" << std::hex
              << wire.solve_digest << " != local 0x" << local_digest
              << std::dec << "\n";
  }
  if (!quiet) {
    std::cerr << "served by " << address << ": "
              << (wire.cache_hit ? "cache hit" : "cold solve") << ", server "
              << (wire.cert_valid ? "certified" : "UNCERTIFIED") << "\n";
    if (wire.busy_retries > 0) {
      std::cerr << "busy backoff: " << wire.busy_retries << " retries, "
                << wire.busy_backoff_ms << " ms slept\n";
    }
    if (sol.net.rounds > 0) std::cerr << "network: " << sol.net << "\n";
  }
  if (!trace_out.empty() && trace_out != "1") {
    obs::write_chrome_trace(trace_out, wire.spans);
    if (!quiet) {
      std::cerr << "trace: " << wire.spans.size() << " spans written to "
                << trace_out << "\n";
    }
  }
  return emit_solution(cli, g, sol, knobs, wire.solve_digest,
                       wire.cache_hit ? Served::kCacheHit : Served::kCold,
                       wire.busy_retries, wire.busy_backoff_ms);
}

const char* outcome_name(api::RunOutcome outcome) {
  switch (outcome) {
    case api::RunOutcome::kCompleted: return "completed";
    case api::RunOutcome::kRoundLimit: return "round-limit";
    case api::RunOutcome::kBudgetExhausted: return "budget";
    case api::RunOutcome::kCancelled: return "cancelled";
  }
  return "?";
}

/// --batch mode: parse the manifest, load every instance, solve them all
/// concurrently on one BatchScheduler pool, and summarize.
int run_batch(const util::Cli& cli, const CommonKnobs& knobs) {
  // Per-solve output flags have no one-job meaning here; reject them
  // loudly instead of letting a scripted caller read silence as success.
  for (const char* unsupported : {"stats-json", "cover-only"}) {
    if (cli.has(unsupported)) {
      std::cerr << "error: --" << unsupported
                << " is not supported in --batch mode (one summary line "
                   "per job goes to stdout instead)\n";
      return 1;
    }
  }
  const std::string manifest_path = cli.get("batch", std::string());
  std::ifstream manifest(manifest_path);
  if (!manifest) {
    std::cerr << "error: cannot open manifest " << manifest_path << "\n";
    return 1;
  }
  const std::string default_algo = cli.get("algo", std::string("mwhvc"));

  struct ManifestEntry {
    std::string path, algo;
  };
  std::vector<ManifestEntry> entries;
  std::string line;
  while (std::getline(manifest, line)) {
    std::istringstream ls(line);
    ManifestEntry entry;
    if (!(ls >> entry.path) || entry.path[0] == '#') continue;
    // A '#' token ends the line (trailing comments are allowed anywhere).
    if (!(ls >> entry.algo) || entry.algo[0] == '#') entry.algo = default_algo;
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    std::cerr << "error: manifest " << manifest_path
              << " lists no instances\n";
    return 1;
  }

  std::vector<hg::Hypergraph> graphs(entries.size());
  std::vector<api::BatchJob> jobs(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (api::find_solver(entries[i].algo) == nullptr) {
      std::cerr << "error: unknown algorithm " << entries[i].algo
                << " in manifest line for " << entries[i].path << "\n";
      return 1;
    }
    std::ifstream in(entries[i].path);
    if (!in) {
      std::cerr << "error: cannot open " << entries[i].path << "\n";
      return 1;
    }
    graphs[i] = hg::read_text(in);
    jobs[i].graph = &graphs[i];
    jobs[i].algorithm = entries[i].algo;
    jobs[i].request = knobs.req;
  }

  api::BatchOptions opts;
  opts.threads = knobs.threads;
  const std::string policy = cli.get("batch-policy", std::string("rr"));
  if (policy == "live") {
    opts.policy = api::BatchPolicy::kFewestLiveAgents;
  } else if (policy != "rr") {
    std::cerr << "error: --batch-policy must be rr or live\n";
    return 1;
  }
  const std::int64_t quantum = cli.get("batch-quantum", 32);
  if (quantum < 1 || quantum > std::numeric_limits<std::uint32_t>::max()) {
    std::cerr << "error: --batch-quantum must be >= 1\n";
    return 1;
  }
  opts.round_quantum = static_cast<std::uint32_t>(quantum);

  const auto wall_start = std::chrono::steady_clock::now();
  api::BatchScheduler scheduler(opts);
  const std::vector<api::Solution> results = scheduler.solve_all(jobs);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();

  bool all_valid = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const api::Solution& sol = results[i];
    const hg::Hypergraph& g = graphs[i];
    all_valid = all_valid && sol.certificate.valid();
    std::cout << entries[i].path << '\t' << sol.algorithm << '\t'
              << g.num_vertices() << '\t' << g.num_edges() << '\t'
              << sol.net.rounds << '\t' << outcome_name(sol.outcome) << '\t'
              << sol.certificate.cover_weight << '\t'
              << json_number(sol.certificate.certified_ratio) << '\t'
              << (sol.certificate.valid() ? "ok" : "INVALID") << '\n';
  }
  if (!cli.has("quiet")) {
    std::cerr << "batch: " << results.size() << " jobs on "
              << scheduler.pool().size() << " workers in " << wall_ms
              << " ms (" << (1000.0 * static_cast<double>(results.size()) /
                             std::max(wall_ms, 1e-9))
              << " jobs/s)\n";
  }
  return all_valid ? 0 : 2;
}

int run(const util::Cli& cli) {
  if (cli.has("list-algos")) {
    for (const api::Solver& s : api::solvers()) {
      std::cout << s.name << "\t"
                << (s.steppable ? "distributed" : "sequential") << "\t"
                << s.description << "\n";
    }
    return 0;
  }

  CommonKnobs knobs;
  if (const int rc = parse_knobs(cli, knobs); rc != 0) return rc;
  if (cli.has("connect")) {
    if (cli.has("batch")) {
      std::cerr << "error: --batch is not supported with --connect (issue "
                   "one request per instance instead)\n";
      return 1;
    }
    return run_connect(cli, knobs);
  }
  if (cli.has("batch")) return run_batch(cli, knobs);

  const bool quiet = cli.has("quiet");
  hg::Hypergraph g;
  const std::string path = cli.get("input", std::string("-"));
  if (path == "-") {
    if (cli.has("binary")) {
      std::ostringstream buf;
      buf << std::cin.rdbuf();
      const std::string bytes = std::move(buf).str();
      g = hg::read_binary(
          {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
    } else {
      g = hg::read_text(std::cin);
    }
  } else if (cli.has("binary") || file_is_hgb(path)) {
    // The zero-copy local path: mmap + validate + adopt, no parsing.
    g = hg::map_file(path);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
    g = hg::read_text(in);
  }

  if (cli.has("convert")) {
    const std::string out = cli.get("convert", std::string());
    if (out.empty() || out == "1") {
      std::cerr << "error: --convert needs an output path "
                   "(--convert=instance.hgb)\n";
      return 1;
    }
    hg::write_binary_file(out, g);
    if (!quiet) {
      std::cerr << "wrote " << out << ": n=" << g.num_vertices()
                << " m=" << g.num_edges() << " digest=0x" << std::hex
                << util::graph_digest(g) << std::dec << "\n";
    }
    return 0;
  }

  const std::string algo = cli.get("algo", std::string("mwhvc"));
  const api::Solver* solver = api::find_solver(algo);
  if (solver == nullptr) {
    std::cerr << "error: unknown --algo=" << algo << " (--list-algos prints"
              << " the registered names)\n";
    return 1;
  }
  if (!quiet) std::cerr << "instance: " << hg::compute_stats(g) << "\n";

  const std::uint32_t threads = knobs.threads;
  if (!solver->steppable && cli.has("threads") && threads != 1) {
    std::cerr << "note: --threads ignored by the sequential " << algo
              << " solver\n";
  }

  const api::Solution sol = api::solve(algo, g, knobs.req);
  if (!quiet && solver->steppable) {
    std::cerr << "network: " << sol.net << "\n";
  }
  return emit_solution(cli, g, sol, knobs,
                       util::solve_digest(g, algo, knobs.req), Served::kLocal);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Cli(argc, argv));
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
}
