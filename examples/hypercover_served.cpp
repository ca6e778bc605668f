// The hypercover solve daemon: a persistent server::SolveServer on a
// Unix-domain or TCP socket, dispatching every request on one shared
// api::BatchScheduler pool with a digest-keyed result cache and typed
// Busy overload answers.
//
//   ./hypercover_served [--listen=unix:/tmp/hypercover.sock | host:port]
//       [--threads=0] [--cache-entries=256] [--max-inflight=64]
//       [--max-queued-bytes=67108864] [--quantum=32] [--quiet]
//       [--metrics-path=metrics.prom] [--metrics-interval-ms=1000]
//       [--trace-out=trace.json] [--verbose]
//
// Runs until a client sends a Shutdown frame (hypercover_cli
// --connect=<addr> --shutdown) or the process receives SIGINT/SIGTERM;
// either way the server drains — in-flight solves finish and deliver
// their Results — before exit. Final serving counters go to stderr.
//
// Observability: --metrics-path periodically rewrites the file with the
// server's Prometheus text exposition (same bytes a Metrics frame or
// hypercover_cli --server-metrics returns), plus one final dump at
// drain. --trace-out exports every span still in the recorder at drain
// as Chrome-trace JSON and turns on trace_local, so even untraced
// requests leave spans to export. --verbose logs Busy rejections (with
// solve digest prefix and trace id) to stderr.
//
// Exit code 0 after a clean drain, 1 on startup/usage errors.

#include <csignal>
#include <iostream>
#include <limits>
#include <string>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace_json.hpp"
#include "server/server.hpp"
#include "util/cli.hpp"

namespace {

using namespace hypercover;

server::SolveServer* g_server = nullptr;

extern "C" void handle_signal(int) {
  // request_stop() is one atomic store plus one pipe write — both
  // async-signal-safe.
  if (g_server != nullptr) g_server->request_stop();
}

int run(const util::Cli& cli) {
  server::ServerOptions opts;
  opts.listen = cli.get("listen", opts.listen);
  constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t threads = cli.get("threads", 0);
  const std::int64_t cache_entries = cli.get("cache-entries", 256);
  const std::int64_t max_inflight = cli.get("max-inflight", 64);
  const std::int64_t max_queued =
      cli.get("max-queued-bytes", static_cast<std::int64_t>(64) << 20);
  const std::int64_t quantum = cli.get("quantum", 32);
  const std::int64_t metrics_interval = cli.get("metrics-interval-ms", 1000);
  if (threads < 0 || threads > kU32Max || cache_entries < 0 ||
      max_inflight < 0 || max_inflight > kU32Max || max_queued < 0 ||
      quantum < 1 || quantum > kU32Max || metrics_interval < 50 ||
      metrics_interval > kU32Max) {
    std::cerr << "error: a numeric flag is out of range\n";
    return 1;
  }
  opts.threads = static_cast<std::uint32_t>(threads);
  opts.cache_entries = static_cast<std::size_t>(cache_entries);
  opts.max_inflight = static_cast<std::uint32_t>(max_inflight);
  opts.max_queued_bytes = static_cast<std::uint64_t>(max_queued);
  opts.round_quantum = static_cast<std::uint32_t>(quantum);
  opts.verbose = cli.has("verbose");
  const std::string trace_out = cli.get("trace-out", std::string());
  const std::string metrics_path = cli.get("metrics-path", std::string());
  if (trace_out == "1" || metrics_path == "1") {
    std::cerr << "error: --trace-out/--metrics-path need a file path\n";
    return 1;
  }
  opts.trace_local = !trace_out.empty();

  server::SolveServer srv(opts);
  srv.start();
  g_server = &srv;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!cli.has("quiet")) {
    std::cerr << "hypercover_served: listening on " << srv.address()
              << " (cache " << opts.cache_entries << " entries, max "
              << opts.max_inflight << " in-flight jobs)\n";
  }
  {
    const obs::MetricsDumper dumper(
        metrics_path, static_cast<std::uint32_t>(metrics_interval));
    srv.serve();
  }
  g_server = nullptr;

  if (!trace_out.empty()) {
    const auto spans = obs::recorder().collect_all();
    obs::write_chrome_trace(trace_out, spans);
    if (!cli.has("quiet")) {
      std::cerr << "hypercover_served: " << spans.size()
                << " spans written to " << trace_out << "\n";
    }
  }

  const server::ServerStats stats = srv.stats();
  if (!cli.has("quiet")) {
    std::cerr << "hypercover_served: drained after " << stats.connections
              << " connections, " << stats.solves << " solves ("
              << stats.cache_hits << " cache hits, " << stats.cache_evictions
              << " cache evictions, " << stats.busy_rejections
              << " busy rejections, " << stats.protocol_errors
              << " protocol errors)\n";
  }
  return 0;
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
