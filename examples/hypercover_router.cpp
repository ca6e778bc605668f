// The hypercover fleet router: a router::Router front-end that shards
// Solve requests across N hypercover_served backends by solve digest
// over a consistent-hash ring, with failover, health probing, and
// fleet-wide Stats aggregation. Clients speak to it exactly as they
// would to a single server.
//
//   ./hypercover_router --backends=unix:/tmp/b0.sock,unix:/tmp/b1.sock
//       [--listen=unix:/tmp/hypercover_router.sock | host:port]
//       [--timeout-ms=30000] [--connect-timeout-ms=2000]
//       [--probe-ms=200] [--probe-max-ms=5000] [--vnodes=64]
//       [--no-forward-shutdown] [--quiet]
//       [--metrics-path=metrics.prom] [--metrics-interval-ms=1000]
//       [--trace-out=trace.json] [--verbose]
//
// Runs until a client sends Shutdown (which, unless
// --no-forward-shutdown, also shuts down every backend — fleet
// shutdown) or the process receives SIGINT/SIGTERM. Final fleet and
// per-backend counters go to stderr.
//
// Observability: --metrics-path periodically rewrites the file with the
// router's hc_router_* Prometheus exposition (also served on the
// Metrics frame), plus one final dump at drain. --trace-out exports the
// recorder's spans at drain as Chrome-trace JSON and turns on
// trace_local. --verbose logs Busy forwards, failovers, and ring
// exhaustion (with solve digest prefix and trace id) to stderr.
//
// Exit code 0 after a clean drain, 1 on startup/usage errors.

#include <csignal>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace_json.hpp"
#include "router/router.hpp"
#include "util/cli.hpp"

namespace {

using namespace hypercover;

router::Router* g_router = nullptr;

extern "C" void handle_signal(int) {
  if (g_router != nullptr) g_router->request_stop();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run(const util::Cli& cli) {
  router::RouterOptions opts;
  opts.listen = cli.get("listen", opts.listen);
  opts.backends = split_csv(cli.get("backends", ""));
  if (opts.backends.empty()) {
    std::cerr << "error: --backends=<addr>[,<addr>...] is required\n";
    return 1;
  }
  constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t timeout = cli.get("timeout-ms", 30000);
  const std::int64_t connect_timeout = cli.get("connect-timeout-ms", 2000);
  const std::int64_t probe = cli.get("probe-ms", 200);
  const std::int64_t probe_max = cli.get("probe-max-ms", 5000);
  const std::int64_t vnodes = cli.get("vnodes", 64);
  const std::int64_t metrics_interval = cli.get("metrics-interval-ms", 1000);
  if (timeout < 0 || timeout > kU32Max || connect_timeout < 0 ||
      connect_timeout > kU32Max || probe < 1 || probe > kU32Max ||
      probe_max < probe || probe_max > kU32Max || vnodes < 1 ||
      vnodes > 4096 || metrics_interval < 50 || metrics_interval > kU32Max) {
    std::cerr << "error: a numeric flag is out of range\n";
    return 1;
  }
  opts.backend_timeout_ms = static_cast<std::uint32_t>(timeout);
  opts.connect_timeout_ms = static_cast<std::uint32_t>(connect_timeout);
  opts.probe_backoff_ms = static_cast<std::uint32_t>(probe);
  opts.probe_backoff_max_ms = static_cast<std::uint32_t>(probe_max);
  opts.vnodes = static_cast<std::uint32_t>(vnodes);
  opts.forward_shutdown = !cli.has("no-forward-shutdown");
  opts.verbose = cli.has("verbose");
  const std::string trace_out = cli.get("trace-out", std::string());
  const std::string metrics_path = cli.get("metrics-path", std::string());
  if (trace_out == "1" || metrics_path == "1") {
    std::cerr << "error: --trace-out/--metrics-path need a file path\n";
    return 1;
  }
  opts.trace_local = !trace_out.empty();

  router::Router rt(opts);
  rt.start();
  g_router = &rt;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!cli.has("quiet")) {
    std::cerr << "hypercover_router: listening on " << rt.address() << ", "
              << opts.backends.size() << " backends, " << opts.vnodes
              << " vnodes each\n";
  }
  {
    const obs::MetricsDumper dumper(
        metrics_path, static_cast<std::uint32_t>(metrics_interval));
    rt.serve();
  }
  g_router = nullptr;

  if (!trace_out.empty()) {
    const auto spans = obs::recorder().collect_all();
    obs::write_chrome_trace(trace_out, spans);
    if (!cli.has("quiet")) {
      std::cerr << "hypercover_router: " << spans.size()
                << " spans written to " << trace_out << "\n";
    }
  }

  if (!cli.has("quiet")) {
    std::uint64_t solves = 0, failures = 0;
    for (const router::BackendSnapshot& b : rt.backend_snapshots()) {
      solves += b.solves;
      failures += b.failures;
      std::cerr << "hypercover_router: backend " << b.address << ": "
                << b.solves << " solves (" << b.cache_hits << " cache hits), "
                << b.busy << " busy, " << b.failures << " failures, "
                << (b.healthy ? "healthy" : "unhealthy") << " at drain\n";
    }
    std::cerr << "hypercover_router: fleet drained after " << solves
              << " solves, " << rt.retries() << " retries, " << failures
              << " backend failures\n";
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
