// E14 — instance ingestion: text parse vs hgb mmap (engineering bench,
// not a paper experiment). Measures the full load path on cold process
// state per iteration: mode 0 opens the text file and tokenizes it with
// hg::read_text, mode 1 maps the equivalent .hgb with hg::map_file
// (mmap + full structural/digest validation + zero-copy adoption).
//
// Both modes are digest-guarded and symmetric about it: the parse mode
// ends with an explicit util::graph_digest comparison, and map_file's
// validation performs the identical digest check internally before
// adoption — neither side can look fast by loading something else. At
// setup, one solve per ingestion path on each instance must agree on
// transcript_hash and solve_digest bit-for-bit, so the mapped graph is
// PROVEN interchangeable with the parsed one, not assumed.
//
// scripts/bench_json.py folds this into BENCH_engine.json and gates the
// parse/map ratio at >= 2.5x on the largest instance (report-only on
// 1-CPU hosts, like the other concurrency-sensitive gates), and that
// instance's map leg at <= 1.5x of the newest prior multi-CPU record.

#include "bench/common.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "util/digest.hpp"

namespace {

using namespace hypercover;

struct Instance {
  std::string text_path;
  std::string hgb_path;
  std::uint64_t text_bytes = 0;
  std::uint64_t hgb_bytes = 0;
  std::uint64_t edges = 0;
  std::uint64_t incidences = 0;
  std::uint64_t want_digest = 0;  // util::graph_digest of the instance
};

/// One instance per benchmarked size: written to disk in both formats,
/// with solve parity across the two ingestion paths proven up front.
const Instance& instance_for(std::uint32_t n) {
  static std::map<std::uint32_t, Instance>* cache =
      new std::map<std::uint32_t, Instance>();
  static std::string dir = [] {
    char tmpl[] = "/tmp/hypercover_e14_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      throw std::runtime_error("mkdtemp failed for the e14 workload");
    }
    return std::string(tmpl);
  }();
  const auto it = cache->find(n);
  if (it != cache->end()) return it->second;

  Instance inst;
  const hg::Hypergraph g =
      hg::random_uniform(n, 2 * n, 3, hg::exponential_weights(12), 1400 + n);
  inst.edges = g.num_edges();
  inst.incidences = g.num_incidences();
  inst.want_digest = util::graph_digest(g);
  inst.text_path = dir + "/inst_" + std::to_string(n) + ".hg";
  inst.hgb_path = dir + "/inst_" + std::to_string(n) + ".hgb";
  {
    std::ofstream out(inst.text_path);
    hg::write_text(out, g);
  }
  hg::write_binary_file(inst.hgb_path, g);
  {
    std::ifstream in(inst.text_path, std::ios::ate | std::ios::binary);
    inst.text_bytes = static_cast<std::uint64_t>(in.tellg());
  }
  {
    std::ifstream in(inst.hgb_path, std::ios::ate | std::ios::binary);
    inst.hgb_bytes = static_cast<std::uint64_t>(in.tellg());
  }

  // Solve parity: the mapped (adopted, zero-copy) instance must produce
  // a bit-identical solve to the parsed (owned) one.
  {
    std::ifstream in(inst.text_path);
    const hg::Hypergraph parsed = hg::read_text(in);
    const hg::Hypergraph mapped = hg::map_file(inst.hgb_path);
    const api::SolveRequest req;
    const api::Solution a = api::solve("mwhvc", parsed, req);
    const api::Solution b = api::solve("mwhvc", mapped, req);
    if (a.net.transcript_hash != b.net.transcript_hash ||
        util::solve_digest(parsed, "mwhvc", req) !=
            util::solve_digest(mapped, "mwhvc", req) ||
        a.cover_weight != b.cover_weight) {
      throw std::runtime_error(
          "e14: parsed and mapped solves diverged at n=" + std::to_string(n));
    }
  }
  return cache->emplace(n, std::move(inst)).first->second;
}

/// range(0) = n, range(1) = 0 for text parse, 1 for hgb mmap.
void BM_ParseVsMapDigestGuard(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const bool mapped = state.range(1) != 0;
  const Instance& inst = instance_for(n);

  for (auto _ : state) {
    if (mapped) {
      // Validation inside map_file recomputes util::graph_digest over
      // the buffer and compares it to the header — the guard is built in.
      const hg::Hypergraph g = hg::map_file(inst.hgb_path);
      if (g.num_vertices() != n || !g.adopted()) {
        throw std::runtime_error("e14: mapped load is wrong");
      }
      benchmark::DoNotOptimize(g.num_incidences());
    } else {
      std::ifstream in(inst.text_path);
      if (!in) throw std::runtime_error("e14: cannot open text instance");
      const hg::Hypergraph g = hg::read_text(in);
      if (util::graph_digest(g) != inst.want_digest) {
        throw std::runtime_error("e14: parsed load diverged from its digest");
      }
      benchmark::DoNotOptimize(g.num_incidences());
    }
  }

  state.counters["n"] = static_cast<double>(n);
  state.counters["edges"] = static_cast<double>(inst.edges);
  state.counters["incidences"] = static_cast<double>(inst.incidences);
  state.counters["bytes"] =
      static_cast<double>(mapped ? inst.hgb_bytes : inst.text_bytes);
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(mapped ? inst.hgb_bytes : inst.text_bytes));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inst.incidences));
}
BENCHMARK(BM_ParseVsMapDigestGuard)
    ->Args({30000, 0})
    ->Args({30000, 1})
    ->Args({120000, 0})
    ->Args({120000, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    // The gates read the median of 5 repetitions of at least 0.1 s each,
    // whatever --benchmark_min_time says: at 0.01 s the map leg runs once
    // or twice and its first, colder load swings the ratio by 1.5x.
    ->MinTime(0.1)
    ->Repetitions(5);

}  // namespace

BENCHMARK_MAIN();
