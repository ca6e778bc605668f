#pragma once
// Metrics registry: process-global named Counters, Gauges, and log2
// Histograms with Prometheus text exposition. Instruments are atomics —
// recording is lock-free and wait-free; the registry mutex is touched
// only on instrument creation (cold: callers cache the reference) and
// exposition (a scrape, not the hot path).
//
// Naming: the full series name including any label set is the registry
// key, e.g. `hc_router_backend_solves_total{backend="unix:/tmp/b0"}`.
// Exposition sorts by key, so series of one family are adjacent and the
// output is byte-deterministic for a given set of values. Histogram
// series must not carry labels (the `le` label is synthesized).
//
// Same boundary as the span recorder: metric values never flow into
// Solutions, transcripts, or digests (lint obs-boundary rule).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace hypercover::obs {

class Counter {
 public:
  void inc(std::uint64_t by = 1) { v_.fetch_add(by, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t by) { v_.fetch_add(by, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Histogram over non-negative integer observations with fixed log2
/// bucket bounds: bucket i counts observations <= 2^i, i in [0, 27],
/// plus a +Inf bucket — so the bounds are identical in every process
/// and every run, and exposition text is comparable across builds.
class Histogram {
 public:
  static constexpr int kBuckets = 28;  // le = 1, 2, 4, ..., 2^27, +Inf

  void observe(std::uint64_t v);
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Cumulative count of observations <= 2^i (the exposition buckets).
  [[nodiscard]] std::uint64_t cumulative(int i) const;
  /// Upper bucket bound holding the q-quantile (q in [0,1]) — a
  /// deterministic over-estimate from the bucket counts; 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets + 1] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named instrument registry with Prometheus text exposition.
class Registry {
 public:
  /// Get-or-create. The returned reference is valid for the registry's
  /// lifetime; callers cache it so the hot path never re-looks-up.
  /// Re-registering a name as a different instrument kind throws.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Prometheus text exposition format, sorted by series name, with one
  /// `# TYPE` line per family.
  [[nodiscard]] std::string prometheus_text() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// The process-global registry every serving layer records into.
[[nodiscard]] Registry& metrics();

/// Overwrites `path` with the global registry's Prometheus text.
void dump_metrics(const std::string& path);

/// A daemon's --metrics-path file: rewritten every `interval_ms` from
/// construction (immediately first), then once more when destroyed —
/// the drain-final dump. An empty path starts nothing.
class MetricsDumper {
 public:
  MetricsDumper(std::string path, std::uint32_t interval_ms);

  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

 private:
  const std::string path_;
  std::jthread thread_;
};

}  // namespace hypercover::obs
