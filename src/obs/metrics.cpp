#include "obs/metrics.hpp"

#include <bit>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <stop_token>
#include <utility>

namespace hypercover::obs {

namespace {

/// Bucket index for an observation: the smallest i with v <= 2^i,
/// clamped to the +Inf bucket.
int bucket_index(std::uint64_t v) {
  if (v <= 1) return 0;
  const int i = std::bit_width(v - 1);
  return i < Histogram::kBuckets ? i : Histogram::kBuckets;
}

/// Family name of a series: everything before the label set.
std::string_view family_of(std::string_view series) {
  const std::size_t brace = series.find('{');
  return brace == std::string_view::npos ? series : series.substr(0, brace);
}

}  // namespace

void Histogram::observe(std::uint64_t v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::cumulative(int i) const {
  std::uint64_t c = 0;
  for (int b = 0; b <= i && b <= kBuckets; ++b)
    c += buckets_[b].load(std::memory_order_relaxed);
  return c;
}

std::uint64_t Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t c = 0;
  for (int b = 0; b <= kBuckets; ++b) {
    c += buckets_[b].load(std::memory_order_relaxed);
    if (c >= rank) return b == 0 ? 1 : (1ull << b);
  }
  return 1ull << kBuckets;
}

Registry::Entry& Registry::entry(std::string_view name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram: e.histogram = std::make_unique<Histogram>(); break;
    }
    it = entries_.emplace(std::string(name), std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' re-registered as a different kind");
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  return *entry(name, Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return *entry(name, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  return *entry(name, Kind::kHistogram).histogram;
}

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string_view last_family;
  for (const auto& [name, e] : entries_) {
    const std::string_view family = family_of(name);
    if (family != last_family) {
      out += "# TYPE ";
      out += family;
      switch (e.kind) {
        case Kind::kCounter: out += " counter\n"; break;
        case Kind::kGauge: out += " gauge\n"; break;
        case Kind::kHistogram: out += " histogram\n"; break;
      }
      last_family = family;
    }
    switch (e.kind) {
      case Kind::kCounter:
        out += name;
        out += ' ';
        out += std::to_string(e.counter->value());
        out += '\n';
        break;
      case Kind::kGauge:
        out += name;
        out += ' ';
        out += std::to_string(e.gauge->value());
        out += '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        for (int b = 0; b <= Histogram::kBuckets; ++b) {
          out += name;
          out += "_bucket{le=\"";
          out += b == Histogram::kBuckets ? "+Inf"
                                          : std::to_string(1ull << b);
          out += "\"} ";
          out += std::to_string(h.cumulative(b));
          out += '\n';
        }
        out += name;
        out += "_sum ";
        out += std::to_string(h.sum());
        out += '\n';
        out += name;
        out += "_count ";
        out += std::to_string(h.count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

Registry& metrics() {
  static Registry global;
  return global;
}

void dump_metrics(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (out) out << metrics().prometheus_text();
}

// The jthread's destructor requests the stop and joins, so the thread's
// last dump is the drain-final one.
MetricsDumper::MetricsDumper(std::string path, std::uint32_t interval_ms)
    : path_(std::move(path)) {
  if (path_.empty()) return;
  thread_ = std::jthread([this, interval_ms](const std::stop_token& stop) {
    std::uint32_t slept = interval_ms;  // dump immediately at startup
    while (!stop.stop_requested()) {
      if (slept >= interval_ms) {
        dump_metrics(path_);
        slept = 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      slept += 50;
    }
    dump_metrics(path_);
  });
}

}  // namespace hypercover::obs
