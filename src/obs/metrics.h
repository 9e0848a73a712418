// Unified instrumentation: counters, gauges, latency histograms, and the
// per-Runtime MetricsRegistry that collects them.
//
// The proxy is the one place a service's distribution protocol is
// visible, which makes it the natural interception point for
// measurement — but measurement is only useful if every layer reports
// into *one* model. This module is that model:
//
//   Counter / Gauge    trivially-copy-free value cells. Components keep
//                      them inline in their stats structs (the old
//                      ad-hoc uint64 tallies, now typed), so existing
//                      accessors keep working, and *attach* them to a
//                      registry for export.
//   Histogram          fixed, deterministic bucket bounds; records a
//                      count/sum/max plus per-bucket tallies, and
//                      derives p50/p95/p99 by bucket upper-bound (no
//                      interpolation — identical across runs and
//                      platforms by construction).
//   MetricsRegistry    a name -> metric map owned per core::Runtime.
//                      Owned metrics are created on demand; external
//                      metrics (a component's inline counters) are
//                      attached by pointer and summed into the same
//                      name at export time. Export renders in sorted
//                      name order, so a seeded run prints byte-identical
//                      tables and JSON every time.
//   MetricScope        the only way to attach a cell. It records each
//                      attach and, when destroyed, detaches exactly
//                      those cells, folding their tallies into the
//                      registry so totals never regress. A component
//                      declares its scope after the cells it attaches,
//                      so no destructor is written to undo a
//                      registration by name.
//
// Determinism rules (DESIGN.md §12): metric values are functions of the
// simulation only — virtual time, message counts — never of wall-clock
// or host state; names are stable strings; exports iterate sorted maps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.h"

namespace proxy::obs {

/// Monotonic event count. Deliberately convertible to its value so the
/// pre-existing `stats().x == 3u` test idiom keeps working unchanged.
class Counter {
 public:
  constexpr Counter() noexcept = default;

  void Inc(std::uint64_t n = 1) noexcept { value_ += n; }
  Counter& operator++() noexcept {
    ++value_;
    return *this;
  }
  void operator++(int) noexcept { ++value_; }
  Counter& operator+=(std::uint64_t n) noexcept {
    value_ += n;
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  operator std::uint64_t() const noexcept { return value_; }  // NOLINT

  friend std::ostream& operator<<(std::ostream& os, const Counter& c) {
    return os << c.value_;
  }

 private:
  std::uint64_t value_ = 0;
};

/// A value that can move both ways (queue depth, open breakers, epoch).
class Gauge {
 public:
  constexpr Gauge() noexcept = default;

  void Set(std::int64_t v) noexcept { value_ = v; }
  void Add(std::int64_t d) noexcept { value_ += d; }
  /// Monotonic high-water convenience.
  void Max(std::int64_t v) noexcept { value_ = std::max(value_, v); }

  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  operator std::int64_t() const noexcept { return value_; }  // NOLINT

  friend std::ostream& operator<<(std::ostream& os, const Gauge& g) {
    return os << g.value_;
  }

 private:
  std::int64_t value_ = 0;
};

/// The default latency bucket ladder: 1-2-5 decades from 1µs to 100s,
/// in virtual nanoseconds. Chosen once, shared by every latency metric,
/// so histograms from different layers merge and compare directly.
const std::vector<std::uint64_t>& DefaultLatencyBounds();

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in
/// ascending order; values above the last bound land in an implicit
/// overflow bucket. Percentiles resolve to the upper bound of the bucket
/// containing the target rank (overflow reports the observed max) —
/// coarse, but exactly reproducible.
class Histogram {
 public:
  Histogram() : Histogram(DefaultLatencyBounds()) {}
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void Record(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket tallies; buckets_[bounds_.size()] is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

  /// Value at quantile `q` in [0,1]: the upper bound of the bucket that
  /// contains the ceil(q*count)-th observation. Returns 0 when empty.
  [[nodiscard]] std::uint64_t Percentile(double q) const noexcept;

  /// Merges `other` into this histogram. Bucket bounds must match.
  void Merge(const Histogram& other);

  void Reset() noexcept;

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = ~0ULL;
};

/// One aggregated view of a metric at export time.
struct MetricSnapshot {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  Histogram histogram;  // kind == kHistogram only
};

/// Name -> metric registry, owned per core::Runtime. Not thread-safe —
/// the simulation is single-threaded by design.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Owned metrics, created on first use. References stay valid for the
  /// registry's lifetime (node-based map).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds);

  /// Aggregated snapshot, sorted by name (deterministic).
  [[nodiscard]] std::vector<MetricSnapshot> Snapshot() const;

  /// Human-readable fixed-layout table.
  [[nodiscard]] std::string RenderTable() const;

  /// Machine-readable JSON (one object, sorted keys).
  [[nodiscard]] std::string RenderJson() const;

 private:
  friend class MetricScope;

  struct Entry {
    std::unique_ptr<Counter> owned_counter;
    std::unique_ptr<Gauge> owned_gauge;
    std::unique_ptr<Histogram> owned_histogram;
    std::vector<const Counter*> counters;
    std::vector<const Gauge*> gauges;
    std::vector<const Histogram*> histograms;

    /// Drops an attached cell, first folding a counter's or histogram's
    /// tallies into the owned metric (a gauge's level leaves with it).
    void Detach(const Counter* cell);
    void Detach(const Gauge* cell);
    void Detach(const Histogram* cell);
  };

  Entry& entry(const std::string& name) { return entries_[name]; }

  std::map<std::string, Entry> entries_;  // sorted => deterministic export
};

/// Owns a component's registrations with one registry. Attach adds a
/// component-owned cell under `name`; export sums every attachment (and
/// any owned metric) of the same name. The destructor detaches exactly
/// the cells attached through this scope. So a component declares its
/// scope after the cells it attaches, and the scope dies while they are
/// still alive. A subclass declares a scope of its own instead of
/// attaching into its base's, because the subclass's cells die first.
/// The registry must outlive the scope.
class MetricScope {
 public:
  explicit MetricScope(MetricsRegistry& registry) noexcept
      : registry_(&registry) {}
  ~MetricScope();

  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

  void Attach(const std::string& name, const Counter* cell);
  void Attach(const std::string& name, const Gauge* cell);
  void Attach(const std::string& name, const Histogram* cell);

 private:
  using Cell = std::variant<const Counter*, const Gauge*, const Histogram*>;

  MetricsRegistry* registry_;
  std::vector<std::pair<MetricsRegistry::Entry*, Cell>> cells_;
};

/// Renders "count=N sum=.. p50=.. p95=.. p99=.. max=.." for one
/// histogram (durations formatted, so tables read naturally).
std::string RenderHistogramLine(const Histogram& h);

}  // namespace proxy::obs
