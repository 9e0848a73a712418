#include "obs/metrics.h"

#include <cassert>
#include <sstream>

namespace proxy::obs {

const std::vector<std::uint64_t>& DefaultLatencyBounds() {
  static const std::vector<std::uint64_t> kBounds = [] {
    std::vector<std::uint64_t> b;
    // 1-2-5 ladder, 1µs .. 100s (virtual nanoseconds).
    for (std::uint64_t decade = 1000; decade <= 100'000'000'000ULL;
         decade *= 10) {
      b.push_back(decade);
      b.push_back(decade * 2);
      b.push_back(decade * 5);
    }
    return b;
  }();
  return kBounds;
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         "histogram bounds must ascend");
}

void Histogram::Record(std::uint64_t value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())]++;
  count_++;
  sum_ += value;
  max_ = std::max(max_, value);
  min_ = std::min(min_, value);
}

std::uint64_t Histogram::Percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based; ceil without float drift.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.9999999));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Overflow bucket has no upper bound; report the observed max.
      return i < bounds_.size() ? bounds_[i] : max_;
    }
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  assert(bounds_ == other.bounds_ && "histogram bounds mismatch");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  min_ = std::min(min_, other.min_);
}

void Histogram::Reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  max_ = 0;
  min_ = ~0ULL;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Entry& e = entry(name);
  if (!e.owned_counter) e.owned_counter = std::make_unique<Counter>();
  return *e.owned_counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Entry& e = entry(name);
  if (!e.owned_gauge) e.owned_gauge = std::make_unique<Gauge>();
  return *e.owned_gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Entry& e = entry(name);
  if (!e.owned_histogram) e.owned_histogram = std::make_unique<Histogram>();
  return *e.owned_histogram;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> bounds) {
  Entry& e = entry(name);
  if (!e.owned_histogram) {
    e.owned_histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *e.owned_histogram;
}

namespace {
template <typename T>
void EraseCell(std::vector<const T*>& cells, const T* cell) {
  cells.erase(std::remove(cells.begin(), cells.end(), cell), cells.end());
}
}  // namespace

void MetricsRegistry::Entry::Detach(const Counter* cell) {
  if (!owned_counter) owned_counter = std::make_unique<Counter>();
  owned_counter->Inc(cell->value());
  EraseCell(counters, cell);
}
void MetricsRegistry::Entry::Detach(const Gauge* cell) {
  EraseCell(gauges, cell);
}
void MetricsRegistry::Entry::Detach(const Histogram* cell) {
  if (!owned_histogram) {
    owned_histogram = std::make_unique<Histogram>(cell->bounds());
  }
  owned_histogram->Merge(*cell);
  EraseCell(histograms, cell);
}

void MetricScope::Attach(const std::string& name, const Counter* cell) {
  MetricsRegistry::Entry& e = registry_->entry(name);
  e.counters.push_back(cell);
  cells_.emplace_back(&e, cell);
}
void MetricScope::Attach(const std::string& name, const Gauge* cell) {
  MetricsRegistry::Entry& e = registry_->entry(name);
  e.gauges.push_back(cell);
  cells_.emplace_back(&e, cell);
}
void MetricScope::Attach(const std::string& name, const Histogram* cell) {
  MetricsRegistry::Entry& e = registry_->entry(name);
  e.histograms.push_back(cell);
  cells_.emplace_back(&e, cell);
}

MetricScope::~MetricScope() {
  // Entries are map nodes, never erased: the pointers outlive the scope.
  for (const auto& attached : cells_) {
    MetricsRegistry::Entry* e = attached.first;
    std::visit([e](const auto* cell) { e->Detach(cell); }, attached.second);
  }
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSnapshot snap;
    snap.name = name;
    if (e.owned_histogram || !e.histograms.empty()) {
      snap.kind = MetricSnapshot::Kind::kHistogram;
      const std::vector<std::uint64_t>& bounds =
          e.owned_histogram ? e.owned_histogram->bounds()
                            : e.histograms.front()->bounds();
      snap.histogram = Histogram(bounds);
      if (e.owned_histogram) snap.histogram.Merge(*e.owned_histogram);
      for (const Histogram* h : e.histograms) snap.histogram.Merge(*h);
    } else if (e.owned_gauge || !e.gauges.empty()) {
      snap.kind = MetricSnapshot::Kind::kGauge;
      if (e.owned_gauge) snap.gauge += e.owned_gauge->value();
      for (const Gauge* g : e.gauges) snap.gauge += g->value();
    } else {
      snap.kind = MetricSnapshot::Kind::kCounter;
      if (e.owned_counter) snap.counter += e.owned_counter->value();
      for (const Counter* c : e.counters) snap.counter += c->value();
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::string RenderHistogramLine(const Histogram& h) {
  std::ostringstream os;
  os << "count=" << h.count();
  if (h.count() == 0) return os.str();
  os << " p50=" << FormatDuration(h.Percentile(0.50))
     << " p95=" << FormatDuration(h.Percentile(0.95))
     << " p99=" << FormatDuration(h.Percentile(0.99))
     << " max=" << FormatDuration(h.max())
     << " mean=" << FormatDuration(h.sum() / h.count());
  return os.str();
}

std::string MetricsRegistry::RenderTable() const {
  std::ostringstream os;
  os << "--- metrics ---\n";
  for (const MetricSnapshot& m : Snapshot()) {
    os << m.name << " ";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << m.counter;
        break;
      case MetricSnapshot::Kind::kGauge:
        os << m.gauge;
        break;
      case MetricSnapshot::Kind::kHistogram:
        os << RenderHistogramLine(m.histogram);
        break;
    }
    os << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::RenderJson() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const MetricSnapshot& m : Snapshot()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << m.name << "\":";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << m.counter;
        break;
      case MetricSnapshot::Kind::kGauge:
        os << m.gauge;
        break;
      case MetricSnapshot::Kind::kHistogram: {
        const Histogram& h = m.histogram;
        os << "{\"count\":" << h.count() << ",\"sum\":" << h.sum()
           << ",\"max\":" << h.max() << ",\"p50\":" << h.Percentile(0.50)
           << ",\"p95\":" << h.Percentile(0.95)
           << ",\"p99\":" << h.Percentile(0.99) << "}";
        break;
      }
    }
  }
  os << "}";
  return os.str();
}

}  // namespace proxy::obs
