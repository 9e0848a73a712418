// Causal tracing: TraceContext on the wire, SpanRecorder in the Runtime.
//
// A TraceContext is three ids: which end-to-end operation this work
// belongs to (trace_id), which unit of work it is (span_id), and which
// unit caused it (parent_span_id). The *client proxy* mints the root
// context — the proxy is the interception point — and the ids travel in
// the request frame, so every hop (forwarding chains, nested
// re-resolution, replication fan-out, failover retries) hangs off the
// span that caused it.
//
// The SpanRecorder is owned per core::Runtime, like the MetricsRegistry:
// ids come from one monotonic counter, so a seeded run produces the same
// ids, the same spans, and a byte-identical rendered call tree every
// replay. Recording is off by default (a span per RPC is real memory);
// tools and tests that want trees call set_enabled(true) before driving
// the workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace proxy::obs {

/// Wire-visible causal identity of one unit of work. All-zero means
/// "no trace": v3-and-older peers, or tracing disabled.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }

  friend bool operator==(const TraceContext& a,
                         const TraceContext& b) noexcept {
    return a.trace_id == b.trace_id && a.span_id == b.span_id &&
           a.parent_span_id == b.parent_span_id;
  }
};

/// One recorded unit of work. `end == 0` means the span never closed
/// (crashed mid-flight — itself a useful signal in the tree).
struct Span {
  TraceContext ctx;
  std::string name;
  SimTime start = 0;
  SimTime end = 0;
  std::string status;  // StatusCodeName, "OK" for success; "" while open
  std::vector<std::pair<SimTime, std::string>> notes;
};

/// Collects spans and rebuilds call trees. Owned per Runtime; not
/// thread-safe (the simulation is single-threaded).
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Recording toggle. While disabled, Begin returns an inactive context
  /// and nothing is stored — callers need no branches of their own.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Bounds memory: once `capacity` spans exist, further Begins return
  /// inactive contexts (counted in dropped()).
  void set_capacity(std::size_t capacity) noexcept { capacity_ = capacity; }

  /// Opens a span named `name` at `now`: a child of `parent` when the
  /// parent is active, otherwise the root of a fresh trace.
  TraceContext Begin(const TraceContext& parent, std::string name,
                     SimTime now);

  /// Appends a timestamped note to the span (rebinds, fencing, epoch
  /// bumps — the protocol events a latency number cannot show).
  void Annotate(const TraceContext& span, SimTime now, std::string note);

  /// Closes the span with the outcome's code name.
  void End(const TraceContext& span, SimTime now, const Status& status);

  /// Global protocol event outside any call (promotions fired by
  /// timers, lease expiry): lands in the event log rendered with every
  /// trace dump.
  void Event(SimTime now, std::string text);

  [[nodiscard]] std::size_t span_count() const noexcept {
    return spans_.size();
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// All trace ids seen, ascending.
  [[nodiscard]] std::vector<std::uint64_t> TraceIds() const;

  /// The indented call tree of one trace — children ordered by
  /// (start, span_id), notes inline. Byte-identical across replays of
  /// the same seed.
  [[nodiscard]] std::string RenderTree(std::uint64_t trace_id) const;

  /// Every tree (ascending trace id) plus the global event log.
  [[nodiscard]] std::string RenderAll() const;

  void Clear();

 private:
  std::uint64_t NextId() noexcept { return next_id_++; }

  bool enabled_ = false;
  std::size_t capacity_ = 1 << 16;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::unordered_map<std::uint64_t, std::size_t> by_span_id_;
  std::vector<std::pair<SimTime, std::string>> events_;
};

}  // namespace proxy::obs
