// The benchmark's workloads. Each one builds its own simulated system
// through the public API (Setup), runs a fixed, seed-determined amount of
// work (Run: the timed phase) and verifies what the system returned
// (Check). The seed is the only input; the program sees only what the
// workload generates from it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.h"

namespace hostbench {

/// Counters sampled before and after the timed phase; the difference is
/// what the phase did. Generic ones come from the runtime, the rest from
/// the workload's own services and proxies.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t rejected_datagrams = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t server_duplicates = 0;
  std::uint64_t server_queued = 0;
  std::uint64_t server_rejected = 0;
  std::uint64_t proxy_calls = 0;
  std::uint64_t proxy_rebinds = 0;
  std::uint64_t proxy_pushbacks = 0;
  std::uint64_t rpc_calls = 0;
  std::uint64_t rpc_retransmits = 0;
  std::uint64_t rpc_failed = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t failovers = 0;
  // Workload-specific.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t batch_items = 0;
  std::uint64_t batches = 0;
  std::uint64_t backup_requests = 0;
  std::uint64_t route_retries = 0;

  Counters operator-(const Counters& base) const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Topology, export, publish, Acquire and warm pass.
  virtual void Setup() = 0;
  /// The timed phase: a fixed number of operations.
  virtual void Run() = 0;
  /// Verifies the outputs; records the first mismatch in error().
  virtual void Check() = 0;

  [[nodiscard]] virtual proxy::core::Runtime& runtime() = 0;
  /// Relative slope of this workload's host time against the reference
  /// kernel's when the host's speed drifts: 1 slows in step with the
  /// kernel, 0.5 half as much. Measured on a shared 4-core x86-64 VM
  /// from 20 s runs taken under different load (see README.md).
  [[nodiscard]] virtual double host_sensitivity() const = 0;
  /// Adds the workload-specific counters to `c`.
  virtual void SampleExtra(Counters& c) = 0;
  /// Writes issued in the timed phase (for per-write ratios).
  [[nodiscard]] std::uint64_t writes() const { return writes_; }

  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Virtual latency of every completed operation, in completion order.
  [[nodiscard]] const std::vector<proxy::SimDuration>& latencies() const {
    return latencies_;
  }
  [[nodiscard]] bool correct() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Counters of the whole runtime plus SampleExtra.
  Counters Sample();

 protected:
  void Fail(std::string why) {
    if (error_.empty()) error_ = std::move(why);
  }

  std::uint64_t ops_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t writes_ = 0;
  std::vector<proxy::SimDuration> latencies_;
  std::string error_;
};

/// Names of every workload, in run order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed`; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace hostbench
