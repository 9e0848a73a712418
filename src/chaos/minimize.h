// Fault-schedule minimization (delta debugging).
//
// A violating seed usually carries a schedule full of bystander faults.
// MinimizeSchedule re-runs subsets of the schedule (everything else about
// the scenario held fixed) and keeps the smallest one that still violates
// the *same* invariant — the classic ddmin loop, sound here because a
// chaos run is a pure function of (options, schedule).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "chaos/harness.h"

namespace proxy::chaos {

struct MinimizeResult {
  /// 1-minimal subset: removing any single remaining event no longer
  /// reproduces the violation (unless the run budget cut the loop short).
  std::vector<FaultEvent> schedule;
  /// The invariant the subset still violates (== the requested one).
  std::string invariant;
  /// The violating run on the minimized schedule.
  ChaosReport report;
  /// Chaos executions spent.
  std::size_t runs = 0;
  /// True when ddmin ran to 1-minimality within the budget.
  bool converged = false;
};

/// Shrinks `schedule` while RunChaos(options + subset) still violates
/// `invariant`. `options.schedule` is overwritten per probe; the caller's
/// other fields (seed, workload, bug) are what pins the scenario.
MinimizeResult MinimizeSchedule(const ChaosOptions& options,
                                std::vector<FaultEvent> schedule,
                                const std::string& invariant,
                                std::size_t max_runs = 256);

}  // namespace proxy::chaos
