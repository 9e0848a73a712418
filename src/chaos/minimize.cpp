#include "chaos/minimize.h"

#include <algorithm>
#include <utility>

namespace proxy::chaos {

namespace {

/// Does this subset still break the invariant under investigation?
bool StillFails(const ChaosOptions& options,
                const std::vector<FaultEvent>& subset,
                const std::string& invariant, ChaosReport& out) {
  ChaosOptions run = options;
  run.schedule = subset;
  ChaosReport report = RunChaos(run);
  const bool hit = std::any_of(
      report.violations.begin(), report.violations.end(),
      [&invariant](const Violation& v) { return v.invariant == invariant; });
  if (hit) out = std::move(report);
  return hit;
}

}  // namespace

MinimizeResult MinimizeSchedule(const ChaosOptions& options,
                                std::vector<FaultEvent> schedule,
                                const std::string& invariant,
                                std::size_t max_runs) {
  MinimizeResult result;
  result.invariant = invariant;

  // Baseline: the full schedule must fail, or there is nothing to shrink.
  if (!StillFails(options, schedule, invariant, result.report)) {
    ++result.runs;
    result.schedule = std::move(schedule);
    return result;
  }
  ++result.runs;

  // ddmin: split into n chunks, try each complement (schedule minus one
  // chunk); on success restart at coarse granularity over the smaller
  // schedule, otherwise refine until chunks are single events.
  std::size_t n = 2;
  while (schedule.size() >= 2 && n <= schedule.size() &&
         result.runs < max_runs) {
    const std::size_t chunk = (schedule.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t start = 0;
         start < schedule.size() && result.runs < max_runs; start += chunk) {
      std::vector<FaultEvent> complement;
      complement.reserve(schedule.size());
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (i < start || i >= start + chunk) complement.push_back(schedule[i]);
      }
      if (complement.empty()) continue;
      ++result.runs;
      if (StillFails(options, complement, invariant, result.report)) {
        schedule = std::move(complement);
        n = std::max<std::size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= schedule.size()) {
        result.converged = true;
        break;
      }
      n = std::min(n * 2, schedule.size());
    }
  }
  if (schedule.size() <= 1) result.converged = true;
  result.schedule = std::move(schedule);
  return result;
}

}  // namespace proxy::chaos
