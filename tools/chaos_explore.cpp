// chaos_explore: seed-swept fault exploration from the command line.
//
//   chaos_explore --seeds=256             sweep seeds 1..256, report violations
//   chaos_explore --seed=17               run one seed, print its report
//   chaos_explore --seed=17 --replay      run it twice, prove the fingerprints
//                                         (and violations) are identical
//   chaos_explore --seed=17 --minimize    shrink the fault schedule to a
//                                         1-minimal subset that still fails
//   chaos_explore ... --bug=reply-auth    reintroduce the pre-hardening reply
//                                         spoofing bug (the sweep must catch it)
//   chaos_explore ... --bug=stale-primary disable epoch fencing: a deposed kv
//                                         primary keeps acknowledging writes
//   chaos_explore ... --bug=leak-root     start roots unregistered: teardown
//                                         leaves their frames alive
//                                         (frames-destroyed)
//   chaos_explore --sharded ...           run the sharded topology: two replica
//                                         groups behind a routing proxy, with
//                                         online shard migrations in the window
//   chaos_explore ... --bug=stale-shard-map disable shard fencing: stale maps
//                                         route ops to groups that lost the
//                                         shard (kv-lost-key / kv-split-shard)
//   chaos_explore --seed=17 --metrics     print the run's metric registry
//                                         (counters + latency histograms)
//   chaos_explore --seed=17 --trace       record causal spans; print every
//                                         call tree (--trace=ID for one)
//   chaos_explore --help                  usage, including every known bug
//
// Exit status: 0 when every run was clean (or, under --minimize, when the
// minimizer reproduced and shrank a failure); 1 when violations were found
// by a sweep, or a replay diverged, or a --minimize target did not fail.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/harness.h"
#include "chaos/minimize.h"

namespace {

using proxy::chaos::Bug;
using proxy::chaos::ChaosOptions;
using proxy::chaos::ChaosReport;
using proxy::chaos::FaultEvent;
using proxy::chaos::MinimizeResult;

struct Args {
  std::uint64_t seeds = 0;      // sweep count (seeds 1..N)
  std::uint64_t seed = 0;       // single seed
  bool replay = false;
  bool sharded = false;
  bool overload = false;
  bool minimize = false;
  bool metrics = false;
  bool trace = false;
  std::uint64_t trace_filter = 0;  // --trace=ID: one tree only
  Bug bug = Bug::kNone;
  std::uint64_t first_seed = 1;
  std::uint64_t clients = 0;  // 0 = the harness default (4)
};

bool ParseU64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: chaos_explore (--seeds=N | --seed=S) [options]\n"
               "\n"
               "  --seeds=N          sweep seeds 1..N (see --first-seed)\n"
               "  --seed=S           run a single seed and print its report\n"
               "  --first-seed=F     start a sweep at seed F (default 1)\n"
               "  --replay           run the seed twice; fingerprints must "
               "match\n"
               "  --minimize         ddmin the fault schedule to a 1-minimal "
               "failing subset\n"
               "  --bug=NAME         reintroduce a known bug (the sweep must "
               "catch it):\n"
               "      none           no bug (default)\n"
               "      reply-auth     disable RPC reply source "
               "authentication;\n"
               "                     forged replies complete calls "
               "(counter-linearizable)\n"
               "      stale-primary  disable replicated-kv epoch fencing; a "
               "deposed\n"
               "                     primary keeps acknowledging writes\n"
               "                     (kv-epoch-regression / kv-durability / "
               "kv-split-brain)\n"
               "      stale-shard-map  disable shard-ownership fencing "
               "(implies --sharded);\n"
               "                     stale shard maps are never corrected and "
               "route ops to\n"
               "                     groups that lost the shard (kv-lost-key / "
               "kv-split-shard)\n"
               "      retry-storm    disable the client retry governors "
               "(attempt budget +\n"
               "                     per-destination token bucket) on the "
               "overload lanes\n"
               "                     (implies --overload); congestion breeds "
               "retransmission\n"
               "                     storms (bounded-retry-amplification)\n"
               "      leak-root      start roots outside the scheduler's "
               "registry; teardown\n"
               "                     cannot destroy the parked ones "
               "(frames-destroyed)\n"
               "  --sharded          shard the KV across two replica groups "
               "behind the\n"
               "                     routing proxy and drive online shard "
               "migrations\n"
               "                     through the fault window\n"
               "  --overload         add the overload world: a throttled KV "
               "server with a\n"
               "                     bounded admission queue, driven past its "
               "knee by three\n"
               "                     open-loop priority lanes through the "
               "fault window\n"
               "                     (no-priority-inversion, bounded-queue, "
               "shed-means-not-\n"
               "                     executed, bounded-retry-amplification)\n"
               "  --clients=N        run N workload clients instead of the "
               "default 4.\n"
               "                     The timer-wheel core keeps big sweeps "
               "cheap: CI's\n"
               "                     nightly lane drives a 10x sweep "
               "(--clients=40)\n"
               "  --metrics          print the metric registry after the run "
               "(table + JSON);\n"
               "                     deterministic: same seed, same bytes\n"
               "  --trace[=ID]       record causal spans; print every call "
               "tree, or just\n"
               "                     trace ID. With --replay both renders "
               "must match byte\n"
               "                     for byte.\n"
               "  --help             this text\n");
}

bool Parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      PrintUsage(stdout);
      std::exit(0);
    } else if (std::strncmp(a, "--seeds=", 8) == 0) {
      if (!ParseU64(a + 8, args.seeds)) return false;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      if (!ParseU64(a + 7, args.seed)) return false;
    } else if (std::strncmp(a, "--first-seed=", 13) == 0) {
      if (!ParseU64(a + 13, args.first_seed)) return false;
    } else if (std::strcmp(a, "--replay") == 0) {
      args.replay = true;
    } else if (std::strcmp(a, "--sharded") == 0) {
      args.sharded = true;
    } else if (std::strcmp(a, "--overload") == 0) {
      args.overload = true;
    } else if (std::strncmp(a, "--clients=", 10) == 0) {
      if (!ParseU64(a + 10, args.clients) || args.clients == 0) return false;
    } else if (std::strcmp(a, "--metrics") == 0) {
      args.metrics = true;
    } else if (std::strcmp(a, "--trace") == 0) {
      args.trace = true;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      args.trace = true;
      if (!ParseU64(a + 8, args.trace_filter)) return false;
    } else if (std::strcmp(a, "--minimize") == 0) {
      args.minimize = true;
    } else if (std::strcmp(a, "--bug=reply-auth") == 0) {
      args.bug = Bug::kReplyAuth;
    } else if (std::strcmp(a, "--bug=stale-primary") == 0) {
      args.bug = Bug::kStalePrimary;
    } else if (std::strcmp(a, "--bug=stale-shard-map") == 0) {
      args.bug = Bug::kStaleShardMap;
      args.sharded = true;  // the bug only exists in a sharded deployment
    } else if (std::strcmp(a, "--bug=retry-storm") == 0) {
      args.bug = Bug::kRetryStorm;
      args.overload = true;  // the governors only matter on overload lanes
    } else if (std::strcmp(a, "--bug=leak-root") == 0) {
      args.bug = Bug::kLeakRoot;
    } else if (std::strcmp(a, "--bug=none") == 0) {
      args.bug = Bug::kNone;
    } else if (std::strncmp(a, "--bug=", 6) == 0) {
      std::fprintf(stderr,
                   "unknown bug '%s' (valid: none, reply-auth, "
                   "stale-primary, stale-shard-map, retry-storm, "
                   "leak-root)\n",
                   a + 6);
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      PrintUsage(stderr);
      return false;
    }
  }
  if ((args.seeds == 0) == (args.seed == 0)) {
    std::fprintf(stderr, "exactly one of --seeds=N or --seed=S required\n");
    return false;
  }
  return true;
}

ChaosOptions MakeOptions(const Args& args, std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.bug = args.bug;
  options.sharded = args.sharded;
  options.overload = args.overload;
  options.collect_metrics = args.metrics;
  options.collect_spans = args.trace;
  options.trace_filter = args.trace_filter;
  if (args.clients != 0) {
    options.workload.clients = static_cast<std::uint32_t>(args.clients);
  }
  return options;
}

int RunSweep(const Args& args) {
  std::uint64_t violated = 0;
  for (std::uint64_t s = args.first_seed; s < args.first_seed + args.seeds;
       ++s) {
    ChaosReport report = proxy::chaos::RunChaos(MakeOptions(args, s));
    if (report.ok()) {
      if (s % 32 == 0) {
        std::printf("seed %llu ok (%s)\n",
                    static_cast<unsigned long long>(s),
                    report.Summary().c_str());
      }
      continue;
    }
    ++violated;
    std::printf("VIOLATION at seed %llu\n%s\n",
                static_cast<unsigned long long>(s),
                report.Summary().c_str());
    if (!report.trace_tail.empty()) {
      std::printf("--- trace tail ---\n%s\n", report.trace_tail.c_str());
    }
    const char* bug_flag = "";
    if (args.bug == Bug::kReplyAuth) bug_flag = " --bug=reply-auth";
    if (args.bug == Bug::kStalePrimary) bug_flag = " --bug=stale-primary";
    if (args.bug == Bug::kStaleShardMap) bug_flag = " --bug=stale-shard-map";
    if (args.bug == Bug::kRetryStorm) bug_flag = " --bug=retry-storm";
    if (args.bug == Bug::kLeakRoot) bug_flag = " --bug=leak-root";
    std::printf("reproduce with: chaos_explore --seed=%llu%s%s%s\n",
                static_cast<unsigned long long>(s),
                args.sharded && args.bug != Bug::kStaleShardMap ? " --sharded"
                                                                : "",
                args.overload && args.bug != Bug::kRetryStorm ? " --overload"
                                                              : "",
                bug_flag);
  }
  std::printf("sweep: %llu seeds, %llu violating\n",
              static_cast<unsigned long long>(args.seeds),
              static_cast<unsigned long long>(violated));
  return violated == 0 ? 0 : 1;
}

int RunSingle(const Args& args) {
  ChaosReport report = proxy::chaos::RunChaos(MakeOptions(args, args.seed));
  std::printf("%s\n", report.Summary().c_str());
  if (!report.trace_tail.empty()) {
    std::printf("--- trace tail ---\n%s\n", report.trace_tail.c_str());
  }
  if (args.metrics) {
    // RenderTable carries its own "--- metrics ---" header.
    std::printf("%s--- metrics json ---\n%s\n",
                report.metrics_table.c_str(), report.metrics_json.c_str());
  }
  if (args.trace) {
    std::printf("--- spans (%zu traces) ---\n%s",
                report.trace_ids.size(), report.span_trees.c_str());
  }

  if (args.replay) {
    ChaosReport second = proxy::chaos::RunChaos(MakeOptions(args, args.seed));
    const bool identical = second.fingerprint == report.fingerprint &&
                           second.trace_events == report.trace_events &&
                           second.violations.size() ==
                               report.violations.size() &&
                           second.metrics_table == report.metrics_table &&
                           second.metrics_json == report.metrics_json &&
                           second.span_trees == report.span_trees;
    std::printf("replay: fp=%llx events=%llu metrics=%s spans=%s -> %s\n",
                static_cast<unsigned long long>(second.fingerprint),
                static_cast<unsigned long long>(second.trace_events),
                second.metrics_table == report.metrics_table ? "match"
                                                             : "DIVERGED",
                second.span_trees == report.span_trees ? "match" : "DIVERGED",
                identical ? "IDENTICAL" : "DIVERGED");
    if (!identical) return 1;
  }

  if (args.minimize) {
    if (report.ok()) {
      std::printf("minimize: seed is clean, nothing to shrink\n");
      return 1;
    }
    const std::string& invariant = report.violations.front().invariant;
    MinimizeResult min = proxy::chaos::MinimizeSchedule(
        MakeOptions(args, args.seed), report.schedule, invariant);
    std::printf(
        "minimize: %zu -> %zu fault events (%zu runs, %s) still violating "
        "%s\n",
        report.schedule.size(), min.schedule.size(), min.runs,
        min.converged ? "1-minimal" : "budget hit", invariant.c_str());
    for (const FaultEvent& ev : min.schedule) {
      std::printf("  %s\n", ev.ToString().c_str());
    }
    return 0;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) return 2;
  const int status = args.seed != 0 ? RunSingle(args) : RunSweep(args);
  // Flush before exit: under ASan, LeakSanitizer ends a process whose
  // run leaked (--bug=leak-root does, on purpose) without flushing stdio,
  // and the verdict lines would be lost from a piped stdout.
  std::fflush(stdout);
  return status;
}
