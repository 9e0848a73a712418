// hostbench: host cost of the proxy stack, per simulated operation.
//
//   hostbench        --workload <name> --seed <n> --seconds <s>
//   hostbench_traced --workload <name> --seed <n> --seconds <s> [--spans <file>]
//
// Repeats the workload (fresh set-up each time, same seed) until --seconds
// have passed, reports medians of the host-time figures and the exact
// counts of the first repetition, and checks every repetition's outputs.
// The traced link alternates untraced and traced repetitions: the traced
// ones feed the per-layer ledger, the untraced ones its overhead figure.
// The last line of standard output is one JSON object.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace hostbench {
namespace {

using Clock = std::chrono::steady_clock;
using ledger::Entry;
using ledger::Layer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string spans_path;
};

/// Host speed drifts on a shared machine (by half, over minutes), and it
/// moves every host-time figure with it. Each repetition therefore also
/// times a fixed kernel (ReferenceSeconds), and host times are reported
/// at the speed where that kernel takes kReferenceNominalS, through the
/// workload's measured sensitivity (Workload::host_sensitivity).
constexpr double kReferenceNominalS = 0.015;

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double ref_s = 0;  // reference kernel time around this repetition
  double timed_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t writes = 0;
  ledger::AllocCount allocs;
  Counters counters;
  std::uint64_t queue_peak = 0;
  double peak_rss_kib = 0;  // process high-water mark when this one ended
  std::vector<proxy::SimDuration> latencies;  // first repetition only
  std::uint64_t latency_hash = 0;              // FNV-1a of all latencies
  std::string error;
  // Traced repetitions only.
  ledger::Tally tally;
  std::uint64_t wall_ticks = 0;
  double ns_per_tick = 0;

  [[nodiscard]] double ns_per_op() const { return timed_ns / static_cast<double>(ops); }
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t Fnv1a(const std::vector<proxy::SimDuration>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const proxy::SimDuration v : values) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// High-water resident set of this program. Read from VmHWM rather than
/// getrusage: ru_maxrss survives execve, so it would include whatever
/// process launched the benchmark.
double PeakRssKiB() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
  }
  return kib;
}

/// The reference kernel: hashing, small allocations, copies and indirect
/// calls, the mix the simulator spends its time on. It is benchmark code
/// only, so no change to the libraries can move it. Timed once before a
/// repetition's set-up and once after its timed phase.
double ReferenceSeconds() {
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> table;
  table.reserve(4096);
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t sink = 0;
  const std::function<std::uint64_t(std::uint64_t)> mix = [](std::uint64_t v) {
    return v * 0x9e3779b97f4a7c15ULL;
  };
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t key = x & 4095;
    std::vector<std::uint8_t>& v = table[key];
    v.assign(16 + (x >> 57), static_cast<std::uint8_t>(x));
    sink += mix(v.size()) ^ v[0];
    if ((x & 3) == 0) table.erase(key ^ 1);
  }
  const double secs = Seconds(Clock::now() - t0);
  if (sink == 0) std::fprintf(stderr, "hostbench: reference kernel folded away\n");
  return secs;
}

Rep RunRep(const Options& opt, bool first, bool traced, bool record_spans) {
  Rep rep;
  rep.traced = traced;
  const double ref_before = ReferenceSeconds();
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload, opt.seed);
  const Clock::time_point t0 = Clock::now();
  w->Setup();
  rep.setup_s = Seconds(Clock::now() - t0);

  proxy::sim::Scheduler& sched = w->runtime().scheduler();
  const Counters before = w->Sample();
  if (traced) {
    sched.SetStepHook([](proxy::SimTime t, std::uint64_t seq) {
      ledger::OnEvent(t, seq);
    });
  }
  const ledger::AllocCount a0 = ledger::Allocations();
  if (traced) {
    ledger::Reset();
    ledger::RecordSpans(record_spans);
    ledger::SetEnabled(true);
  }
  const std::uint64_t tick0 = ledger::Now();
  const Clock::time_point s0 = Clock::now();
  w->Run();
  const Clock::time_point s1 = Clock::now();
  const std::uint64_t tick1 = ledger::Now();
  if (traced) {
    ledger::SetEnabled(false);
    ledger::RecordSpans(false);
  }
  const ledger::AllocCount a1 = ledger::Allocations();
  if (traced) sched.SetStepHook(nullptr);
  rep.counters = w->Sample() - before;
  rep.peak_rss_kib = PeakRssKiB();
  rep.ref_s = (ref_before + ReferenceSeconds()) / 2;

  rep.timed_ns = std::chrono::duration<double, std::nano>(s1 - s0).count();
  rep.allocs = {a1.allocs - a0.allocs, a1.bytes - a0.bytes};
  if (traced) {
    rep.tally = ledger::Current();
    rep.wall_ticks = tick1 - tick0;
    rep.ns_per_tick = rep.timed_ns / static_cast<double>(rep.wall_ticks);
  }
  for (const auto& ctx : w->runtime().contexts()) {
    rep.queue_peak = std::max<std::uint64_t>(rep.queue_peak,
                                             ctx->server().admission_queue_peak());
  }
  rep.ops = w->ops();
  rep.failed = w->failed();
  rep.writes = w->writes();
  rep.latency_hash = Fnv1a(w->latencies());
  if (first) rep.latencies = w->latencies();
  w->Check();
  rep.error = w->error();
  if (rep.ops == 0 && rep.error.empty()) rep.error = "no operation completed";
  return rep;
}

// --- output ---

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  bool available = true;  // false: the layer does not run here ("n/a")
};

class Report {
 public:
  void Add(std::string name, std::string unit, double value) {
    metrics_.push_back({std::move(name), std::move(unit), value, true});
  }
  /// A ratio whose denominator is zero reads n/a.
  void Ratio(std::string name, std::string unit, double num, double den,
             double scale = 1) {
    if (den == 0) {
      metrics_.push_back({std::move(name), std::move(unit), 0, false});
    } else {
      Add(std::move(name), std::move(unit), num / den * scale);
    }
  }
  void NotAvailable(std::string name, std::string unit) {
    metrics_.push_back({std::move(name), std::move(unit), 0, false});
  }

  void PrintTable() const {
    for (const Metric& m : metrics_) {
      if (m.available) {
        std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      } else {
        std::printf("  %-34s %16s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
      }
    }
  }

  /// n/a metrics are written as 0: the JSON carries numbers only.
  [[nodiscard]] std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.available ? m.value : 0.0,
                    m.unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

double Percentile(std::vector<proxy::SimDuration> v, double q) {
  std::sort(v.begin(), v.end());
  // Nearest rank: the ceil(q * n)-th smallest sample.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

/// End-to-end figures (tracing off): medians of host times at reference
/// speed and as read, exact counts from the first repetition.
void EndToEnd(const std::vector<Rep>& reps, double sensitivity, Report& out) {
  std::vector<double> setup;
  std::vector<double> setup_ref;
  std::vector<double> ns_per_op;
  std::vector<double> ns_per_op_ref;
  std::vector<double> reference;
  for (const Rep& r : reps) {
    // Linear in the kernel time, with the workload's own slope: at the
    // nominal kernel time the factor is 1.
    const double factor = std::max(
        0.1, 1 + sensitivity * (r.ref_s - kReferenceNominalS) / kReferenceNominalS);
    setup.push_back(r.setup_s);
    setup_ref.push_back(r.setup_s / factor);
    ns_per_op.push_back(r.ns_per_op());
    ns_per_op_ref.push_back(r.ns_per_op() / factor);
    reference.push_back(r.ref_s);
  }
  const Rep& first = reps.front();
  const auto ops = static_cast<double>(first.ops);
  double sum = 0;
  for (const proxy::SimDuration d : first.latencies) sum += static_cast<double>(d);

  out.Add("setup_s", "s", Median(setup_ref));
  out.Add("setup_wall_s", "s", Median(setup));
  out.Add("ops_per_ref_s", "ops/s", 1e9 / Median(ns_per_op_ref));
  out.Add("ops_per_wall_s", "ops/s", 1e9 / Median(ns_per_op));
  out.Add("reference_ms", "ms", Median(reference) * 1e3);
  out.Add("vlat_p50_us", "us", Percentile(first.latencies, 0.50) / 1e3);
  out.Add("vlat_p99_us", "us", Percentile(first.latencies, 0.99) / 1e3);
  out.Add("vlat_mean_us", "us", sum / ops / 1e3);
  out.Add("vlat_samples", "count", ops);
  out.Add("failed_fraction", "ratio", static_cast<double>(first.failed) / ops);
  out.Add("allocs_per_op", "count", static_cast<double>(first.allocs.allocs) / ops);
  out.Add("alloc_bytes_per_op", "B", static_cast<double>(first.allocs.bytes) / ops);
  out.Add("peak_rss_mb", "MB", first.peak_rss_kib / 1024.0);
}

/// Per-layer figures of one traced repetition.
void PerLayer(const Rep& r, double untraced_ns_per_op, Report& out) {
  const ledger::Tally& t = r.tally;
  const Counters& c = r.counters;
  const auto ops = static_cast<double>(r.ops);
  const double npt = r.ns_per_tick;
  auto layer_ns = [&](Layer l) {
    return static_cast<double>(t.layers[static_cast<std::size_t>(l)].self_ticks) * npt;
  };
  auto layer_allocs = [&](Layer l) {
    return static_cast<double>(t.layers[static_cast<std::size_t>(l)].allocs);
  };
  auto entry = [&](Entry e) -> const ledger::EntryStats& {
    return t.entries[static_cast<std::size_t>(e)];
  };
  auto entry_ns = [&](Entry e) { return static_cast<double>(entry(e).self_ticks) * npt; };
  auto calls = [&](Entry e) { return static_cast<double>(entry(e).calls); };

  out.Ratio("proxy.calls_per_op", "count", static_cast<double>(c.proxy_calls), ops);
  out.Add("proxy.self_ns_per_op", "ns", layer_ns(Layer::kProxy) / ops);
  out.Add("proxy.allocs_per_op", "count", layer_allocs(Layer::kProxy) / ops);
  out.Add("proxy.rebinds", "count", static_cast<double>(c.proxy_rebinds));
  out.Add("proxy.pushback_waits", "count", static_cast<double>(c.proxy_pushbacks));

  const double lookups = static_cast<double>(c.cache_hits + c.cache_misses);
  out.Ratio("cache.hit_ratio", "ratio", static_cast<double>(c.cache_hits), lookups);
  out.Ratio("cache.lookups_per_op", "count", lookups, lookups == 0 ? 0 : ops);
  out.Ratio("cache.self_ns_per_op", "ns", layer_ns(Layer::kCache), lookups == 0 ? 0 : ops);
  out.Ratio("cache.invalidations_per_write", "count",
            static_cast<double>(c.invalidations_sent), lookups == 0 ? 0 : r.writes);
  out.Ratio("cache.items_per_flush", "count", static_cast<double>(c.batch_items),
            static_cast<double>(c.batches));

  const auto rpc_calls = static_cast<double>(c.rpc_calls);
  out.Ratio("rpc_client.calls_per_op", "count", rpc_calls, ops);
  out.Ratio("rpc_client.self_ns_per_call", "ns", layer_ns(Layer::kRpcClient), rpc_calls);
  out.Ratio("rpc_client.allocs_per_call", "count", layer_allocs(Layer::kRpcClient),
            rpc_calls);
  out.Ratio("rpc_client.retransmits_per_kcall", "count",
            static_cast<double>(c.rpc_retransmits), rpc_calls, 1000);
  out.Add("rpc_client.failed_calls", "count", static_cast<double>(c.rpc_failed));

  const double envelope_ns = entry_ns(Entry::kWrapEnvelope) + entry_ns(Entry::kUnwrapEnvelope);
  const auto envelope_bytes = static_cast<double>(entry(Entry::kWrapEnvelope).bytes +
                                                  entry(Entry::kUnwrapEnvelope).bytes);
  out.Ratio("serde.encode_ns_per_frame", "ns",
            entry_ns(Entry::kEncodeRequest) + entry_ns(Entry::kEncodeReply),
            calls(Entry::kEncodeRequest) + calls(Entry::kEncodeReply));
  out.Ratio("serde.decode_ns_per_frame", "ns",
            entry_ns(Entry::kDecodeRequest) + entry_ns(Entry::kDecodeReply),
            calls(Entry::kDecodeRequest) + calls(Entry::kDecodeReply));
  out.Ratio("serde.envelope_ns_per_datagram", "ns", envelope_ns,
            calls(Entry::kWrapEnvelope));
  out.Ratio("serde.envelope_mb_per_s", "MB/s", envelope_bytes, envelope_ns, 1e3);
  out.Add("serde.bytes_copied_per_op", "B", static_cast<double>(c.bytes_copied) / ops);
  out.Add("serde.self_ns_per_op", "ns", layer_ns(Layer::kSerde) / ops);
  out.Add("serde.allocs_per_op", "count", layer_allocs(Layer::kSerde) / ops);

  out.Add("net.datagrams_per_op", "count", static_cast<double>(c.datagrams) / ops);
  out.Add("net.wire_bytes_per_op", "B", static_cast<double>(c.wire_bytes) / ops);
  out.Ratio("net.send_ns_per_datagram", "ns", entry_ns(Entry::kEndpointSend),
            calls(Entry::kEndpointSend));
  out.Ratio("net.deliver_ns_per_datagram", "ns",
            layer_ns(Layer::kNet) - entry_ns(Entry::kEndpointSend),
            static_cast<double>(c.delivered));
  out.Add("net.rejected_datagrams", "count", static_cast<double>(c.rejected_datagrams));
  out.Add("net.self_ns_per_op", "ns", layer_ns(Layer::kNet) / ops);

  const auto events = static_cast<double>(c.events);
  out.Add("sim.events_per_op", "count", events / ops);
  out.Ratio("sim.step_ns_per_event", "ns", layer_ns(Layer::kSim), events);
  out.Ratio("sim.coalesced_fraction", "ratio", static_cast<double>(c.coalesced),
            static_cast<double>(c.delivered));
  out.Add("sim.self_ns_per_op", "ns", layer_ns(Layer::kSim) / ops);
  out.Add("sim.allocs_per_op", "count", layer_allocs(Layer::kSim) / ops);

  const auto requests = static_cast<double>(c.server_requests);
  out.Ratio("rpc_server.requests_per_op", "count", requests, ops);
  out.Ratio("rpc_server.self_ns_per_request", "ns", layer_ns(Layer::kRpcServer), requests);
  out.Ratio("rpc_server.queued_fraction", "ratio", static_cast<double>(c.server_queued),
            requests);
  out.Ratio("rpc_server.rejected_fraction", "ratio",
            static_cast<double>(c.server_rejected), requests);
  out.Add("rpc_server.duplicates_suppressed", "count",
          static_cast<double>(c.server_duplicates));
  out.Add("rpc_server.queue_peak", "count", static_cast<double>(r.queue_peak));
  out.Add("rpc_server.self_ns_per_op", "ns", layer_ns(Layer::kRpcServer) / ops);

  // The benchmark owns no dispatch table, so handler time stays inside
  // rpc_server (handlers run in RpcServer's private receive path).
  out.NotAvailable("services.handler_ns_per_request", "ns");
  // Only the sharded deployment has backups to mirror to and a router.
  const bool sharded = c.backup_requests > 0;
  out.Ratio("services.mirror_requests_per_write", "count",
            static_cast<double>(c.backup_requests),
            sharded ? static_cast<double>(r.writes) : 0);
  out.Ratio("services.route_passes_per_op", "count",
            ops + static_cast<double>(c.route_retries), sharded ? ops : 0);
  out.Add("services.failovers", "count", static_cast<double>(c.failovers));

  double obs_calls = 0;
  for (const Entry e : {Entry::kHistogramRecord, Entry::kSpanBegin, Entry::kSpanEnd,
                        Entry::kSpanAnnotate}) {
    obs_calls += calls(e);
  }
  out.Add("obs.calls_per_op", "count", obs_calls / ops);
  out.Add("obs.self_ns_per_op", "ns", layer_ns(Layer::kObs) / ops);

  double attributed = 0;
  double attributed_allocs = 0;
  for (std::size_t l = 1; l < ledger::kLayers; ++l) {
    attributed += layer_ns(static_cast<Layer>(l));
    attributed_allocs += layer_allocs(static_cast<Layer>(l));
  }
  const double wall_ns = r.timed_ns;
  out.Add("unattributed.ns_per_op", "ns", (wall_ns - attributed) / ops);
  out.Add("unattributed.allocs_per_op", "count",
          (static_cast<double>(r.allocs.allocs) - attributed_allocs) / ops);
  out.Add("trace.wall_ns_per_op", "ns", wall_ns / ops);
  out.Add("trace.overhead_fraction", "ratio", 1 - untraced_ns_per_op / (wall_ns / ops));
}

/// Ledger self-checks on one traced repetition, against an untraced one
/// of the same seed. Returns the first failure, or "".
std::string CheckLedger(const Rep& traced, const Rep& plain) {
  const ledger::Tally& t = traced.tally;
  std::uint64_t self = 0;
  std::uint64_t allocs = 0;
  for (const ledger::LayerStats& l : t.layers) {
    self += l.self_ticks;
    allocs += l.allocs;
  }
  if (self != t.top_level_ticks) {
    return "layer self times do not add up to the outermost spans";
  }
  if (t.top_level_ticks > traced.wall_ticks) {
    return "spans cover more than the timed phase";
  }
  if (allocs != traced.allocs.allocs) {
    return "per-layer allocations do not add up to the traced total";
  }
  if (traced.allocs.allocs != plain.allocs.allocs ||
      traced.counters.events != plain.counters.events) {
    return "traced and untraced repetitions of one seed differ in allocations or events";
  }
  return "";
}

/// Same seed, same program: the deterministic counts must repeat exactly.
std::string CheckDeterminism(const Rep& a, const Rep& b) {
  if (a.ops != b.ops || a.failed != b.failed || a.latency_hash != b.latency_hash ||
      a.counters.events != b.counters.events ||
      a.counters.wire_bytes != b.counters.wire_bytes ||
      a.allocs.allocs != b.allocs.allocs) {
    return "two repetitions of one seed differ in ops, latencies, events, "
           "wire bytes or allocations";
  }
  return "";
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload <name> --seed <n> --seconds <s> "
               "[--spans <file>]\nworkloads:");
  for (const std::string& w : WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || MakeWorkload(opt.workload, opt.seed) == nullptr) return Usage();

  const bool traced = ledger::WrapsLinked();
  if (traced) {
    ledger::Reserve();
    for (std::size_t e = 1; e < ledger::kEntries; ++e) {
      if (!ledger::EntryLinked(static_cast<Entry>(e))) {
        std::fprintf(stderr, "hostbench: entry point %s is not in this build\n",
                     ledger::EntryName(static_cast<Entry>(e)));
      }
    }
  }

  // Repetitions until the time is spent: at least three end-to-end ones,
  // or two untraced plus two traced ones in the traced link.
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced_rep = traced && i % 2 == 1;
    reps.push_back(RunRep(opt, i == 0, traced_rep, traced_rep && i == 1));
    const std::size_t min_reps = traced ? 4 : 3;
    if (reps.size() >= min_reps && Seconds(Clock::now() - start) >= opt.seconds) break;
  }

  std::string error;
  for (const Rep& r : reps) {
    if (error.empty()) error = r.error;
  }
  for (std::size_t i = 1; i < reps.size() && error.empty(); ++i) {
    error = CheckDeterminism(reps[0], reps[i]);
  }

  std::vector<const Rep*> plain;
  std::vector<const Rep*> with_trace;
  for (const Rep& r : reps) (r.traced ? with_trace : plain).push_back(&r);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.ops;
    failed += r.failed;
  }

  Report report;
  std::printf("hostbench %s seed=%llu: %zu repetitions (%zu traced), %llu ops each\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              reps.size(), with_trace.size(),
              static_cast<unsigned long long>(reps[0].ops));
  std::printf("  per repetition: set-up ms / wall ns per op / reference ms:");
  for (const Rep& r : reps) {
    std::printf(" %.2f/%.0f/%.2f%s", r.setup_s * 1e3, r.ns_per_op(), r.ref_s * 1e3,
                r.traced ? "t" : "");
  }
  std::printf("\n");
  if (!traced) {
    EndToEnd(reps, MakeWorkload(opt.workload, opt.seed)->host_sensitivity(), report);
  } else {
    std::vector<double> plain_ns;
    for (const Rep* r : plain) plain_ns.push_back(r->ns_per_op());
    // Report the traced repetition with the median ns/op, whole, so its
    // layers reconcile exactly with its own wall time.
    std::vector<const Rep*> by_speed = with_trace;
    std::sort(by_speed.begin(), by_speed.end(),
              [](const Rep* a, const Rep* b) { return a->ns_per_op() < b->ns_per_op(); });
    const Rep& chosen = *by_speed[by_speed.size() / 2];
    PerLayer(chosen, Median(plain_ns), report);
    for (const Rep* r : with_trace) {
      if (error.empty()) error = CheckLedger(*r, *plain.front());
    }
    std::printf("  event origins (events by the layer that posted them):");
    for (std::size_t l = 0; l < ledger::kLayers; ++l) {
      std::printf(" %s=%llu", ledger::LayerName(static_cast<Layer>(l)),
                  static_cast<unsigned long long>(chosen.tally.events_by_origin[l]));
    }
    std::printf(" (unmatched %llu)\n",
                static_cast<unsigned long long>(chosen.tally.origin_misses));
    if (!opt.spans_path.empty()) {
      if (std::FILE* f = std::fopen(opt.spans_path.c_str(), "w")) {
        ledger::WriteSpans(f, with_trace.front()->ns_per_tick);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "hostbench: cannot write %s\n", opt.spans_path.c_str());
      }
    }
  }
  report.PrintTable();
  std::printf("  correctness: %s\n", error.empty() ? "ok" : error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              error.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), report.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
