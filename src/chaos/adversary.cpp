#include "chaos/adversary.h"

#include <utility>

#include "rpc/frame.h"
#include "serde/traits.h"

namespace proxy::chaos {

void ReplySpoofer::Burst(std::uint32_t client_index) {
  if (targets_.empty()) return;
  const Target& target = targets_[client_index % targets_.size()];
  // A counter reply is the bare value, so the poison decodes as one.
  const Bytes poison = serde::EncodeToBytes(kPoisonValue);
  for (std::uint64_t seq = 1; seq <= kSeqSweep; ++seq) {
    rpc::ReplyFrame reply;
    reply.call = rpc::CallId{target.nonce, seq};
    reply.code = StatusCode::kOk;
    reply.result = View(poison);
    // The adversary forges wire frames on purpose — its whole job is to
    // violate the encapsulation boundary the proxies defend.
    // NOLINTNEXTLINE(proxy-lint:L3)
    (void)endpoint_->Send(target.client, rpc::EncodeReply(reply));
    ++forged_;
  }
}

Adversary::Adversary(core::Runtime& runtime, TraceRecorder& trace,
                     ReplySpoofer* spoofer, std::vector<FaultEvent> schedule)
    : runtime_(&runtime),
      trace_(&trace),
      spoofer_(spoofer),
      schedule_(std::move(schedule)) {}

void Adversary::Arm() {
  sim::Scheduler& sched = runtime_->scheduler();
  for (const FaultEvent& ev : schedule_) {
    sched.PostAt(ev.at, [this, &ev] { Apply(ev); }).Detach();
  }
}

void Adversary::ScheduleRestore(SimDuration duration,
                                std::function<void()> undo) {
  const std::uint64_t token = next_undo_++;
  active_undos_.emplace(token, std::move(undo));
  runtime_->scheduler()
      .PostAfter(duration,
                 [this, token] {
                   const auto it = active_undos_.find(token);
                   if (it == active_undos_.end()) return;  // healed already
                   auto fn = std::move(it->second);
                   active_undos_.erase(it);
                   fn();
                 })
      .Detach();
}

void Adversary::Apply(const FaultEvent& ev) {
  sim::Network& net = runtime_->network();
  const SimTime now = runtime_->scheduler().now();
  trace_->Note(now, "inject: " + ev.ToString());
  ++applied_;

  switch (ev.kind) {
    case FaultKind::kPartition: {
      const NodeId a(ev.a), b(ev.b);
      net.SetPartitioned(a, b, true);
      ScheduleRestore(ev.duration, [this, a, b] {
        runtime_->network().SetPartitioned(a, b, false);
        trace_->Note(runtime_->scheduler().now(),
                     "heal: partition n" + std::to_string(a.value()) +
                         "<->n" + std::to_string(b.value()));
      });
      break;
    }
    case FaultKind::kIsolate: {
      const NodeId a(ev.a);
      const auto n = static_cast<std::uint32_t>(net.node_count());
      for (std::uint32_t other = 0; other < n; ++other) {
        if (other != ev.a) net.SetPartitioned(a, NodeId(other), true);
      }
      ScheduleRestore(ev.duration, [this, a, n] {
        for (std::uint32_t other = 0; other < n; ++other) {
          if (other != a.value()) {
            runtime_->network().SetPartitioned(a, NodeId(other), false);
          }
        }
        trace_->Note(runtime_->scheduler().now(),
                     "heal: isolate n" + std::to_string(a.value()));
      });
      break;
    }
    case FaultKind::kPause: {
      const NodeId a(ev.a);
      net.SetNodePaused(a, true);
      ScheduleRestore(ev.duration, [this, a] {
        runtime_->network().SetNodePaused(a, false);
        trace_->Note(runtime_->scheduler().now(),
                     "heal: unpause n" + std::to_string(a.value()));
      });
      break;
    }
    case FaultKind::kLossBurst:
    case FaultKind::kJitterBurst: {
      const NodeId a(ev.a), b(ev.b);
      const sim::LinkParams prev = net.link_params(a, b);
      sim::LinkParams perturbed = prev;
      if (ev.kind == FaultKind::kLossBurst) {
        perturbed.loss = ev.loss;
      } else {
        perturbed.jitter += ev.jitter;
      }
      net.SetLink(a, b, perturbed);
      ScheduleRestore(ev.duration, [this, a, b, prev] {
        runtime_->network().SetLink(a, b, prev);
        trace_->Note(runtime_->scheduler().now(),
                     "heal: link n" + std::to_string(a.value()) + "<->n" +
                         std::to_string(b.value()) + " restored");
      });
      break;
    }
    case FaultKind::kLinkChurn: {
      const NodeId a(ev.a), b(ev.b);
      sim::LinkParams churned = net.link_params(a, b);
      churned.latency = ev.latency;
      churned.jitter = ev.jitter;
      net.SetLink(a, b, churned);  // permanent: no restore
      break;
    }
    case FaultKind::kSpoofBurst: {
      if (spoofer_ != nullptr) spoofer_->Burst(ev.a);
      break;
    }
    case FaultKind::kCrashRestart: {
      const NodeId a(ev.a);
      runtime_->CrashNode(a);
      ScheduleRestore(ev.duration, [this, a] {
        runtime_->RestartNode(a);
        trace_->Note(runtime_->scheduler().now(),
                     "heal: restart n" + std::to_string(a.value()));
      });
      break;
    }
  }
}

void Adversary::HealAll() {
  // Run restores that have not fired (their scheduled twin then no-ops).
  std::map<std::uint64_t, std::function<void()>> undos;
  undos.swap(active_undos_);
  for (auto& [token, fn] : undos) fn();
  // Belt and braces: a fully connected, unpaused world with every node
  // running (a crashed node restarts empty and resyncs).
  sim::Network& net = runtime_->network();
  net.ClearPartitions();
  const auto n = static_cast<std::uint32_t>(net.node_count());
  for (std::uint32_t node = 0; node < n; ++node) {
    net.SetNodePaused(NodeId(node), false);
    if (net.IsNodeCrashed(NodeId(node))) runtime_->RestartNode(NodeId(node));
  }
  trace_->Note(runtime_->scheduler().now(), "heal-all");
}

}  // namespace proxy::chaos
