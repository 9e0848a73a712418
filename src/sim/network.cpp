#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.h"

namespace proxy::sim {

Network::Network(Scheduler& sched, std::uint64_t seed)
    : sched_(&sched), rng_(seed) {}

NodeId Network::AddNode(std::string name) {
  const NodeId id(static_cast<std::uint32_t>(nodes_.size()));
  nodes_.push_back(std::move(name));
  receivers_.emplace_back();
  crashed_.push_back(false);
  incarnation_.push_back(0);
  return id;
}

const std::string& Network::node_name(NodeId id) const {
  assert(id.value() < nodes_.size());
  return nodes_[id.value()];
}

void Network::AttachReceiver(NodeId node, DeliveryFn fn) {
  assert(node.value() < receivers_.size());
  receivers_[node.value()] = std::move(fn);
}

void Network::SetLink(NodeId a, NodeId b, const LinkParams& params) {
  links_[LinkKey(a, b)].params = params;
  links_[LinkKey(b, a)].params = params;
}

void Network::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  const auto key = LinkKey(NodeId(std::min(a.value(), b.value())),
                           NodeId(std::max(a.value(), b.value())));
  partitioned_[key] = partitioned;
}

bool Network::IsPartitioned(NodeId a, NodeId b) const {
  const auto key = LinkKey(NodeId(std::min(a.value(), b.value())),
                           NodeId(std::max(a.value(), b.value())));
  const auto it = partitioned_.find(key);
  return it != partitioned_.end() && it->second;
}

void Network::SetNodePaused(NodeId node, bool paused) {
  if (paused) {
    paused_.try_emplace(node.value());
    return;
  }
  const auto it = paused_.find(node.value());
  if (it == paused_.end()) return;
  std::vector<Datagram> backlog = std::move(it->second);
  paused_.erase(it);
  // Re-inject the backlog in arrival order at the current instant: the
  // stalled process wakes up and drains everything at once — unless it
  // crashed (and perhaps restarted) at this instant before the release
  // ran, like any other arrival.
  for (auto& held : backlog) {
    sched_
        ->Post([this, node, held = std::move(held)]() mutable {
          Trace(NetTraceKind::kRelease, held.from, node, held.to_port,
                held.payload.size());
          if (!DroppedByCrash(node, held)) Deliver(node, std::move(held));
        })
        .Detach();
  }
}

void Network::SetNodeCrashed(NodeId node, bool crashed) {
  assert(node.value() < nodes_.size());
  if (crashed_[node.value()] == crashed) return;
  crashed_[node.value()] = crashed;
  if (crashed) {
    incarnation_[node.value()]++;
    // Any backlog held for a paused node dies with the process.
    paused_.erase(node.value());
    Trace(NetTraceKind::kCrash, node, node, PortId(0), 0);
    PROXY_LOG(kDebug, sched_->now(), "net", "crash " << node_name(node));
  } else {
    Trace(NetTraceKind::kRestart, node, node, PortId(0), 0);
    PROXY_LOG(kDebug, sched_->now(), "net", "restart " << node_name(node));
  }
}

bool Network::IsNodeCrashed(NodeId node) const {
  return node.value() < crashed_.size() && crashed_[node.value()];
}

LinkParams Network::link_params(NodeId from, NodeId to) const {
  const auto it = links_.find(LinkKey(from, to));
  return it == links_.end() ? default_link_ : it->second.params;
}

Network::DirectedLink& Network::LinkFor(NodeId from, NodeId to) {
  auto [it, inserted] = links_.try_emplace(LinkKey(from, to));
  if (inserted) it->second.params = default_link_;
  return it->second;
}

Status Network::Send(NodeId from, NodeId to, PortId to_port, Bytes payload) {
  if (from.value() >= nodes_.size() || to.value() >= nodes_.size()) {
    return InvalidArgumentError("send to/from unknown node");
  }
  stats_.messages_sent++;
  stats_.bytes_sent += payload.size();
  Trace(NetTraceKind::kSend, from, to, to_port, payload.size());

  if (crashed_[from.value()] || crashed_[to.value()]) {
    stats_.messages_dropped++;
    Trace(NetTraceKind::kDropCrash, from, to, to_port, payload.size());
    return Status::Ok();  // datagram semantics: sender does not learn
  }
  const std::uint64_t dest_incarnation = incarnation_[to.value()];

  if (from == to) {
    // Loopback: fixed context-switch cost plus a copy cost per KiB.
    stats_.loopback_messages++;
    const SimDuration delay =
        kLoopbackFixed + kLoopbackPerKib * (payload.size() / 1024);
    ScheduleDelivery(to, sched_->now() + delay,
                     Datagram{from, to_port, std::move(payload),
                              dest_incarnation, /*via_link=*/false});
    return Status::Ok();
  }

  if (IsPartitioned(from, to)) {
    stats_.messages_dropped++;
    Trace(NetTraceKind::kDropPartition, from, to, to_port, payload.size());
    PROXY_LOG(kTrace, sched_->now(), "net",
              "drop (partition) " << node_name(from) << "->" << node_name(to));
    return Status::Ok();  // datagram semantics: sender does not learn
  }

  DirectedLink& link = LinkFor(from, to);
  if (rng_.Chance(link.params.loss)) {
    stats_.messages_dropped++;
    Trace(NetTraceKind::kDropLoss, from, to, to_port, payload.size());
    PROXY_LOG(kTrace, sched_->now(), "net",
              "drop (loss) " << node_name(from) << "->" << node_name(to));
    return Status::Ok();
  }

  // Store-and-forward: the link transmits one message at a time.
  const double bits = static_cast<double>(payload.size()) * 8.0;
  const auto transmit = static_cast<SimDuration>(
      bits / link.params.bandwidth_bps * 1e9);
  const SimTime start = std::max(sched_->now(), link.busy_until);
  link.busy_until = start + transmit;
  const SimDuration jitter =
      link.params.jitter == 0
          ? 0
          : rng_.UniformU64(link.params.jitter + 1);
  const SimTime arrival = link.busy_until + link.params.latency + jitter;

  ScheduleDelivery(to, arrival,
                   Datagram{from, to_port, std::move(payload),
                            dest_incarnation, /*via_link=*/true});
  return Status::Ok();
}

void Network::ScheduleDelivery(NodeId to, SimTime arrival, Datagram msg) {
  auto deliver = [this, to, msg = std::move(msg)]() mutable {
    Arrive(to, std::move(msg));
  };
  static_assert(sizeof(deliver) <= detail::InlineCallback::kInlineBytes,
                "a delivery event must not heap-allocate its closure");
  sched_->PostAt(arrival, std::move(deliver)).Detach();
}

void Network::Arrive(NodeId to, Datagram msg) {
  // A partition raised while in flight also eats the message.
  if (msg.via_link && IsPartitioned(msg.from, to)) {
    stats_.messages_dropped++;
    Trace(NetTraceKind::kDropPartition, msg.from, to, msg.to_port,
          msg.payload.size());
    return;
  }
  // So does a crash of the destination: mail addressed to a dead
  // incarnation is lost even if the node restarted in the meantime.
  if (!DroppedByCrash(to, msg)) Deliver(to, std::move(msg));
}

bool Network::DroppedByCrash(NodeId to, const Datagram& msg) {
  if (!crashed_[to.value()] &&
      incarnation_[to.value()] == msg.dest_incarnation) {
    return false;
  }
  stats_.messages_dropped++;
  Trace(NetTraceKind::kDropCrash, msg.from, to, msg.to_port,
        msg.payload.size());
  return true;
}

void Network::Deliver(NodeId to, Datagram msg) {
  if (const auto it = paused_.find(to.value()); it != paused_.end()) {
    stats_.messages_held++;
    Trace(NetTraceKind::kHold, msg.from, to, msg.to_port, msg.payload.size());
    it->second.push_back(std::move(msg));
    return;
  }
  stats_.messages_delivered++;
  stats_.bytes_delivered += msg.payload.size();
  Trace(NetTraceKind::kDeliver, msg.from, to, msg.to_port,
        msg.payload.size());
  auto& receiver = receivers_[to.value()];
  if (!receiver) {
    PROXY_LOG(kDebug, sched_->now(), "net",
              "no receiver attached on " << node_name(to) << "; dropping");
    return;
  }
  receiver(msg.from, msg.to_port, std::move(msg.payload));
}

}  // namespace proxy::sim
