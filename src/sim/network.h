// Simulated network.
//
// Nodes are connected by point-to-point links with configurable latency,
// bandwidth, jitter and loss. Delivery is store-and-forward: each
// directed link transmits one message at a time, so bandwidth contention
// and queueing delay emerge naturally. Same-node sends go through a
// loopback path with a small fixed cost (the "same machine, different
// context" case the lightweight-RPC experiment measures). Each datagram
// arrives as one scheduler event of its own, so deliveries follow the
// scheduler's (time, sequence) order like every other event.
//
// This is the substitute for the 1986 paper's real LAN (see DESIGN.md
// "Substitutions"): experiments sweep the link parameters instead of
// being pinned to one piece of 1986 hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/id.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/scheduler.h"

namespace proxy::sim {

/// Characteristics of one direction of a link.
struct LinkParams {
  SimDuration latency = Microseconds(100);  // propagation delay
  double bandwidth_bps = 10e6;              // 10 Mb/s: 1986-era Ethernet
  SimDuration jitter = 0;                   // uniform extra delay [0, jitter]
  double loss = 0.0;                        // drop probability per message
};

struct NetStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;   // loss or partition
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t loopback_messages = 0;
  std::uint64_t messages_held = 0;      // delayed by a paused node
  // Always 0, since every datagram is its own delivery event; kept only
  // because hostbench reads it.
  std::uint64_t messages_coalesced = 0;

  void Reset() { *this = NetStats{}; }
};

/// What happened to a message, as seen by the trace hook.
enum class NetTraceKind : std::uint8_t {
  kSend = 1,
  kDeliver = 2,
  kDropLoss = 3,
  kDropPartition = 4,
  kHold = 5,       // destination paused; queued for later delivery
  kRelease = 6,    // held message re-injected on unpause
  kCrash = 7,      // node crash-stopped (in-flight + held messages die)
  kRestart = 8,    // node came back empty
  kDropCrash = 9,  // message lost because an endpoint was crashed
};

class Network {
 public:
  /// Cost of the in-node loopback path: a fixed context switch plus a
  /// copy cost per KiB.
  static constexpr SimDuration kLoopbackFixed = Microseconds(5);
  static constexpr SimDuration kLoopbackPerKib = Microseconds(1);

  /// Called on message arrival at a node: (source node, destination port,
  /// payload). The net layer demultiplexes ports to endpoints.
  using DeliveryFn =
      std::function<void(NodeId from, PortId to_port, Bytes payload)>;

  Network(Scheduler& sched, std::uint64_t seed);

  /// Adds a node; returns its id. Ids are dense, starting at 0.
  NodeId AddNode(std::string name);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const std::string& node_name(NodeId id) const;

  /// Registers the receive hook for a node (one per node).
  void AttachReceiver(NodeId node, DeliveryFn fn);

  /// Sets the parameters for both directions of the (a, b) link.
  void SetLink(NodeId a, NodeId b, const LinkParams& params);

  /// Default used by node pairs without an explicit SetLink.
  void SetDefaultLink(const LinkParams& params) { default_link_ = params; }

  /// Cuts or heals connectivity between two nodes. While partitioned,
  /// messages are silently dropped (as on a real network).
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  [[nodiscard]] bool IsPartitioned(NodeId a, NodeId b) const;

  /// Drops every partition at once (the chaos harness's heal-all).
  void ClearPartitions() { partitioned_.clear(); }

  /// Pauses a node: arriving messages are held (in arrival order) instead
  /// of delivered, modeling a stalled process whose peers see silence.
  /// Unpausing re-injects the backlog at the current instant, one event
  /// per message — the burst of delayed delivery a real stall produces.
  void SetNodePaused(NodeId node, bool paused);

  /// Crash-stops a node: every in-flight message addressed to it is lost
  /// (even ones that would arrive after a restart — the old incarnation
  /// is gone), its held backlog is discarded, and new sends to/from it
  /// vanish silently. A message the node put on the wire before it
  /// crashed still arrives, as on a real link. Restarting clears the
  /// flag; the node rejoins with no memory of its past (crash-stop, then
  /// rejoin). Both transitions are traced so replay fingerprints cover
  /// them.
  void SetNodeCrashed(NodeId node, bool crashed);
  [[nodiscard]] bool IsNodeCrashed(NodeId node) const;

  /// Effective parameters of the (from, to) direction — the explicit
  /// SetLink value or the default. Lets fault injectors perturb a link
  /// and restore what was there before.
  [[nodiscard]] LinkParams link_params(NodeId from, NodeId to) const;

  /// Observation hook for every message event (send, deliver, drop,
  /// hold, release). Installed by the chaos trace recorder; unset in
  /// normal operation.
  using TraceHook = std::function<void(NetTraceKind, NodeId from, NodeId to,
                                       PortId to_port, std::size_t bytes)>;
  void SetTraceHook(TraceHook hook) { trace_hook_ = std::move(hook); }

  /// Queues `payload` for delivery to `to_port` on node `to`. Returns
  /// InvalidArgument for unknown nodes; loss and partition are *not*
  /// errors at the sender (datagram semantics).
  Status Send(NodeId from, NodeId to, PortId to_port, Bytes payload);

  [[nodiscard]] const NetStats& stats() const noexcept { return stats_; }

  [[nodiscard]] Scheduler& scheduler() noexcept { return *sched_; }

 private:
  struct DirectedLink {
    LinkParams params;
    SimTime busy_until = 0;  // store-and-forward serialization point
  };

  static std::uint64_t LinkKey(NodeId a, NodeId b) noexcept {
    return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
  }

  // A datagram on its way to its destination node: captured by the
  // event that delivers it, or held in a paused node's backlog. The
  // delivery closure (network, node, datagram) is 64 bytes, so it fits
  // the scheduler's inline callback storage.
  struct Datagram {
    NodeId from;
    PortId to_port;
    Bytes payload;
    std::uint64_t dest_incarnation;  // rechecked on arrival and release
    bool via_link;  // link messages re-check the partition on arrival
  };

  DirectedLink& LinkFor(NodeId from, NodeId to);
  /// Posts the one event that delivers `msg` to `to` at `arrival`.
  void ScheduleDelivery(NodeId to, SimTime arrival, Datagram msg);
  /// Runs the per-message arrival checks, then delivers.
  void Arrive(NodeId to, Datagram msg);
  /// Drops a message whose destination crashed, or restarted, since it
  /// was sent; true if it did.
  bool DroppedByCrash(NodeId to, const Datagram& msg);
  void Deliver(NodeId to, Datagram msg);
  void Trace(NetTraceKind kind, NodeId from, NodeId to, PortId to_port,
             std::size_t bytes) {
    if (trace_hook_) trace_hook_(kind, from, to, to_port, bytes);
  }

  Scheduler* sched_;
  Rng rng_;
  LinkParams default_link_;
  std::vector<std::string> nodes_;
  std::vector<DeliveryFn> receivers_;
  std::unordered_map<std::uint64_t, DirectedLink> links_;
  std::unordered_map<std::uint64_t, bool> partitioned_;  // undirected key
  std::unordered_map<std::uint32_t, std::vector<Datagram>> paused_;
  std::vector<bool> crashed_;
  // Bumped on every crash; a message captures its destination's value at
  // send time and is dropped on arrival if it no longer matches, so mail
  // addressed to a dead incarnation never reaches the restarted node.
  std::vector<std::uint64_t> incarnation_;
  NetStats stats_;
  TraceHook trace_hook_;
};

}  // namespace proxy::sim
