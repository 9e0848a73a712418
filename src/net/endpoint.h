// Datagram endpoints.
//
// A NodeStack is the per-node network stack: it owns the node's receive
// hook on the simulated Network and demultiplexes incoming datagrams to
// Endpoints by port. An Endpoint is an unreliable, unordered datagram
// socket: messages may be lost, duplicated (by retransmitting layers
// above) or reordered (by link jitter). Reliability is layered above, by
// the RPC runtime's retry/dedup logic.
//
// Each datagram is wrapped in the serde envelope (magic/version/CRC) plus
// a source-port header, so receivers can reply and corrupted traffic is
// rejected at this boundary.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "common/bytes.h"
#include "common/status.h"
#include "net/address.h"
#include "sim/network.h"

namespace proxy::net {

class NodeStack;

class Endpoint {
 public:
  /// Receives the datagram body as an OwnedBytes window of the arrival
  /// buffer: the envelope and source-port header have been stripped by
  /// narrowing, not copying. The handler owns the buffer from here —
  /// decode may borrow views of it for as long as it is kept alive.
  using Handler = std::function<void(const Address& from, OwnedBytes payload)>;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] Address address() const noexcept { return addr_; }

  /// The scheduler driving this endpoint's node.
  [[nodiscard]] sim::Scheduler& scheduler() noexcept;

  /// Installs the receive handler (one per endpoint).
  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  /// Sends `payload` as one datagram. The bytes are checksummed where
  /// they lie and copied once, straight into the datagram; the caller
  /// keeps its buffer (the RPC layer resends from it). Returns an error
  /// only for local misuse (unknown destination node, oversized
  /// payload); loss in transit is silent.
  Status Send(const Address& to, BytesView payload);

  /// Maximum payload accepted by Send.
  static constexpr std::size_t kMaxPayload = 1 << 20;  // 1 MiB

 private:
  friend class NodeStack;
  Endpoint(NodeStack& stack, Address addr) : stack_(&stack), addr_(addr) {}

  void Deliver(const Address& from, OwnedBytes payload) {
    if (handler_) handler_(from, std::move(payload));
  }

  NodeStack* stack_;
  Address addr_;
  Handler handler_;
};

class NodeStack {
 public:
  NodeStack(sim::Network& network, NodeId node);
  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] sim::Network& network() noexcept { return *network_; }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept {
    return network_->scheduler();
  }

  /// Opens an endpoint on an explicit port. Returns null if taken.
  Endpoint* OpenEndpoint(PortId port);

  /// Opens an endpoint on the next free ephemeral port.
  Endpoint* OpenEphemeral();

  void CloseEndpoint(PortId port);

  /// Datagrams that failed envelope validation (corruption, truncation).
  [[nodiscard]] std::uint64_t rejected_datagrams() const noexcept {
    return rejected_;
  }

 private:
  friend class Endpoint;

  Status SendFrom(const Address& from, const Address& to, BytesView payload);
  void OnNetworkDeliver(NodeId from_node, PortId to_port, Bytes framed);

  sim::Network* network_;
  NodeId node_;
  std::uint32_t next_ephemeral_ = 0x8000;
  std::uint64_t rejected_ = 0;
  std::unordered_map<PortId, std::unique_ptr<Endpoint>> endpoints_;
};

inline sim::Scheduler& Endpoint::scheduler() noexcept {
  return stack_->scheduler();
}

}  // namespace proxy::net
