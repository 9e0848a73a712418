#include "net/endpoint.h"

#include "common/log.h"
#include "serde/message.h"
#include "serde/reader.h"
#include "serde/wire.h"

namespace proxy::net {

Status Endpoint::Send(const Address& to, BytesView payload) {
  return stack_->SendFrom(addr_, to, payload);
}

NodeStack::NodeStack(sim::Network& network, NodeId node)
    : network_(&network), node_(node) {
  network_->AttachReceiver(
      node, [this](NodeId from, PortId to_port, Bytes framed) {
        OnNetworkDeliver(from, to_port, std::move(framed));
      });
}

Endpoint* NodeStack::OpenEndpoint(PortId port) {
  auto [it, inserted] = endpoints_.try_emplace(port);
  if (!inserted) return nullptr;
  it->second.reset(new Endpoint(*this, Address{node_, port}));
  return it->second.get();
}

Endpoint* NodeStack::OpenEphemeral() {
  for (;;) {
    const PortId port(next_ephemeral_++);
    if (auto* ep = OpenEndpoint(port)) return ep;
  }
}

void NodeStack::CloseEndpoint(PortId port) { endpoints_.erase(port); }

Status NodeStack::SendFrom(const Address& from, const Address& to,
                           BytesView payload) {
  if (payload.size() > Endpoint::kMaxPayload) {
    return ResourceExhaustedError("datagram exceeds max payload");
  }
  // Header: the source port, then the payload, inside a CRC envelope
  // that checksums both in place and copies them once, into the
  // datagram.
  std::uint8_t port[serde::kMaxVarintBytes];
  const std::size_t port_len = serde::EncodeVarint(from.port.value(), port);
  return network_->Send(
      from.node, to.node, to.port,
      serde::WrapEnvelope(BytesView(port, port_len), payload));
}

void NodeStack::OnNetworkDeliver(NodeId from_node, PortId to_port,
                                 Bytes framed) {
  // Validate and strip the envelope + source-port header by narrowing
  // the arrival buffer; the body is never copied on this path.
  auto unwrapped = serde::UnwrapEnvelopeView(View(framed));
  if (!unwrapped.ok()) {
    ++rejected_;
    PROXY_LOG(kDebug, scheduler().now(), "net",
              "rejected datagram on node " << node_.value() << ": "
                                           << unwrapped.status().ToString());
    return;
  }
  serde::Reader r(*unwrapped);
  std::uint64_t src_port = 0;
  if (!r.ReadVarint(src_port).ok() || src_port > 0xffffffffULL) {
    ++rejected_;
    return;
  }
  BytesView body;
  if (!r.ReadRaw(r.remaining(), body).ok()) {
    ++rejected_;
    return;
  }
  const auto it = endpoints_.find(to_port);
  if (it == endpoints_.end()) {
    PROXY_LOG(kTrace, scheduler().now(), "net",
              "no endpoint on port " << to_port.value() << "; dropping");
    return;
  }
  const Address from{from_node, PortId(static_cast<std::uint32_t>(src_port))};
  OwnedBytes arena(std::move(framed));
  arena.Narrow(body);
  it->second->Deliver(from, std::move(arena));
}

}  // namespace proxy::net
