// Rule L3: distribution protocol touched outside the transport / proxy
// layers. Analyzed under a virtual src/services/ path (L3 is path
// scoped); the same bytes under tests/ must report nothing.
// Not compiled — exercised by proxy_lint_test only.
#include "rpc/client.h"

namespace services {

void Sideband::Connect(core::Context& ctx) {
  auto client = std::make_unique<rpc::RpcClient>(ctx.endpoint());  // MARK:l3-client
  rpc::RequestFrame req;
  req.method = 7;
  Bytes wire = rpc::EncodeRequest(std::move(req));  // MARK:l3-frame
  ctx.network().Send(self_, peer_, kRpcPort, wire);  // MARK:l3-send
}

void Sideband::OnArrival(BytesView datagram) {
  auto request = rpc::DecodeRequestView(datagram);  // MARK:l3-decode
  if (request.ok()) last_method_ = request->method;
}

}  // namespace services
