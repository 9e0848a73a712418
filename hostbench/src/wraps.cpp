// Layer entry points intercepted in the traced link.
//
// Each wrapper below is linked as __wrap_<symbol> with -Wl,--wrap=<symbol>
// (CMakeLists.txt reads the list from the HB_SYMBOL("__wrap_", ...) labels
// in this file), so every call into the symbol from another object file
// passes through it. A wrapper opens a ledger span, calls the real
// function through its __real_ alias and closes the span. Calls a library
// makes to itself inside one object file bypass --wrap; the ledger's
// event phases cover that time instead (see ledger.h).
//
// The __real_ references are weak: if a later change renames or re-types
// an entry point, this link still succeeds, the wrapper is simply never
// called, and the benchmark reports the entry point as unlinked.
#include <utility>

#include "ledger.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "serde/message.h"
#include "serde/writer.h"
#include "sim/network.h"
#include "sim/scheduler.h"

#define HB_SYMBOL(prefix, mangled) asm(prefix #mangled)

using namespace proxy;  // NOLINT
namespace ledger = hostbench::ledger;
using ledger::Entry;

namespace {

class Scope {
 public:
  explicit Scope(Entry entry) { ledger::Begin(entry); }
  ~Scope() { ledger::End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

}  // namespace

// --- sim ---

__attribute__((weak)) void RealSchedulerCtor(sim::Scheduler* self)
    HB_SYMBOL("__real_", _ZN5proxy3sim9SchedulerC1Ev);
void WrapSchedulerCtor(sim::Scheduler* self)
    HB_SYMBOL("__wrap_", _ZN5proxy3sim9SchedulerC1Ev);
void WrapSchedulerCtor(sim::Scheduler* self) {
  ledger::OnSchedulerCreated();
  RealSchedulerCtor(self);
}

__attribute__((weak)) std::uint32_t RealSchedulerEnqueue(sim::Scheduler* self,
                                                         SimTime t)
    HB_SYMBOL("__real_", _ZN5proxy3sim9Scheduler7EnqueueEm);
std::uint32_t WrapSchedulerEnqueue(sim::Scheduler* self, SimTime t)
    HB_SYMBOL("__wrap_", _ZN5proxy3sim9Scheduler7EnqueueEm);
std::uint32_t WrapSchedulerEnqueue(sim::Scheduler* self, SimTime t) {
  ledger::OnEnqueue(t);
  return RealSchedulerEnqueue(self, t);
}

__attribute__((weak)) bool RealSchedulerStep(sim::Scheduler* self)
    HB_SYMBOL("__real_", _ZN5proxy3sim9Scheduler4StepEv);
bool WrapSchedulerStep(sim::Scheduler* self)
    HB_SYMBOL("__wrap_", _ZN5proxy3sim9Scheduler4StepEv);
bool WrapSchedulerStep(sim::Scheduler* self) {
  Scope span(Entry::kSchedulerStep);
  const bool ran = RealSchedulerStep(self);
  ledger::CloseEvent();
  return ran;
}

__attribute__((weak)) Status RealNetworkSend(sim::Network* self, NodeId from,
                                             NodeId to, PortId port,
                                             Bytes payload)
    HB_SYMBOL("__real_", _ZN5proxy3sim7Network4SendENS_6detail8StrongIdINS_7NodeTagEjEES5_NS3_INS_7PortTagEjEESt6vectorIhSaIhEE);
Status WrapNetworkSend(sim::Network* self, NodeId from, NodeId to, PortId port,
                       Bytes payload)
    HB_SYMBOL("__wrap_", _ZN5proxy3sim7Network4SendENS_6detail8StrongIdINS_7NodeTagEjEES5_NS3_INS_7PortTagEjEESt6vectorIhSaIhEE);
Status WrapNetworkSend(sim::Network* self, NodeId from, NodeId to, PortId port,
                       Bytes payload) {
  Scope span(Entry::kNetworkSend);
  return RealNetworkSend(self, from, to, port, std::move(payload));
}

// --- net ---

__attribute__((weak)) Status RealEndpointSend(net::Endpoint* self,
                                              const net::Address& to,
                                              Bytes payload)
    HB_SYMBOL("__real_", _ZN5proxy3net8Endpoint4SendERKNS0_7AddressESt6vectorIhSaIhEE);
Status WrapEndpointSend(net::Endpoint* self, const net::Address& to,
                        Bytes payload)
    HB_SYMBOL("__wrap_", _ZN5proxy3net8Endpoint4SendERKNS0_7AddressESt6vectorIhSaIhEE);
Status WrapEndpointSend(net::Endpoint* self, const net::Address& to,
                        Bytes payload) {
  Scope span(Entry::kEndpointSend);
  return RealEndpointSend(self, to, std::move(payload));
}

// --- rpc.client ---

__attribute__((weak)) sim::Future<rpc::RpcResult> RealRpcClientCall(
    rpc::RpcClient* self, const net::Address& to, ObjectId object,
    std::uint32_t method, Bytes args, const rpc::CallOptions& options)
    HB_SYMBOL("__real_", _ZN5proxy3rpc9RpcClient4CallERKNS_3net7AddressENS_8ObjectIdEjSt6vectorIhSaIhEERKNS0_11CallOptionsE);
sim::Future<rpc::RpcResult> WrapRpcClientCall(
    rpc::RpcClient* self, const net::Address& to, ObjectId object,
    std::uint32_t method, Bytes args, const rpc::CallOptions& options)
    HB_SYMBOL("__wrap_", _ZN5proxy3rpc9RpcClient4CallERKNS_3net7AddressENS_8ObjectIdEjSt6vectorIhSaIhEERKNS0_11CallOptionsE);
sim::Future<rpc::RpcResult> WrapRpcClientCall(
    rpc::RpcClient* self, const net::Address& to, ObjectId object,
    std::uint32_t method, Bytes args, const rpc::CallOptions& options) {
  Scope span(Entry::kRpcClientCall);
  return RealRpcClientCall(self, to, object, method, std::move(args), options);
}

// --- serde: frames ---

__attribute__((weak)) Bytes RealEncodeRequestMove(rpc::RequestFrame&& frame)
    HB_SYMBOL("__real_", _ZN5proxy3rpc13EncodeRequestEONS0_12RequestFrameE);
Bytes WrapEncodeRequestMove(rpc::RequestFrame&& frame)
    HB_SYMBOL("__wrap_", _ZN5proxy3rpc13EncodeRequestEONS0_12RequestFrameE);
Bytes WrapEncodeRequestMove(rpc::RequestFrame&& frame) {
  Scope span(Entry::kEncodeRequest);
  ledger::NoteRequest(frame.call.client_nonce, frame.call.seq);
  return RealEncodeRequestMove(std::move(frame));
}

__attribute__((weak)) Bytes RealEncodeRequestCopy(
    const rpc::RequestFrame& frame)
    HB_SYMBOL("__real_", _ZN5proxy3rpc13EncodeRequestERKNS0_12RequestFrameE);
Bytes WrapEncodeRequestCopy(const rpc::RequestFrame& frame)
    HB_SYMBOL("__wrap_", _ZN5proxy3rpc13EncodeRequestERKNS0_12RequestFrameE);
Bytes WrapEncodeRequestCopy(const rpc::RequestFrame& frame) {
  Scope span(Entry::kEncodeRequest);
  ledger::NoteRequest(frame.call.client_nonce, frame.call.seq);
  return RealEncodeRequestCopy(frame);
}

__attribute__((weak)) Bytes RealEncodeReplyMove(rpc::ReplyFrame&& frame)
    HB_SYMBOL("__real_", _ZN5proxy3rpc11EncodeReplyEONS0_10ReplyFrameE);
Bytes WrapEncodeReplyMove(rpc::ReplyFrame&& frame)
    HB_SYMBOL("__wrap_", _ZN5proxy3rpc11EncodeReplyEONS0_10ReplyFrameE);
Bytes WrapEncodeReplyMove(rpc::ReplyFrame&& frame) {
  Scope span(Entry::kEncodeReply);
  return RealEncodeReplyMove(std::move(frame));
}

__attribute__((weak)) Bytes RealEncodeReplyCopy(const rpc::ReplyFrame& frame)
    HB_SYMBOL("__real_", _ZN5proxy3rpc11EncodeReplyERKNS0_10ReplyFrameE);
Bytes WrapEncodeReplyCopy(const rpc::ReplyFrame& frame)
    HB_SYMBOL("__wrap_", _ZN5proxy3rpc11EncodeReplyERKNS0_10ReplyFrameE);
Bytes WrapEncodeReplyCopy(const rpc::ReplyFrame& frame) {
  Scope span(Entry::kEncodeReply);
  return RealEncodeReplyCopy(frame);
}

__attribute__((weak)) Result<rpc::RequestFrameView> RealDecodeRequestView(
    BytesView data)
    HB_SYMBOL("__real_", _ZN5proxy3rpc17DecodeRequestViewESt4spanIKhLm18446744073709551615EE);
Result<rpc::RequestFrameView> WrapDecodeRequestView(BytesView data)
    HB_SYMBOL("__wrap_", _ZN5proxy3rpc17DecodeRequestViewESt4spanIKhLm18446744073709551615EE);
Result<rpc::RequestFrameView> WrapDecodeRequestView(BytesView data) {
  Scope span(Entry::kDecodeRequest);
  return RealDecodeRequestView(data);
}

__attribute__((weak)) Result<rpc::ReplyFrame> RealDecodeReply(BytesView data)
    HB_SYMBOL("__real_", _ZN5proxy3rpc11DecodeReplyESt4spanIKhLm18446744073709551615EE);
Result<rpc::ReplyFrame> WrapDecodeReply(BytesView data)
    HB_SYMBOL("__wrap_", _ZN5proxy3rpc11DecodeReplyESt4spanIKhLm18446744073709551615EE);
Result<rpc::ReplyFrame> WrapDecodeReply(BytesView data) {
  Result<rpc::ReplyFrame> reply = [&] {
    Scope span(Entry::kDecodeReply);
    return RealDecodeReply(data);
  }();
  if (reply.ok()) ledger::NoteReply(reply->call.client_nonce, reply->call.seq);
  return reply;
}

// --- serde: CRC envelope ---

__attribute__((weak)) Bytes RealWrapEnvelope(serde::Writer&& payload)
    HB_SYMBOL("__real_", _ZN5proxy5serde12WrapEnvelopeEONS0_6WriterE);
Bytes WrapWrapEnvelope(serde::Writer&& payload)
    HB_SYMBOL("__wrap_", _ZN5proxy5serde12WrapEnvelopeEONS0_6WriterE);
Bytes WrapWrapEnvelope(serde::Writer&& payload) {
  Scope span(Entry::kWrapEnvelope);
  Bytes framed = RealWrapEnvelope(std::move(payload));
  ledger::AddBytes(Entry::kWrapEnvelope, framed.size());
  return framed;
}

__attribute__((weak)) Result<BytesView> RealUnwrapEnvelopeView(
    BytesView framed)
    HB_SYMBOL("__real_", _ZN5proxy5serde18UnwrapEnvelopeViewESt4spanIKhLm18446744073709551615EE);
Result<BytesView> WrapUnwrapEnvelopeView(BytesView framed)
    HB_SYMBOL("__wrap_", _ZN5proxy5serde18UnwrapEnvelopeViewESt4spanIKhLm18446744073709551615EE);
Result<BytesView> WrapUnwrapEnvelopeView(BytesView framed) {
  Scope span(Entry::kUnwrapEnvelope);
  ledger::AddBytes(Entry::kUnwrapEnvelope, framed.size());
  return RealUnwrapEnvelopeView(framed);
}

// --- obs ---

__attribute__((weak)) void RealHistogramRecord(obs::Histogram* self,
                                               std::uint64_t value)
    HB_SYMBOL("__real_", _ZN5proxy3obs9Histogram6RecordEm);
void WrapHistogramRecord(obs::Histogram* self, std::uint64_t value)
    HB_SYMBOL("__wrap_", _ZN5proxy3obs9Histogram6RecordEm);
void WrapHistogramRecord(obs::Histogram* self, std::uint64_t value) {
  Scope span(Entry::kHistogramRecord);
  RealHistogramRecord(self, value);
}

__attribute__((weak)) obs::TraceContext RealSpanBegin(
    obs::SpanRecorder* self, const obs::TraceContext& parent, std::string name,
    SimTime at)
    HB_SYMBOL("__real_", _ZN5proxy3obs12SpanRecorder5BeginERKNS0_12TraceContextENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm);
obs::TraceContext WrapSpanBegin(obs::SpanRecorder* self,
                                const obs::TraceContext& parent,
                                std::string name, SimTime at)
    HB_SYMBOL("__wrap_", _ZN5proxy3obs12SpanRecorder5BeginERKNS0_12TraceContextENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm);
obs::TraceContext WrapSpanBegin(obs::SpanRecorder* self,
                                const obs::TraceContext& parent,
                                std::string name, SimTime at) {
  Scope span(Entry::kSpanBegin);
  return RealSpanBegin(self, parent, std::move(name), at);
}

__attribute__((weak)) void RealSpanEnd(obs::SpanRecorder* self,
                                       const obs::TraceContext& span,
                                       SimTime at, const Status& status)
    HB_SYMBOL("__real_", _ZN5proxy3obs12SpanRecorder3EndERKNS0_12TraceContextEmRKNS_6StatusE);
void WrapSpanEnd(obs::SpanRecorder* self, const obs::TraceContext& span,
                 SimTime at, const Status& status)
    HB_SYMBOL("__wrap_", _ZN5proxy3obs12SpanRecorder3EndERKNS0_12TraceContextEmRKNS_6StatusE);
void WrapSpanEnd(obs::SpanRecorder* self, const obs::TraceContext& span,
                 SimTime at, const Status& status) {
  Scope scope(Entry::kSpanEnd);
  RealSpanEnd(self, span, at, status);
}

__attribute__((weak)) void RealSpanAnnotate(obs::SpanRecorder* self,
                                            const obs::TraceContext& span,
                                            SimTime at, std::string note)
    HB_SYMBOL("__real_", _ZN5proxy3obs12SpanRecorder8AnnotateERKNS0_12TraceContextEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE);
void WrapSpanAnnotate(obs::SpanRecorder* self, const obs::TraceContext& span,
                      SimTime at, std::string note)
    HB_SYMBOL("__wrap_", _ZN5proxy3obs12SpanRecorder8AnnotateERKNS0_12TraceContextEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE);
void WrapSpanAnnotate(obs::SpanRecorder* self, const obs::TraceContext& span,
                      SimTime at, std::string note) {
  Scope scope(Entry::kSpanAnnotate);
  RealSpanAnnotate(self, span, at, std::move(note));
}

namespace hostbench::ledger {

bool WrapsLinked() { return true; }

bool EntryLinked(Entry entry) {
  switch (entry) {
    case Entry::kEvent:
    case Entry::kSchedulerStep:
      return &RealSchedulerStep != nullptr &&
             &RealSchedulerEnqueue != nullptr &&
             &RealSchedulerCtor != nullptr;
    case Entry::kNetworkSend:
      return &RealNetworkSend != nullptr;
    case Entry::kRpcClientCall:
      return &RealRpcClientCall != nullptr;
    case Entry::kEncodeRequest:
      return &RealEncodeRequestMove != nullptr;
    case Entry::kEncodeReply:
      return &RealEncodeReplyMove != nullptr;
    case Entry::kDecodeRequest:
      return &RealDecodeRequestView != nullptr;
    case Entry::kDecodeReply:
      return &RealDecodeReply != nullptr;
    case Entry::kWrapEnvelope:
      return &RealWrapEnvelope != nullptr;
    case Entry::kUnwrapEnvelope:
      return &RealUnwrapEnvelopeView != nullptr;
    case Entry::kEndpointSend:
      return &RealEndpointSend != nullptr;
    case Entry::kHistogramRecord:
      return &RealHistogramRecord != nullptr;
    case Entry::kSpanBegin:
      return &RealSpanBegin != nullptr;
    case Entry::kSpanEnd:
      return &RealSpanEnd != nullptr;
    case Entry::kSpanAnnotate:
      return &RealSpanAnnotate != nullptr;
    case Entry::kCount:
      break;
  }
  return false;
}

}  // namespace hostbench::ledger
