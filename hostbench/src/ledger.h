// Host-cost ledger: a counting allocator plus a span stack that charges
// host time and heap allocations to the layer that spent them.
//
// Spans open only at calls the benchmark can see from its own files: the
// traced link (wraps.cpp) wraps each layer's out-of-line entry points,
// and the benchmark's load generator marks where it hands control to a
// proxy. Time is read from the TSC and converted to ns per run.
//
// Self time of a span is its duration minus its child spans. A scheduler
// event is a span too, but its own code belongs to whoever posted it, so
// its self time is charged to a *phase* layer that moves as the event runs:
//
//   * an event starts in the layer that posted it: a datagram delivery
//     (posted inside sim::Network::Send) in net, a timer posted inside
//     RpcClient::Call in rpc.client, a coroutine continuation in the layer
//     whose code posted it, and the continuation a reply completes in the
//     layer that issued that call;
//   * UnwrapEnvelopeView moves it to net, DecodeRequestView and EncodeReply
//     to rpc.server, DecodeReply to rpc.client;
//   * the benchmark's load generator moves it to proxy (or cache) just
//     before it awaits an operation, and back to none after.
//
// Time and allocations in phase none, and outside every span, are the
// unattributed remainder. Everything here is single-threaded, like the
// simulator, and allocates nothing after Reserve().
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace hostbench::ledger {

enum class Layer : std::uint8_t {
  kNone,  // unattributed
  kProxy,
  kCache,
  kRpcClient,
  kSerde,
  kNet,
  kSim,
  kRpcServer,  // includes the handlers it runs (services)
  kObs,
  kCount,
};

enum class Entry : std::uint8_t {
  kEvent,  // one scheduler event's callback (phase layer)
  kSchedulerStep,
  kNetworkSend,
  kRpcClientCall,
  kEncodeRequest,
  kEncodeReply,
  kDecodeRequest,
  kDecodeReply,
  kWrapEnvelope,
  kUnwrapEnvelope,
  kEndpointSend,
  kHistogramRecord,
  kSpanBegin,
  kSpanEnd,
  kSpanAnnotate,
  kCount,
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
constexpr std::size_t kEntries = static_cast<std::size_t>(Entry::kCount);

const char* LayerName(Layer layer);
const char* EntryName(Entry entry);

struct EntryStats {
  std::uint64_t calls = 0;
  std::uint64_t self_ticks = 0;
  std::uint64_t bytes = 0;  // envelope entries: datagram bytes handled
};

struct LayerStats {
  std::uint64_t self_ticks = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

/// Everything one traced interval accumulated.
struct Tally {
  EntryStats entries[kEntries];
  LayerStats layers[kLayers];
  std::uint64_t top_level_ticks = 0;  // sum of outermost span durations
  std::uint64_t events_by_origin[kLayers] = {};
  std::uint64_t origin_misses = 0;    // events whose post was not seen
};

/// Process-wide allocation counters (always on, both links).
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
AllocCount Allocations();

/// True in the traced link (wraps.cpp), false in the plain one.
bool WrapsLinked();

/// Per-entry-point link status for the traced link: false when the
/// symbol of a wrapped entry point no longer exists in the libraries.
bool EntryLinked(Entry entry);

/// Starts/stops attribution. Reset() clears the tally.
void SetEnabled(bool on);
void Reset();
const Tally& Current();

/// TSC ticks.
std::uint64_t Now();

// --- span stack (wraps.cpp and the Step hook) ---
void Begin(Entry entry);
void End();
void AddBytes(Entry entry, std::uint64_t n);

/// Scheduler hooks: a new scheduler restarts event numbering; every post
/// is classified by the layer that made it; every executed event opens
/// an event span in its poster's layer.
void OnSchedulerCreated();
void OnEnqueue(std::uint64_t time);
void OnEvent(std::uint64_t time, std::uint64_t seq);
void CloseEvent();

/// Reply routing: a request's issuing layer is remembered by call id,
/// so the continuation its reply completes is charged back to it.
void NoteRequest(std::uint64_t nonce, std::uint64_t seq);
void NoteReply(std::uint64_t nonce, std::uint64_t seq);

/// Load-generator marker: the running event's code belongs to `layer` from here.
/// No-op unless tracing is on and an event is running.
void SetPhase(Layer layer);

// --- span records, kept in preallocated memory and written at exit ---
void RecordSpans(bool on);
void WriteSpans(std::FILE* out, double ns_per_tick);

/// Preallocates the span-record buffer (call before measuring).
void Reserve();

}  // namespace hostbench::ledger
