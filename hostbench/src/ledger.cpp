#include "ledger.h"

#include <x86intrin.h>

#include <cstdlib>
#include <new>

namespace hostbench::ledger {

namespace {

struct Frame {
  Entry entry;
  Layer layer;
  Layer resume;          // event in rpc.client phase: issuer of the reply
  std::uint64_t start;
  std::uint64_t mark;    // self time accrues from here
  std::uint32_t record;  // index into the span records, or kNoRecord
};

constexpr std::size_t kMaxDepth = 64;
constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;

// Event numbering mirrors sim::Scheduler's monotonic sequence: one post,
// one number, starting at 1 for each new scheduler.
constexpr std::size_t kOriginSlots = std::size_t{1} << 18;
struct Origin {
  std::uint64_t seq;
  std::uint64_t time;
  Layer layer;
};

// Call id -> issuing layer, for reply continuations.
constexpr std::size_t kIssuerSlots = std::size_t{1} << 16;
struct Issuer {
  std::uint64_t nonce;
  std::uint64_t seq;
  Layer layer;
};

struct SpanRecord {
  Entry entry;
  Layer layer;
  std::uint16_t depth;
  std::uint64_t start;
  std::uint64_t end;
};
constexpr std::size_t kMaxRecords = std::size_t{1} << 16;

bool g_enabled = false;
bool g_recording = false;
Tally g_tally;
Frame g_stack[kMaxDepth];
std::size_t g_depth = 0;
std::uint64_t g_posts = 0;
Origin* g_origins = nullptr;
Issuer* g_issuers = nullptr;
SpanRecord* g_records = nullptr;
std::uint32_t g_record_count = 0;
AllocCount g_allocs;

constexpr const char* kLayerNames[kLayers] = {
    "unattributed", "proxy", "cache", "rpc_client", "serde",
    "net",          "sim",   "rpc_server", "obs"};

struct EntryInfo {
  const char* name;
  Layer layer;
};
constexpr EntryInfo kEntryInfo[kEntries] = {
    {"event", Layer::kNone},
    {"sim::Scheduler::Step", Layer::kSim},
    {"sim::Network::Send", Layer::kSim},
    {"rpc::RpcClient::Call", Layer::kRpcClient},
    {"rpc::EncodeRequest", Layer::kSerde},
    {"rpc::EncodeReply", Layer::kSerde},
    {"rpc::DecodeRequestView", Layer::kSerde},
    {"rpc::DecodeReply", Layer::kSerde},
    {"serde::WrapEnvelope", Layer::kSerde},
    {"serde::UnwrapEnvelopeView", Layer::kSerde},
    {"net::Endpoint::Send", Layer::kNet},
    {"obs::Histogram::Record", Layer::kObs},
    {"obs::SpanRecorder::Begin", Layer::kObs},
    {"obs::SpanRecorder::End", Layer::kObs},
    {"obs::SpanRecorder::Annotate", Layer::kObs},
};

Layer CurrentLayer() {
  return g_depth == 0 ? Layer::kNone : g_stack[g_depth - 1].layer;
}

void Charge(Frame& f, std::uint64_t now) {
  const std::uint64_t self = now - f.mark;
  g_tally.layers[static_cast<std::size_t>(f.layer)].self_ticks += self;
  g_tally.entries[static_cast<std::size_t>(f.entry)].self_ticks += self;
  f.mark = now;
}

/// The phase an entry point moves its enclosing event to, if any.
bool PhaseOf(Entry entry, Layer* layer) {
  switch (entry) {
    case Entry::kUnwrapEnvelope:
      *layer = Layer::kNet;
      return true;
    case Entry::kDecodeRequest:
    case Entry::kEncodeReply:
      *layer = Layer::kRpcServer;
      return true;
    case Entry::kDecodeReply:
      *layer = Layer::kRpcClient;
      return true;
    default:
      return false;
  }
}

void Push(Entry entry, Layer layer, std::uint64_t now) {
  if (g_depth == kMaxDepth) std::abort();  // runaway recursion: a bug here
  std::uint32_t record = kNoRecord;
  if (g_recording && g_records != nullptr && g_record_count < kMaxRecords) {
    record = g_record_count++;
    g_records[record] = SpanRecord{entry, layer,
                                   static_cast<std::uint16_t>(g_depth), now, 0};
  }
  g_stack[g_depth++] = Frame{entry, layer, Layer::kNone, now, now, record};
  g_tally.entries[static_cast<std::size_t>(entry)].calls++;
}

void CountAlloc(std::size_t n) {
  g_allocs.allocs++;
  g_allocs.bytes += n;
  if (g_enabled) {
    LayerStats& l = g_tally.layers[static_cast<std::size_t>(CurrentLayer())];
    l.allocs++;
    l.alloc_bytes += n;
  }
}

}  // namespace

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

const char* EntryName(Entry entry) {
  return kEntryInfo[static_cast<std::size_t>(entry)].name;
}

AllocCount Allocations() { return g_allocs; }

__attribute__((weak)) bool WrapsLinked() { return false; }
__attribute__((weak)) bool EntryLinked(Entry /*entry*/) { return false; }

void SetEnabled(bool on) {
  g_enabled = on;
  g_depth = 0;
}
void Reset() { g_tally = Tally{}; }
const Tally& Current() { return g_tally; }

std::uint64_t Now() { return __rdtsc(); }

void Begin(Entry entry) {
  if (!g_enabled) return;
  const std::uint64_t now = Now();
  Layer layer = kEntryInfo[static_cast<std::size_t>(entry)].layer;
  if (g_depth > 0) {
    Frame& parent = g_stack[g_depth - 1];
    Charge(parent, now);
    Layer phase;
    if (parent.entry == Entry::kEvent && PhaseOf(entry, &phase)) {
      parent.layer = phase;
      parent.resume = Layer::kNone;
    }
  }
  Push(entry, layer, now);
}

void End() {
  if (!g_enabled || g_depth == 0) return;
  const std::uint64_t now = Now();
  Frame& f = g_stack[--g_depth];
  Charge(f, now);
  if (f.record != kNoRecord) g_records[f.record].end = now;
  if (g_depth == 0) {
    g_tally.top_level_ticks += now - f.start;
  } else {
    g_stack[g_depth - 1].mark = now;
  }
}

void AddBytes(Entry entry, std::uint64_t n) {
  if (g_enabled) g_tally.entries[static_cast<std::size_t>(entry)].bytes += n;
}

void OnSchedulerCreated() { g_posts = 0; }

void OnEnqueue(std::uint64_t time) {
  const std::uint64_t seq = ++g_posts;
  if (g_origins == nullptr) return;
  // Posts made while tracing is off (set-up's background timers) are
  // recorded too, as unattributed, so that only genuinely unmatched
  // events count as misses.
  Layer origin = Layer::kNone;
  if (g_enabled && g_depth > 0) {
    const Frame& f = g_stack[g_depth - 1];
    if (f.entry == Entry::kNetworkSend) {
      origin = Layer::kNet;  // a datagram delivery
    } else if (f.entry == Entry::kRpcClientCall) {
      origin = Layer::kRpcClient;  // retry / deadline timer
    } else if (f.entry == Entry::kEvent && f.resume != Layer::kNone) {
      origin = f.resume;  // a reply completing its issuer's await
    } else {
      origin = f.layer;
    }
  }
  g_origins[seq & (kOriginSlots - 1)] = Origin{seq, time, origin};
}

void OnEvent(std::uint64_t time, std::uint64_t seq) {
  if (!g_enabled) return;
  if (g_depth > 0 && g_stack[g_depth - 1].entry == Entry::kEvent) End();
  const Origin& o = g_origins[seq & (kOriginSlots - 1)];
  Layer layer = Layer::kNone;
  if (o.seq == seq && o.time == time) {
    layer = o.layer;
  } else {
    g_tally.origin_misses++;
  }
  g_tally.events_by_origin[static_cast<std::size_t>(layer)]++;
  const std::uint64_t now = Now();
  if (g_depth > 0) Charge(g_stack[g_depth - 1], now);
  Push(Entry::kEvent, layer, now);
}

void CloseEvent() {
  if (g_enabled && g_depth > 0 && g_stack[g_depth - 1].entry == Entry::kEvent) {
    End();
  }
}

void NoteRequest(std::uint64_t nonce, std::uint64_t seq) {
  if (!g_enabled || g_issuers == nullptr) return;
  // Stack: ..., issuer, RpcClient::Call, EncodeRequest.
  Layer issuer = Layer::kNone;
  if (g_depth >= 3 && g_stack[g_depth - 2].entry == Entry::kRpcClientCall) {
    issuer = g_stack[g_depth - 3].layer;
  }
  g_issuers[(nonce ^ seq) & (kIssuerSlots - 1)] = Issuer{nonce, seq, issuer};
}

void NoteReply(std::uint64_t nonce, std::uint64_t seq) {
  if (!g_enabled || g_issuers == nullptr || g_depth == 0) return;
  Frame& f = g_stack[g_depth - 1];
  if (f.entry != Entry::kEvent) return;
  const Issuer& i = g_issuers[(nonce ^ seq) & (kIssuerSlots - 1)];
  f.resume = (i.nonce == nonce && i.seq == seq) ? i.layer : Layer::kNone;
}

void SetPhase(Layer layer) {
  if (!g_enabled || g_depth == 0) return;
  Frame& f = g_stack[g_depth - 1];
  if (f.entry != Entry::kEvent) return;
  Charge(f, Now());
  f.layer = layer;
  f.resume = Layer::kNone;
}

void RecordSpans(bool on) {
  if (on) g_record_count = 0;
  g_recording = on;
}

void WriteSpans(std::FILE* out, double ns_per_tick) {
  if (g_records == nullptr || g_record_count == 0) return;
  const std::uint64_t origin = g_records[0].start;
  std::fprintf(out, "depth\tentry\tlayer\tstart_ns\tend_ns\n");
  for (std::uint32_t i = 0; i < g_record_count; ++i) {
    const SpanRecord& r = g_records[i];
    if (r.end == 0) continue;  // still open when recording stopped
    std::fprintf(out, "%u\t%s\t%s\t%.1f\t%.1f\n", r.depth, EntryName(r.entry),
                 LayerName(r.layer),
                 static_cast<double>(r.start - origin) * ns_per_tick,
                 static_cast<double>(r.end - origin) * ns_per_tick);
  }
}

void Reserve() {
  if (g_origins == nullptr) g_origins = new Origin[kOriginSlots]();
  if (g_issuers == nullptr) g_issuers = new Issuer[kIssuerSlots]();
  if (g_records == nullptr) g_records = new SpanRecord[kMaxRecords]();
}

}  // namespace hostbench::ledger

// --- counting allocator: every heap allocation of the process ---

namespace {

void* Allocate(std::size_t n) {
  hostbench::ledger::CountAlloc(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  hostbench::ledger::CountAlloc(n);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
