#include "src/obs/trace.h"

#include <algorithm>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/util/threading.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define TANGO_TRACE_TSC 1
#endif

namespace tango::obs {

namespace {

thread_local TraceContext t_current;

// Ids are handed out in thread-local blocks so the per-span cost is one
// thread-local increment instead of a contended fetch_add.
constexpr uint64_t kIdBlock = 1 << 12;

// Scratch batch size: one request's spans almost always fit; a larger trace
// spills to the shared ring mid-request (provisionally, like every span did
// before batching) and loses nothing.
constexpr uint32_t kScratchCap = 128;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// splitmix64: a full-period 64-bit mixer, the standard cheap way to turn a
// counter-ish id into uniform bits for the sampling decision.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Span timestamps.  clock_gettime costs ~20ns per call even through the
// vDSO — two calls per span would be most of a span's budget — so on x86 the
// hot path reads the TSC and conversion to microseconds happens at flush
// time (once per retained trace, not per span).  Calibration against the
// monotonic clock runs once, from SetEnabled/SetSampling, so it never lands
// inside a measured region; the function-local static guard gives every
// later reader a happens-before edge.
struct TraceClock {
  uint64_t base_ticks = 0;
  uint64_t base_us = 0;
  double us_per_tick = 1e-3;
};

#if defined(TANGO_TRACE_TSC)
inline uint64_t TraceTicks() { return __rdtsc(); }

const TraceClock& Calibrated() {
  static TraceClock clock = [] {
    uint64_t t0 = __rdtsc();
    uint64_t n0 = NowNanos();
    uint64_t n1 = n0;
    while (n1 - n0 < 2'000'000) {  // 2ms spin: ~1e-5 frequency error
      n1 = NowNanos();
    }
    uint64_t t1 = __rdtsc();
    TraceClock c;
    c.us_per_tick = static_cast<double>(n1 - n0) / 1000.0 /
                    static_cast<double>(t1 - t0);
    c.base_ticks = t0;
    c.base_us = n0 / 1000;
    return c;
  }();
  return clock;
}
#else
inline uint64_t TraceTicks() { return NowNanos(); }

const TraceClock& Calibrated() {
  static TraceClock clock;  // ticks are nanoseconds; us_per_tick = 1e-3
  return clock;
}
#endif

// Signed conversions: a span that started before calibration (tracing used
// without SetEnabled first) or cross-core TSC skew must clamp, not wrap.
uint64_t TicksToWallMicros(const TraceClock& clk, uint64_t ticks) {
  int64_t rel = static_cast<int64_t>(ticks - clk.base_ticks);
  int64_t us = static_cast<int64_t>(clk.base_us) +
               static_cast<int64_t>(static_cast<double>(rel) * clk.us_per_tick);
  return us > 0 ? static_cast<uint64_t>(us) : 0;
}

uint64_t TicksToDurationMicros(const TraceClock& clk, uint64_t start,
                               uint64_t end) {
  int64_t d = static_cast<int64_t>(end - start);
  if (d <= 0) {
    return 0;
  }
  return static_cast<uint64_t>(static_cast<double>(d) * clk.us_per_tick);
}

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\';
    }
    out << c;
  }
  out << '"';
}

// Cumulative counters surfaced through the registry only at collection
// time: push the delta since the last export so the span path never touches
// a registry instrument.
void ExportCounterDelta(Counter* counter, uint64_t total,
                        std::atomic<uint64_t>* exported) {
  uint64_t prev = exported->exchange(total, std::memory_order_relaxed);
  if (total > prev) {
    counter->Add(total - prev);
  }
}

}  // namespace

// One span buffered in the calling thread's private batch, timestamps still
// raw ticks.  Plain fields: nothing outside the owning thread ever reads a
// scratch record.
struct Tracer::TickRec {
  uint64_t trace_id;
  uint64_t span_id;
  uint64_t parent_id;
  const char* name;
  uint64_t start_ticks;
  uint64_t end_ticks;
  uint32_t node;
  bool adopted;
};

struct Tracer::Scratch {
  Tracer* owner = nullptr;
  uint32_t n = 0;
  TickRec recs[kScratchCap];
};

TraceContext CurrentTrace() { return t_current; }

void SetCurrentTrace(TraceContext ctx) { t_current = ctx; }

uint32_t CurrentThreadIndex() { return ThreadIndex(); }

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::EnsureInstruments() {
  std::call_once(instruments_once_, [this] {
    MetricsRegistry& reg = MetricsRegistry::Default();
    m_dropped_ = reg.GetCounter("obs.trace.dropped");
    m_head_out_ = reg.GetCounter("obs.trace.head_sampled_out");
    m_tail_retained_ = reg.GetCounter("obs.trace.tail_retained");
    m_ring_spans_ = reg.GetGauge("obs.trace.ring_spans");
    m_retained_traces_ = reg.GetGauge("obs.trace.retained_traces");
    // Everything refreshes at registry-snapshot time, so span loss and
    // sampling decisions are visible in every stats dump without any
    // registry update on the hot path.
    reg.AddCollectionHook([this] {
      m_ring_spans_->Set(static_cast<int64_t>(RingSpans()));
      {
        std::lock_guard<std::mutex> lock(retained_mu_);
        m_retained_traces_->Set(static_cast<int64_t>(retained_.size()));
      }
      ExportCounterDelta(m_dropped_, dropped(), &exported_dropped_);
      ExportCounterDelta(m_head_out_, head_sampled_out(), &exported_head_out_);
      ExportCounterDelta(m_tail_retained_, tail_retained(), &exported_tail_);
    });
  });
}

uint64_t Tracer::NewId() {
  thread_local struct {
    Tracer* owner = nullptr;
    uint64_t next = 0;
    uint64_t end = 0;
  } block;
  if (block.owner != this || block.next == block.end) {
    block.owner = this;
    block.next = next_id_block_.fetch_add(kIdBlock, std::memory_order_relaxed);
    block.end = block.next + kIdBlock;
  }
  return block.next++;
}

uint64_t Tracer::NewTraceId() { return NewId(); }

uint64_t Tracer::NewSpanId() { return NewId(); }

void Tracer::SetEnabled(bool enabled) {
  if (enabled) {
    Calibrated();  // pay TSC calibration here, not under the first span
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Tracer::SetSampling(SamplingPolicy policy) {
  if (policy.sample_every == 0) {
    policy.sample_every = 1;
  }
  // Resolve the registry instruments now so an idle daemon's /metrics
  // already carries the obs.trace.* schema before the first span records.
  EnsureInstruments();
  Calibrated();
  policy_sample_every_.store(policy.sample_every, std::memory_order_relaxed);
  policy_slow_us_.store(policy.slow_us, std::memory_order_relaxed);
  policy_seed_.store(policy.seed, std::memory_order_relaxed);
}

SamplingPolicy Tracer::sampling() const {
  SamplingPolicy p;
  p.sample_every = policy_sample_every_.load(std::memory_order_relaxed);
  p.slow_us = policy_slow_us_.load(std::memory_order_relaxed);
  p.seed = policy_seed_.load(std::memory_order_relaxed);
  return p;
}

bool Tracer::WouldHeadSample(uint64_t trace_id) const {
  uint64_t every = policy_sample_every_.load(std::memory_order_relaxed);
  if (every <= 1) {
    return true;
  }
  uint64_t mixed =
      Mix64(trace_id ^ policy_seed_.load(std::memory_order_relaxed));
  if ((every & (every - 1)) == 0) {  // the common 1/2^k case: skip the div
    return (mixed & (every - 1)) == 0;
  }
  return mixed % every == 0;
}

Tracer::ThreadRing* Tracer::LocalRing() {
  // Fast path: this thread already resolved its ring for this tracer.
  thread_local struct {
    Tracer* owner = nullptr;
    ThreadRing* ring = nullptr;
  } cache;
  if (cache.owner == this) {
    return cache.ring;
  }
  // Slow path (first flush on this thread, or a second Tracer instance in
  // tests): look the ring up — or create it — under the registry lock.
  // Rings are keyed by thread index and never freed, mirroring how the
  // registry keeps instrument pointers stable forever.
  EnsureInstruments();
  uint32_t me = ThreadIndex();
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (ThreadRing* ring : rings_) {
    if (ring->owner_thread == me) {
      cache = {this, ring};
      return ring;
    }
  }
  auto* ring = new ThreadRing();
  ring->owner_thread = me;
  rings_.push_back(ring);
  cache = {this, ring};
  return ring;
}

Tracer::Scratch& Tracer::LocalScratch() {
  thread_local Scratch scratch;
  if (scratch.owner != this) {
    scratch.owner = this;
    scratch.n = 0;
  }
  return scratch;
}

Tracer::SlotArray* Tracer::ResizeRing(ThreadRing* ring, size_t want) {
  SlotArray* old = ring->arr.load(std::memory_order_acquire);
  auto* arr = new SlotArray();
  arr->cap = want;  // always a power of two (see set_capacity)
  arr->slots = new Slot[want];
  uint64_t kept = 0;
  if (old != nullptr) {
    // Keep the newest records that fit, oldest first (matches the old
    // truncate-on-set_capacity semantics).
    uint64_t head = ring->head.load(std::memory_order_relaxed);
    uint64_t live = std::min<uint64_t>(head, old->cap);
    uint64_t take = std::min<uint64_t>(live, want);
    for (uint64_t i = head - take; i < head; ++i) {
      const Slot& src = old->slots[i & (old->cap - 1)];
      Slot& dst = arr->slots[kept++];
      dst.trace_id.store(src.trace_id.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      dst.span_id.store(src.span_id.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      dst.parent_id.store(src.parent_id.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      dst.name.store(src.name.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      dst.start_us.store(src.start_us.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      dst.duration_us.store(src.duration_us.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      dst.node.store(src.node.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      dst.thread.store(src.thread.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      dst.adopted.store(src.adopted.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
  }
  // Publish head before the array: a reader pairing the new array with the
  // old (larger) head would walk unwritten slots.
  ring->head.store(kept, std::memory_order_release);
  ring->arr.store(arr, std::memory_order_release);
  if (old != nullptr) {
    // Park, don't free: a concurrent exporter may still be walking it.
    std::lock_guard<std::mutex> lock(rings_mu_);
    retired_arrays_.push_back(old);
  }
  return arr;
}

void Tracer::AppendToRing(const Rec& rec) {
  ThreadRing* ring = LocalRing();
  SlotArray* arr = ring->arr.load(std::memory_order_relaxed);
  size_t want = ring_capacity_.load(std::memory_order_relaxed);
  if (arr == nullptr || arr->cap != want) {
    arr = ResizeRing(ring, want);
  }
  uint64_t h = ring->head.load(std::memory_order_relaxed);
  if (h >= arr->cap) {
    // Overwriting the oldest record.  Single-writer counter: a plain
    // load+store is enough (exporters only read).
    ring->dropped.store(ring->dropped.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  }
  Slot& s = arr->slots[h & (arr->cap - 1)];
  s.trace_id.store(rec.trace_id, std::memory_order_relaxed);
  s.span_id.store(rec.span_id, std::memory_order_relaxed);
  s.parent_id.store(rec.parent_id, std::memory_order_relaxed);
  s.name.store(rec.name, std::memory_order_relaxed);
  s.start_us.store(rec.start_us, std::memory_order_relaxed);
  s.duration_us.store(rec.duration_us, std::memory_order_relaxed);
  s.node.store(rec.node, std::memory_order_relaxed);
  s.thread.store(rec.thread, std::memory_order_relaxed);
  s.adopted.store(rec.adopted ? 1 : 0, std::memory_order_relaxed);
  ring->head.store(h + 1, std::memory_order_release);
}

void Tracer::RecordSpan(const Rec& rec) {
  if (rec.adopted) {
    // The root (and its sampling decision) live in the caller's process;
    // retain locally so /traces exports the server half of the trace.
    MarkRetained(rec.trace_id);
  }
  AppendToRing(rec);
}

void Tracer::FlushScratch(Scratch* s, uint64_t retain_trace_id) {
  if (retain_trace_id != 0) {
    MarkRetained(retain_trace_id);
  }
  const TraceClock& clk = Calibrated();
  uint32_t thread = ThreadIndex();
  for (uint32_t i = 0; i < s->n; ++i) {
    const TickRec& t = s->recs[i];
    Rec rec;
    rec.trace_id = t.trace_id;
    rec.span_id = t.span_id;
    rec.parent_id = t.parent_id;
    rec.name = t.name;
    rec.start_us = TicksToWallMicros(clk, t.start_ticks);
    rec.duration_us = TicksToDurationMicros(clk, t.start_ticks, t.end_ticks);
    rec.node = t.node;
    rec.thread = thread;
    rec.adopted = t.adopted;
    AppendToRing(rec);
  }
  s->n = 0;
}

void Tracer::RecordScoped(uint64_t trace_id, uint64_t span_id,
                          uint64_t parent_id, const char* name, uint32_t node,
                          bool adopted, uint64_t start_ticks,
                          uint64_t end_ticks, bool top) {
  Scratch& s = LocalScratch();
  if (s.n == kScratchCap) {
    // A trace wider than the scratch spills to the ring provisionally —
    // exactly where every span used to go; the retained-set filter at
    // export time still applies.
    FlushScratch(&s, 0);
  }
  TickRec& r = s.recs[s.n++];
  r.trace_id = trace_id;
  r.span_id = span_id;
  r.parent_id = parent_id;
  r.name = name;
  r.start_ticks = start_ticks;
  r.end_ticks = end_ticks;
  r.node = node;
  r.adopted = adopted;
  if (!top) {
    return;
  }
  // Top of the request's scope stack on this thread: decide the batch.
  if (adopted) {
    // The sampling decision belongs to the root's process; always keep the
    // server-side half.
    FlushScratch(&s, trace_id);
    return;
  }
  const TraceClock& clk = Calibrated();
  uint64_t duration_us = TicksToDurationMicros(clk, start_ticks, end_ticks);
  if (FinishRoot(trace_id, WouldHeadSample(trace_id), duration_us)) {
    FlushScratch(&s, 0);  // FinishRoot already marked the trace retained
  } else {
    s.n = 0;  // head-dropped and fast: the whole batch evaporates
  }
}

bool Tracer::FinishRoot(uint64_t trace_id, bool head_sampled,
                        uint64_t duration_us) {
  if (head_sampled) {
    MarkRetained(trace_id);
    return true;
  }
  uint64_t slow = policy_slow_us_.load(std::memory_order_relaxed);
  if (slow != 0 && duration_us >= slow) {
    tail_retained_.fetch_add(1, std::memory_order_relaxed);
    MarkRetained(trace_id);
    return true;
  }
  head_sampled_out_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Tracer::MarkRetained(uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(retained_mu_);
  if (!retained_.insert(trace_id).second) {
    return;
  }
  retained_order_.push_back(trace_id);
  while (retained_order_.size() > retained_cap_) {
    retained_.erase(retained_order_.front());
    retained_order_.pop_front();
  }
}

bool Tracer::IsRetained(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  return retained_.count(trace_id) != 0;
}

void Tracer::SnapshotRing(const ThreadRing* ring, std::vector<Rec>* out) {
  const SlotArray* arr = ring->arr.load(std::memory_order_acquire);
  if (arr == nullptr || arr->cap == 0) {
    return;
  }
  uint64_t head = ring->head.load(std::memory_order_acquire);
  uint64_t n = std::min<uint64_t>(head, arr->cap);
  for (uint64_t i = head - n; i < head; ++i) {
    const Slot& s = arr->slots[i & (arr->cap - 1)];
    Rec r;
    r.trace_id = s.trace_id.load(std::memory_order_relaxed);
    if (r.trace_id == 0) {
      continue;  // unpublished slot (reader raced a resize)
    }
    r.span_id = s.span_id.load(std::memory_order_relaxed);
    r.parent_id = s.parent_id.load(std::memory_order_relaxed);
    const char* name = s.name.load(std::memory_order_relaxed);
    r.name = name != nullptr ? name : "";
    r.start_us = s.start_us.load(std::memory_order_relaxed);
    r.duration_us = s.duration_us.load(std::memory_order_relaxed);
    r.node = s.node.load(std::memory_order_relaxed);
    r.thread = s.thread.load(std::memory_order_relaxed);
    r.adopted = s.adopted.load(std::memory_order_relaxed) != 0;
    out->push_back(r);
  }
}

std::vector<Tracer::Rec> Tracer::SnapshotRecs() const {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings = rings_;
  }
  std::vector<Rec> recs;
  for (const ThreadRing* ring : rings) {
    SnapshotRing(ring, &recs);
  }
  return recs;
}

uint64_t Tracer::RingSpans() const {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings = rings_;
  }
  uint64_t total = 0;
  for (const ThreadRing* ring : rings) {
    const SlotArray* arr = ring->arr.load(std::memory_order_acquire);
    if (arr == nullptr) {
      continue;
    }
    total += std::min<uint64_t>(ring->head.load(std::memory_order_acquire),
                                arr->cap);
  }
  return total;
}

uint64_t Tracer::dropped() const {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings = rings_;
  }
  uint64_t total = 0;
  for (const ThreadRing* ring : rings) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<Span> Tracer::Spans() const {
  std::vector<Rec> recs = SnapshotRecs();
  std::vector<Span> spans;
  spans.reserve(recs.size());
  std::lock_guard<std::mutex> lock(retained_mu_);
  for (const Rec& r : recs) {
    if (retained_.count(r.trace_id) == 0) {
      continue;
    }
    Span s;
    s.trace_id = r.trace_id;
    s.span_id = r.span_id;
    s.parent_id = r.parent_id;
    s.name = r.name;
    s.start_us = r.start_us;
    s.duration_us = r.duration_us;
    s.node = r.node;
    s.thread = r.thread;
    spans.push_back(std::move(s));
  }
  return spans;
}

std::vector<Span> Tracer::SlowSpans(uint64_t min_duration_us,
                                    size_t limit) const {
  std::vector<Span> slow;
  for (Span& s : Spans()) {
    if (s.duration_us >= min_duration_us) {
      slow.push_back(std::move(s));
    }
  }
  std::sort(slow.begin(), slow.end(), [](const Span& a, const Span& b) {
    return a.duration_us > b.duration_us;
  });
  if (slow.size() > limit) {
    slow.resize(limit);
  }
  return slow;
}

std::string Tracer::ExportChromeJson() const {
  std::vector<Span> spans = Spans();
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"X\",\"name\":";
    AppendJsonString(out, s.name);
    out << ",\"cat\":\"tango\",\"pid\":" << s.node << ",\"tid\":" << s.thread
        << ",\"ts\":" << s.start_us << ",\"dur\":" << s.duration_us
        << ",\"args\":{\"trace_id\":" << s.trace_id
        << ",\"span_id\":" << s.span_id << ",\"parent_id\":" << s.parent_id
        << "}}";
  }
  out << "]\n";
  return out.str();
}

void Tracer::Clear() {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings = rings_;
  }
  for (ThreadRing* ring : rings) {
    ring->head.store(0, std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(retained_mu_);
    retained_.clear();
    retained_order_.clear();
  }
  head_sampled_out_.store(0, std::memory_order_relaxed);
  tail_retained_.store(0, std::memory_order_relaxed);
}

void Tracer::set_capacity(size_t capacity) {
  capacity = RoundUpPow2(std::max<size_t>(capacity, 1));
  ring_capacity_.store(capacity, std::memory_order_relaxed);
  // Reshape every existing ring now (exact truncate-to-newest semantics);
  // rings created later pick the capacity up on their first record.
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings = rings_;
  }
  for (ThreadRing* ring : rings) {
    SlotArray* arr = ring->arr.load(std::memory_order_acquire);
    if (arr != nullptr && arr->cap != capacity) {
      ResizeRing(ring, capacity);
    }
  }
}

TraceScope::TraceScope(const char* name, uint32_t node) {
  Tracer& tracer = Tracer::Default();
  if (!tracer.enabled()) {
    return;
  }
  Begin(tracer, name, t_current, node, /*adopted=*/false);
}

TraceScope::TraceScope(const char* name, TraceContext incoming, uint32_t node) {
  Tracer& tracer = Tracer::Default();
  if (!tracer.enabled() || !incoming.active()) {
    return;
  }
  Begin(tracer, name, incoming, node, /*adopted=*/true);
}

void TraceScope::Begin(Tracer& tracer, const char* name, TraceContext parent,
                       uint32_t node, bool adopted) {
  active_ = true;
  adopted_ = adopted;
  saved_ = t_current;
  if (parent.active()) {
    trace_id_ = parent.trace_id;
    parent_id_ = parent.span_id;
  } else {
    trace_id_ = tracer.NewTraceId();
    parent_id_ = 0;
    root_ = true;
  }
  span_id_ = tracer.NewSpanId();
  name_ = name;
  node_ = node;
  start_ticks_ = TraceTicks();
  t_current = TraceContext{trace_id_, span_id_};
}

TraceScope::~TraceScope() {
  if (!active_) {
    return;
  }
  uint64_t end_ticks = TraceTicks();
  t_current = saved_;
  Tracer::Default().RecordScoped(trace_id_, span_id_, parent_id_, name_, node_,
                                 adopted_, start_ticks_, end_ticks,
                                 /*top=*/root_ || adopted_);
}

}  // namespace tango::obs
