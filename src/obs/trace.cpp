#include "obs/trace.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "common/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

namespace dkfac::obs {
namespace {

// Thread label storage kept outside Tracer so set_thread_name never
// allocates (safe with tracing disabled): a fixed thread_local char
// array, consumed when the thread's state registers.
struct PendingThreadName {
  char text[64] = {0};
};

PendingThreadName& pending_thread_name() {
  static thread_local PendingThreadName name;
  return name;
}

std::atomic<uint32_t>& next_tid() {
  static std::atomic<uint32_t> counter{1};
  return counter;
}

}  // namespace

Tracer& Tracer::instance() {
  // Leaked on purpose: emission from detaching threads (and static
  // destructors elsewhere) must never race a dying tracer.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::atomic<bool>& Tracer::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

void Tracer::enable(size_t ring_capacity) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_capacity_ = std::max<size_t>(ring_capacity, 2);
    for (auto& state : threads_) {
      if (!state->ring.empty() && state->ring.size() != ring_capacity_) {
        state->ring.assign(ring_capacity_, TraceEvent{});
        state->head.store(0, std::memory_order_relaxed);
      }
    }
  }
  set_epoch_now();
  enabled_flag().store(true, std::memory_order_release);
}

void Tracer::disable() {
  enabled_flag().store(false, std::memory_order_release);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& state : threads_) {
    state->head.store(0, std::memory_order_relaxed);
    for (Aggregate& agg : state->aggregates) {
      agg.ticks.store(0, std::memory_order_relaxed);
      agg.count.store(0, std::memory_order_relaxed);
    }
  }
}

uint32_t Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  if (names_.size() >= kMaxNames) {
    throw Error("obs::Tracer: interned name limit (" +
                std::to_string(kMaxNames) + ") exceeded by \"" +
                std::string(name) + "\"");
  }
  names_.emplace_back(name);
  const uint32_t id = static_cast<uint32_t>(names_.size());  // 1-based
  name_ids_.emplace(names_.back(), id);
  return id;
}

uint32_t Tracer::find_name(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? 0 : it->second;
}

std::string Tracer::name_of(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > names_.size()) return {};
  return names_[id - 1];
}

Tracer::ThreadState*& Tracer::registered_state_slot() {
  static thread_local ThreadState* state = nullptr;
  return state;
}

Tracer::ThreadState& Tracer::local_state() {
  ThreadState*& state = registered_state_slot();
  if (state == nullptr) {
    // Mapped outside the malloc heap: a long-lived table malloc'd mid-run
    // lands between the trainer's large temporaries and moves the heap's
    // peak (perfbench sgd-1r on a 4-vCPU x86 box: median trial peak RSS
    // 114 MB with none, 127 MB malloc'd, 114 MB mapped).
    void* block = ::mmap(nullptr, sizeof(ThreadState), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) throw std::bad_alloc();
#if defined(__SANITIZE_ADDRESS__)
    // LeakSanitizer scans no mmap'd memory; the ring and name this state
    // owns are reachable only through it.
    __lsan_register_root_region(block, sizeof(ThreadState));
#endif
    state = new (block) ThreadState();
    state->tid = next_tid().fetch_add(1, std::memory_order_relaxed);
    const char* pending = pending_thread_name().text;
    state->name = pending[0] != '\0'
                      ? std::string(pending)
                      : "thread-" + std::to_string(state->tid);
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(state);
  }
  return *state;
}

void Tracer::emit(EventType type, uint32_t name, uint32_t arg1_name,
                  uint64_t arg1, uint32_t arg2_name, uint64_t arg2,
                  Ticks ticks) {
  if (name == 0) return;
  ThreadState& state = local_state();
  if (state.ring.empty()) {
    // Under the lock: snapshot() may be reading the ring vectors.
    std::lock_guard<std::mutex> lock(mutex_);
    state.ring.assign(ring_capacity_, TraceEvent{});
  }
  if (ticks == 0) ticks = now_ticks();
  const uint64_t head = state.head.load(std::memory_order_relaxed);
  TraceEvent& slot = state.ring[head % state.ring.size()];
  slot.ticks = ticks;
  slot.name = name;
  slot.type = type;
  slot.arg1_name = arg1_name;
  slot.arg2_name = arg2_name;
  slot.arg1 = arg1;
  slot.arg2 = arg2;
  // Publish after the slot is fully written so snapshot() (which reads
  // head with acquire) never sees a half-written newest event.
  state.head.store(head + 1, std::memory_order_release);
}

void Tracer::add_aggregate(uint32_t name, Ticks duration) {
  if (name == 0 || name > kMaxNames) return;
  Aggregate& agg = local_state().aggregates[name - 1];
  agg.ticks.store(agg.ticks.load(std::memory_order_relaxed) + duration,
                  std::memory_order_relaxed);
  agg.count.store(agg.count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

Tracer::SpanTotals Tracer::thread_totals(uint32_t name) const {
  const ThreadState* state = registered_state_slot();
  if (state == nullptr || name == 0 || name > kMaxNames) return {};
  const Aggregate& agg = state->aggregates[name - 1];
  return {agg.count.load(std::memory_order_relaxed),
          agg.ticks.load(std::memory_order_relaxed)};
}

Tracer::SpanTotals Tracer::process_totals(std::string_view name) const {
  const uint32_t id = find_name(name);
  SpanTotals sum;
  if (id == 0) return sum;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& state : threads_) {
    const Aggregate& agg = state->aggregates[id - 1];
    sum.count += agg.count.load(std::memory_order_relaxed);
    sum.ticks += agg.ticks.load(std::memory_order_relaxed);
  }
  return sum;
}

double Tracer::aggregate_seconds(std::string_view name) const {
  return process_totals(name).seconds();
}

uint64_t Tracer::aggregate_count(std::string_view name) const {
  return process_totals(name).count;
}

void Tracer::set_thread_name(std::string_view name) {
  PendingThreadName& pending = pending_thread_name();
  const size_t n = std::min(name.size(), sizeof(pending.text) - 1);
  std::memcpy(pending.text, name.data(), n);
  pending.text[n] = '\0';
  // If this thread already registered its state, rename it in place; if
  // not, stay lazy — a thread that only names itself registers nothing.
  if (ThreadState* state = registered_state_slot()) {
    Tracer& tracer = instance();
    std::lock_guard<std::mutex> lock(tracer.mutex_);
    state->name.assign(pending.text);
  }
}

std::vector<Tracer::ThreadSnapshot> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadSnapshot> out;
  for (const auto& state : threads_) {
    if (state->ring.empty()) continue;  // timed spans only, never recorded
    ThreadSnapshot snap;
    snap.tid = state->tid;
    snap.name = state->name;
    const uint64_t head = state->head.load(std::memory_order_acquire);
    const uint64_t capacity = state->ring.size();
    const uint64_t kept = std::min(head, capacity);
    snap.dropped = head - kept;
    snap.events.reserve(kept);
    for (uint64_t i = head - kept; i < head; ++i) {
      snap.events.push_back(state->ring[i % capacity]);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t dropped = 0;
  for (const auto& state : threads_) {
    const uint64_t head = state->head.load(std::memory_order_acquire);
    const uint64_t capacity = state->ring.size();
    dropped += head > capacity ? head - capacity : 0;
  }
  return dropped;
}

}  // namespace dkfac::obs
