// Phase timing and tracing. Every span times itself into a per-thread
// aggregate table; with the runtime gate on, events are also recorded
// into per-thread ring buffers exported as Chrome trace_event JSON
// (Perfetto-loadable).
//
// Design contract, two tiers:
//   1. Gate off (the default): a span is two steady_clock reads plus two
//      relaxed load/store pairs into the calling thread's aggregate table
//      (16 KB, mapped at the thread's first span). Instant and counter
//      events cost one relaxed atomic load and a branch. A thread that
//      only times spans never gets a ring.
//   2. Gate on: each event is additionally a store into this thread's
//      preallocated ring. The hot path never takes a lock and never
//      allocates once a thread's state exists and its names are interned
//      (both happen on first use — warm-up, by the same definition the
//      comm arenas use; a thread's ring is allocated at its first event
//      with the gate on). A full ring overwrites the OLDEST events and
//      counts the drops; recording never blocks the caller.
//
// Span sites intern their name on first use whatever the gate, so the
// span aggregates are the one clock: metrics, the straggler vote and the
// executor's overlap timers all read durations from spans. Aggregates are
// kept per thread — a thread rank reads its own (thread_totals()), and
// the by-name readers sum every thread of the process. They survive ring
// wrap-around.
//
// Event model: scoped spans (begin/end pairs via SpanScope / the
// DKFAC_TRACE_SCOPE macros, up to two u64 args attached at close),
// instant events, and counter samples. Names are interned once into
// stable u32 ids; macro call sites cache the id in a function-local
// static so steady-state emission never looks at the intern table.
//
// Threading: emission is wait-free per thread (each thread owns its
// ring and its aggregate table). enable()/disable()/clear()/
// set_epoch_now() and snapshot() are control-plane calls: they may race
// emission without corrupting memory (indices and aggregates are
// atomic), but a snapshot taken while writers are active can observe a
// partially-written newest event — quiesce writers (the trainer drains
// its executor) before exporting.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dkfac::obs {

/// steady_clock ticks (monotonic; on Linux CLOCK_MONOTONIC, shared by all
/// processes on a host — which is what makes the multi-rank merge line up).
using Ticks = uint64_t;

inline Ticks now_ticks() {
  return static_cast<Ticks>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// Seconds per steady_clock tick.
constexpr double kSecondsPerTick =
    static_cast<double>(std::chrono::steady_clock::period::num) /
    static_cast<double>(std::chrono::steady_clock::period::den);

enum class EventType : uint8_t {
  kBegin,    ///< span opened
  kEnd,      ///< span closed (carries the span's args)
  kInstant,  ///< point event
  kCounter,  ///< counter sample (value in arg1)
};

struct TraceEvent {
  Ticks ticks = 0;
  uint32_t name = 0;  ///< interned id (see Tracer::intern)
  EventType type = EventType::kInstant;
  uint32_t arg1_name = 0;  ///< 0 = no arg
  uint32_t arg2_name = 0;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
};

class Tracer {
 public:
  /// The process-wide tracer. Never destroyed (trivially leaked at exit)
  /// so late-exiting threads can always reach their state.
  static Tracer& instance();

  /// Hot-path gate: one relaxed atomic load.
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Starts recording. `ring_capacity` is events per thread; existing
  /// rings are re-sized (call while no thread is emitting), and a thread
  /// without one gets it at its first event. Also stamps the export
  /// epoch to "now" so timestamps start near zero — set_epoch_now()
  /// after a cross-rank barrier refines it for merges.
  void enable(size_t ring_capacity = kDefaultRingCapacity);

  /// Stops recording. Rings and their contents are retained for export;
  /// spans keep timing into the aggregates.
  void disable();

  /// Drops all recorded events, aggregates, and drop counters. Interned
  /// names and thread registrations survive (call-site static ids and
  /// thread_local state pointers stay valid).
  void clear();

  /// Interns `name`, returning its stable non-zero id. Allocates only on
  /// first sight of a name; later calls are a shared-lock-free map find.
  uint32_t intern(std::string_view name);

  /// The id `name` was interned as, or 0 if never interned.
  uint32_t find_name(std::string_view name) const;

  /// Copy of the interned string for `id` (export-time use).
  std::string name_of(uint32_t id) const;

  /// Rank-synchronised timestamp all exported event times are relative
  /// to. Call immediately after a cross-rank barrier so every rank's
  /// t=0 is the same physical instant.
  void set_epoch_now() { epoch_.store(now_ticks(), std::memory_order_relaxed); }
  void set_epoch(Ticks t) { epoch_.store(t, std::memory_order_relaxed); }
  Ticks epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // ---- emission (hot path) ----------------------------------------------

  /// Stores one event into the calling thread's ring, allocating the ring
  /// on the thread's first event.
  void emit(EventType type, uint32_t name, uint32_t arg1_name = 0,
            uint64_t arg1 = 0, uint32_t arg2_name = 0, uint64_t arg2 = 0,
            Ticks ticks = 0);

  void instant(uint32_t name) { emit(EventType::kInstant, name); }
  void counter(uint32_t name, uint64_t value) {
    emit(EventType::kCounter, name, 0, value);
  }

  /// Folds a closed span's duration into the calling thread's aggregate.
  void add_aggregate(uint32_t name, Ticks duration);

  // ---- aggregates --------------------------------------------------------

  /// Closed-span totals of one name.
  struct SpanTotals {
    uint64_t count = 0;
    Ticks ticks = 0;
    double seconds() const {
      return static_cast<double>(ticks) * kSecondsPerTick;
    }
  };

  /// The calling thread's totals for span `name` (an interned id). On
  /// thread ranks this is one rank's figure: each rank times its phases
  /// on its own main thread.
  SpanTotals thread_totals(uint32_t name) const;

  /// Total duration and count of every closed span named `name`, summed
  /// over all threads of the process (0 if the name was never seen).
  double aggregate_seconds(std::string_view name) const;
  uint64_t aggregate_count(std::string_view name) const;

  // ---- thread identity ---------------------------------------------------

  /// Labels the calling thread in exported traces ("main", "comm.worker",
  /// ...). Sticky: applies to the thread's state whenever it registers,
  /// so it is safe (and allocation-free) to call before any span.
  static void set_thread_name(std::string_view name);

  // ---- export ------------------------------------------------------------

  struct ThreadSnapshot {
    uint32_t tid = 0;
    std::string name;        ///< thread label ("thread-<tid>" if unnamed)
    uint64_t dropped = 0;    ///< events overwritten by ring wrap-around
    std::vector<TraceEvent> events;  ///< oldest → newest
  };

  /// Copies out the surviving events of every thread that has a ring.
  /// Quiesce writers first (see header comment) for a tear-free snapshot.
  std::vector<ThreadSnapshot> snapshot() const;

  /// Total events overwritten across all threads.
  uint64_t dropped_events() const;

  static constexpr size_t kDefaultRingCapacity = 1 << 16;
  /// Aggregate slots per thread are preallocated so closing a span never
  /// resizes anything; interning more names than this throws.
  static constexpr size_t kMaxNames = 1024;

 private:
  Tracer() = default;

  /// Written only by the owning thread (relaxed load + store, no RMW);
  /// atomic so the process-wide readers may race it.
  struct Aggregate {
    std::atomic<uint64_t> ticks{0};
    std::atomic<uint64_t> count{0};
  };

  struct ThreadState {
    std::array<Aggregate, kMaxNames> aggregates;  // index = id - 1
    std::vector<TraceEvent> ring;  ///< empty until the first event
    std::atomic<uint64_t> head{0};  ///< events ever written
    uint32_t tid = 0;
    std::string name;
  };

  static std::atomic<bool>& enabled_flag();
  static ThreadState*& registered_state_slot();
  ThreadState& local_state();
  /// Sum over every thread of one name's aggregate.
  SpanTotals process_totals(std::string_view name) const;

  // Heterogeneous lookup so find(string_view) never materialises a
  // std::string — intern() after warm-up must not allocate.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::mutex mutex_;  // intern table + thread registry + rings
  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>>
      name_ids_;
  std::vector<std::string> names_;  // index = id - 1
  std::vector<ThreadState*> threads_;  // live for the process, like *this
  size_t ring_capacity_ = kDefaultRingCapacity;
  std::atomic<Ticks> epoch_{0};
};

/// RAII span: times the enclosing scope into the calling thread's
/// aggregate for `name` (an interned id), and records begin/end events
/// into the ring when the gate is on at open. The end event is emitted
/// even if tracing was disabled mid-flight, keeping pairs balanced.
class SpanScope {
 public:
  explicit SpanScope(uint32_t name)
      : name_(name), recording_(Tracer::enabled()), start_(now_ticks()) {
    if (recording_) {
      Tracer::instance().emit(EventType::kBegin, name_, 0, 0, 0, 0, start_);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() { close(); }

  /// Attaches a u64 arg, emitted with the closing event (max two; later
  /// calls overwrite the second slot). `arg_name` is interned on use —
  /// a map find after first sight, nothing when the span is not recorded.
  void set_arg(std::string_view arg_name, uint64_t value) {
    if (!recording_) return;
    const uint32_t id = Tracer::instance().intern(arg_name);
    if (arg1_name_ == 0 || arg1_name_ == id) {
      arg1_name_ = id;
      arg1_ = value;
    } else {
      arg2_name_ = id;
      arg2_ = value;
    }
  }

  /// True when the span is recorded into the ring (the gate was on at
  /// open) — guards work done only to build args.
  bool active() const { return recording_; }

  /// Ends the span now instead of at scope exit; later calls (and the
  /// destructor) do nothing.
  void close() {
    if (closed_) return;
    closed_ = true;
    end_ = now_ticks();
    Tracer& tracer = Tracer::instance();
    tracer.add_aggregate(name_, end_ - start_);
    if (recording_) {
      tracer.emit(EventType::kEnd, name_, arg1_name_, arg1_, arg2_name_,
                  arg2_, end_);
    }
  }

  /// Seconds since the span opened: up to now while it is open (one clock
  /// read), its recorded duration once closed.
  double seconds() const {
    const Ticks end = closed_ ? end_ : now_ticks();
    return static_cast<double>(end - start_) * kSecondsPerTick;
  }

 private:
  uint32_t name_ = 0;
  bool recording_ = false;
  bool closed_ = false;
  Ticks start_ = 0;
  Ticks end_ = 0;
  uint32_t arg1_name_ = 0;
  uint32_t arg2_name_ = 0;
  uint64_t arg1_ = 0;
  uint64_t arg2_ = 0;
};

}  // namespace dkfac::obs

#define DKFAC_TRACE_CONCAT_IMPL(a, b) a##b
#define DKFAC_TRACE_CONCAT(a, b) DKFAC_TRACE_CONCAT_IMPL(a, b)

/// Interns a name once per call site (function-local static), then reads
/// the cached id forever after.
#define DKFAC_TRACE_INTERN(str)                              \
  ([]() -> uint32_t {                                        \
    static const uint32_t dkfac_trace_interned_id =          \
        ::dkfac::obs::Tracer::instance().intern(str);        \
    return dkfac_trace_interned_id;                          \
  }())

/// Scoped span covering the rest of the enclosing block.
#define DKFAC_TRACE_SCOPE(str)                                   \
  ::dkfac::obs::SpanScope DKFAC_TRACE_CONCAT(dkfac_trace_scope_, \
                                             __COUNTER__)(       \
      DKFAC_TRACE_INTERN(str))

/// Scoped span bound to `var`, so args can be attached (var.set_arg) and
/// the owner can read its duration (var.seconds()).
#define DKFAC_TRACE_SCOPE_NAMED(var, str) \
  ::dkfac::obs::SpanScope var(DKFAC_TRACE_INTERN(str))

#define DKFAC_TRACE_INSTANT(str)                                      \
  do {                                                                \
    if (::dkfac::obs::Tracer::enabled())                              \
      ::dkfac::obs::Tracer::instance().instant(DKFAC_TRACE_INTERN(str)); \
  } while (0)

#define DKFAC_TRACE_COUNTER(str, value)                               \
  do {                                                                \
    if (::dkfac::obs::Tracer::enabled())                              \
      ::dkfac::obs::Tracer::instance().counter(                       \
          DKFAC_TRACE_INTERN(str), static_cast<uint64_t>(value));     \
  } while (0)
