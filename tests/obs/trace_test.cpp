// obs::Tracer + Chrome trace exporter contracts:
//   (1) span nesting and begin/end pairing, per-thread rings, thread
//       labels; (2) ring wrap-around overwrites the oldest events and
//       counts the drops; (3) exported JSON round-trips through an
//       independent parser and carries names/args/pids; (4) the
//       multi-rank merge splices per-rank files onto one epoch-aligned
//       timeline and rejects malformed inputs; (5) steady-state emission
//       performs zero heap allocations — the same contract the comm
//       arenas pin — and disabled macros cost nothing; (6) spans time
//       themselves into per-thread aggregates whatever the gate, without
//       giving a thread a ring.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "json_util.hpp"
#include "obs/export.hpp"

// ---- global allocation counter ---------------------------------------------
// Replacing global operator new in this test binary lets the steady-state
// tests assert "zero allocations" directly instead of inferring it.
namespace {
std::atomic<uint64_t> g_new_calls{0};
std::atomic<uint64_t> g_new_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dkfac::obs {
namespace {

using testing::JsonValue;
using testing::parse_json;

// The tracer is a process-wide singleton shared by every test in this
// binary: reset recording state (events, aggregates, drop counters)
// without invalidating interned ids or thread registrations.
void reset_tracer(size_t ring_capacity = Tracer::kDefaultRingCapacity) {
  Tracer& tracer = Tracer::instance();
  tracer.disable();
  tracer.enable(ring_capacity);
  tracer.clear();
}

// This thread's snapshot, located by its (per-test unique) label.
Tracer::ThreadSnapshot find_thread(const std::string& name) {
  for (auto& snap : Tracer::instance().snapshot()) {
    if (snap.name == name) return snap;
  }
  ADD_FAILURE() << "no thread buffer named " << name;
  return {};
}

// ---- spans and rings -------------------------------------------------------

TEST(Trace, SpanNestingEmitsBalancedPairs) {
  reset_tracer();
  Tracer::set_thread_name("t.nesting");
  {
    DKFAC_TRACE_SCOPE("nest.outer");
    DKFAC_TRACE_SCOPE("nest.inner");
  }
  const auto snap = find_thread("t.nesting");
  ASSERT_EQ(snap.events.size(), 4u);
  Tracer& tracer = Tracer::instance();
  EXPECT_EQ(snap.events[0].type, EventType::kBegin);
  EXPECT_EQ(tracer.name_of(snap.events[0].name), "nest.outer");
  EXPECT_EQ(snap.events[1].type, EventType::kBegin);
  EXPECT_EQ(tracer.name_of(snap.events[1].name), "nest.inner");
  // Destructors close inner-first, so the pairs nest like parentheses.
  EXPECT_EQ(snap.events[2].type, EventType::kEnd);
  EXPECT_EQ(tracer.name_of(snap.events[2].name), "nest.inner");
  EXPECT_EQ(snap.events[3].type, EventType::kEnd);
  EXPECT_EQ(tracer.name_of(snap.events[3].name), "nest.outer");
  for (size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_GE(snap.events[i].ticks, snap.events[i - 1].ticks);
  }
  // Aggregates: one closed span each, outer at least as long as inner.
  EXPECT_EQ(tracer.aggregate_count("nest.outer"), 1u);
  EXPECT_EQ(tracer.aggregate_count("nest.inner"), 1u);
  EXPECT_GE(tracer.aggregate_seconds("nest.outer"),
            tracer.aggregate_seconds("nest.inner"));
}

TEST(Trace, SpanArgsRideTheCloseEvent) {
  reset_tracer();
  Tracer::set_thread_name("t.args");
  {
    DKFAC_TRACE_SCOPE_NAMED(span, "args.span");
    ASSERT_TRUE(span.active());
    span.set_arg("bytes", 123);
    span.set_arg("count", 7);
    span.set_arg("count_v2", 9);  // third arg overwrites the second slot
  }
  const auto snap = find_thread("t.args");
  ASSERT_EQ(snap.events.size(), 2u);
  const TraceEvent& end = snap.events[1];
  Tracer& tracer = Tracer::instance();
  ASSERT_EQ(end.type, EventType::kEnd);
  EXPECT_EQ(snap.events[0].arg1_name, 0u);  // begin carries no args
  EXPECT_EQ(tracer.name_of(end.arg1_name), "bytes");
  EXPECT_EQ(end.arg1, 123u);
  EXPECT_EQ(tracer.name_of(end.arg2_name), "count_v2");
  EXPECT_EQ(end.arg2, 9u);
}

TEST(Trace, ThreadsRecordIntoTheirOwnRings) {
  reset_tracer();
  constexpr int kSpans = 50;
  auto work = [](const char* name) {
    Tracer::set_thread_name(name);
    for (int i = 0; i < kSpans; ++i) {
      DKFAC_TRACE_SCOPE("threads.work");
    }
  };
  std::thread a(work, "t.worker.a");
  std::thread b(work, "t.worker.b");
  a.join();
  b.join();
  const auto snap_a = find_thread("t.worker.a");
  const auto snap_b = find_thread("t.worker.b");
  EXPECT_EQ(snap_a.events.size(), 2u * kSpans);
  EXPECT_EQ(snap_b.events.size(), 2u * kSpans);
  EXPECT_NE(snap_a.tid, snap_b.tid);
  EXPECT_EQ(Tracer::instance().aggregate_count("threads.work"), 2u * kSpans);
}

TEST(Trace, RingWrapDropsOldestAndCountsIt) {
  reset_tracer(/*ring_capacity=*/8);
  Tracer::set_thread_name("t.wrap");
  for (int i = 0; i < 20; ++i) {
    DKFAC_TRACE_COUNTER("wrap.counter", i);
  }
  const auto snap = find_thread("t.wrap");
  ASSERT_EQ(snap.events.size(), 8u);
  EXPECT_EQ(snap.dropped, 12u);
  EXPECT_GE(Tracer::instance().dropped_events(), 12u);
  // Survivors are the NEWEST 8 samples, oldest-first.
  for (size_t i = 0; i < snap.events.size(); ++i) {
    EXPECT_EQ(snap.events[i].type, EventType::kCounter);
    EXPECT_EQ(snap.events[i].arg1, 12u + i);
  }
}

TEST(Trace, AggregatesSurviveRingWrap) {
  reset_tracer(/*ring_capacity=*/4);
  Tracer::set_thread_name("t.agg");
  constexpr int kSpans = 100;
  for (int i = 0; i < kSpans; ++i) {
    DKFAC_TRACE_SCOPE("agg.wrapped");
  }
  const auto snap = find_thread("t.agg");
  EXPECT_LE(snap.events.size(), 4u);
  EXPECT_EQ(Tracer::instance().aggregate_count("agg.wrapped"),
            static_cast<uint64_t>(kSpans));
  EXPECT_GT(Tracer::instance().aggregate_seconds("agg.wrapped"), 0.0);
}

TEST(Trace, ClearKeepsInternedIdsAndThreads) {
  reset_tracer();
  Tracer::set_thread_name("t.clear");
  Tracer& tracer = Tracer::instance();
  const uint32_t id = tracer.intern("clear.sticky");
  {
    DKFAC_TRACE_SCOPE("clear.sticky");
  }
  tracer.clear();
  EXPECT_EQ(tracer.intern("clear.sticky"), id);  // call-site statics stay valid
  EXPECT_EQ(tracer.aggregate_count("clear.sticky"), 0u);
  EXPECT_EQ(find_thread("t.clear").events.size(), 0u);
}

TEST(Trace, DisabledMacrosEmitNothing) {
  reset_tracer();
  Tracer::set_thread_name("t.disabled");
  {
    DKFAC_TRACE_SCOPE("disabled.warm");  // warm the call-site statics
  }
  Tracer::instance().clear();
  Tracer::instance().disable();
  {
    DKFAC_TRACE_SCOPE("disabled.warm");
    DKFAC_TRACE_SCOPE_NAMED(span, "disabled.named");
    EXPECT_FALSE(span.active());
    span.set_arg("ignored", 1);
    DKFAC_TRACE_INSTANT("disabled.instant");
    DKFAC_TRACE_COUNTER("disabled.counter", 42);
  }
  Tracer::instance().enable();  // re-enable so snapshot reflects the ring
  EXPECT_EQ(find_thread("t.disabled").events.size(), 0u);
  // The gate controls the ring only: the span still timed itself.
  EXPECT_EQ(Tracer::instance().aggregate_count("disabled.warm"), 1u);
}

// ---- the clock: per-thread aggregates --------------------------------------

TEST(Trace, ThreadsReadOnlyTheirOwnAggregates) {
  reset_tracer();
  Tracer& tracer = Tracer::instance();
  const uint32_t id = tracer.intern("clock.per_thread");
  auto work = [&tracer, id](int spans, Tracer::SpanTotals* own) {
    for (int i = 0; i < spans; ++i) {
      DKFAC_TRACE_SCOPE("clock.per_thread");
    }
    *own = tracer.thread_totals(id);
  };
  Tracer::SpanTotals a, b;
  std::thread ta(work, 3, &a);
  std::thread tb(work, 5, &b);
  ta.join();
  tb.join();
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(b.count, 5u);
  EXPECT_EQ(tracer.thread_totals(id).count, 0u);  // this thread opened none
  EXPECT_EQ(tracer.aggregate_count("clock.per_thread"), 8u);
  EXPECT_DOUBLE_EQ(tracer.aggregate_seconds("clock.per_thread"),
                   static_cast<double>(a.ticks + b.ticks) * kSecondsPerTick);
}

TEST(Trace, GateOffSpanIsTimedButNotRecorded) {
  reset_tracer();
  Tracer& tracer = Tracer::instance();
  tracer.disable();
  const uint64_t bytes_before = g_new_bytes.load(std::memory_order_relaxed);
  Tracer::SpanTotals own;
  double span_seconds = 0.0;
  std::thread timer([&] {
    Tracer::set_thread_name("t.timing_only");
    DKFAC_TRACE_SCOPE_NAMED(span, "clock.gate_off");
    EXPECT_FALSE(span.active());
    span.close();
    span_seconds = span.seconds();
    own = tracer.thread_totals(tracer.find_name("clock.gate_off"));
  });
  timer.join();
  const uint64_t bytes =
      g_new_bytes.load(std::memory_order_relaxed) - bytes_before;
  EXPECT_EQ(own.count, 1u);
  EXPECT_DOUBLE_EQ(own.seconds(), span_seconds);
  // No ring: the thread is absent from the snapshot, and everything
  // allocated while it ran is under one ring's worth of bytes.
  for (const auto& snap : tracer.snapshot()) {
    EXPECT_NE(snap.name, "t.timing_only");
  }
  EXPECT_LT(bytes, Tracer::kDefaultRingCapacity * sizeof(TraceEvent));
}

// ---- exporter --------------------------------------------------------------

TEST(TraceExport, JsonRoundTripsThroughIndependentParser) {
  reset_tracer();
  Tracer::set_thread_name("t.export");
  Tracer& tracer = Tracer::instance();
  {
    DKFAC_TRACE_SCOPE_NAMED(span, "export.span \"quoted\"");
    span.set_arg("bytes", 4096);
    span.set_arg("route", 2);
  }
  DKFAC_TRACE_INSTANT("export.instant");
  DKFAC_TRACE_COUNTER("export.counter", 99);

  std::ostringstream out;
  ExportOptions opts;
  opts.pid = 3;
  opts.process_name = "rank 3";
  write_chrome_trace(out, opts);

  const JsonValue root = parse_json(out.str());
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("displayTimeUnit").str(), "ms");
  ASSERT_TRUE(root.at("traceEvents").is_array());
  const auto& events = root.at("traceEvents").array();

  bool saw_process = false, saw_thread = false, saw_begin = false,
       saw_end = false, saw_instant = false, saw_counter = false;
  for (const JsonValue& e : events) {
    ASSERT_TRUE(e.is_object());
    EXPECT_EQ(static_cast<int>(e.at("pid").number()), 3);
    const std::string& ph = e.at("ph").str();
    const std::string& name = e.at("name").str();
    if (ph == "M" && name == "process_name") {
      saw_process = e.at("args").at("name").str() == "rank 3";
    }
    if (ph == "M" && name == "thread_name" &&
        e.at("args").at("name").str() == "t.export") {
      saw_thread = true;
    }
    if (name == "export.span \"quoted\"") {
      EXPECT_GE(e.at("ts").number(), 0.0);
      if (ph == "B") {
        saw_begin = true;
        EXPECT_FALSE(e.has("args"));
      } else if (ph == "E") {
        saw_end = true;
        EXPECT_EQ(e.at("args").at("bytes").number(), 4096.0);
        EXPECT_EQ(e.at("args").at("route").number(), 2.0);
      }
    }
    if (name == "export.instant") {
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(e.at("s").str(), "t");
      saw_instant = true;
    }
    if (name == "export.counter") {
      EXPECT_EQ(ph, "C");
      EXPECT_EQ(e.at("args").at("value").number(), 99.0);
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_thread);
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
  (void)tracer;
}

TEST(TraceExport, DroppedEventsSurfaceAsCounter) {
  reset_tracer(/*ring_capacity=*/4);
  Tracer::set_thread_name("t.dropnote");
  for (int i = 0; i < 10; ++i) {
    DKFAC_TRACE_INSTANT("dropnote.instant");
  }
  std::ostringstream out;
  write_chrome_trace(out);
  const JsonValue root = parse_json(out.str());
  bool found = false;
  for (const JsonValue& e : root.at("traceEvents").array()) {
    if (e.at("name").str() == "trace.dropped_events") {
      EXPECT_EQ(e.at("ph").str(), "C");
      EXPECT_GE(e.at("args").at("value").number(), 6.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- multi-rank merge ------------------------------------------------------

TEST(TraceMerge, RankTracePathInsertsBeforeExtension) {
  EXPECT_EQ(rank_trace_path("trace.json", 2), "trace.rank2.json");
  EXPECT_EQ(rank_trace_path("/out/run.v1/trace.json", 0),
            "/out/run.v1/trace.rank0.json");
  EXPECT_EQ(rank_trace_path("trace", 1), "trace.rank1");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(rank_trace_path("/out/run.v1/trace", 3), "/out/run.v1/trace.rank3");
}

TEST(TraceMerge, MergesRanksOntoOneEpochAlignedTimeline) {
  reset_tracer();
  Tracer::set_thread_name("t.merge");
  Tracer& tracer = Tracer::instance();
  const uint32_t id = tracer.intern("merge.mark");
  const Ticks tick = now_ticks();
  tracer.emit(EventType::kInstant, id, 0, 0, 0, 0, tick);

  const std::string dir = ::testing::TempDir();
  const std::string base = dir + "dkfac_merge_trace.json";
  const std::string path0 = rank_trace_path(base, 0);
  const std::string path1 = rank_trace_path(base, 1);

  // Simulate two ranks observing the same physical instant with their own
  // barrier-stamped epochs: exported ts must be tick-minus-epoch for each.
  const Ticks delta0 = 1000000;
  const Ticks delta1 = 2500000;
  const double expected0 = static_cast<double>(delta0) * kSecondsPerTick * 1e6;
  const double expected1 = static_cast<double>(delta1) * kSecondsPerTick * 1e6;
  tracer.set_epoch(tick - delta0);
  ExportOptions opts0;
  opts0.pid = 0;
  write_chrome_trace_file(path0, opts0);
  tracer.set_epoch(tick - delta1);
  ExportOptions opts1;
  opts1.pid = 1;
  write_chrome_trace_file(path1, opts1);

  merge_chrome_traces({path0, path1}, base);

  std::ifstream in(base);
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue root = parse_json(buf.str());
  double ts0 = -1.0, ts1 = -1.0;
  for (const JsonValue& e : root.at("traceEvents").array()) {
    if (e.at("name").str() != "merge.mark") continue;
    if (static_cast<int>(e.at("pid").number()) == 0) ts0 = e.at("ts").number();
    if (static_cast<int>(e.at("pid").number()) == 1) ts1 = e.at("ts").number();
  }
  EXPECT_NEAR(ts0, expected0, 0.01);
  EXPECT_NEAR(ts1, expected1, 0.01);
}

TEST(TraceMerge, RejectsMalformedInput) {
  const std::string bad = ::testing::TempDir() + "dkfac_bad_trace.json";
  {
    std::ofstream out(bad, std::ios::trunc);
    out << "{\"traceEvents\": \"not ours\"}\n";
  }
  const std::string merged = ::testing::TempDir() + "dkfac_bad_merged.json";
  EXPECT_THROW(merge_chrome_traces({bad}, merged), Error);
  EXPECT_THROW(merge_chrome_traces({}, merged), Error);
  EXPECT_THROW(
      merge_chrome_traces({::testing::TempDir() + "does_not_exist.json"},
                          merged),
      Error);
}

// ---- allocation contract ---------------------------------------------------

TEST(TraceAlloc, SteadyStateEmissionAllocatesNothing) {
  reset_tracer();
  Tracer::set_thread_name("t.alloc");
  // Warm-up: register this thread's ring and intern every name (all longer
  // than SSO so a hidden std::string copy would show up as an allocation).
  for (int i = 0; i < 4; ++i) {
    DKFAC_TRACE_SCOPE_NAMED(span, "alloc.steady_state.span.long_name");
    span.set_arg("alloc.steady_state.bytes_arg", i);
    DKFAC_TRACE_INSTANT("alloc.steady_state.instant.long_name");
    DKFAC_TRACE_COUNTER("alloc.steady_state.counter.long_name", i);
  }

  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 2000; ++i) {  // far past the ring: wrap included
    DKFAC_TRACE_SCOPE_NAMED(span, "alloc.steady_state.span.long_name");
    span.set_arg("alloc.steady_state.bytes_arg", static_cast<uint64_t>(i));
    DKFAC_TRACE_INSTANT("alloc.steady_state.instant.long_name");
    DKFAC_TRACE_COUNTER("alloc.steady_state.counter.long_name", i);
  }
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "tracing hot path allocated " << (after - before) << " times";
}

TEST(TraceAlloc, DisabledMacrosAllocateNothing) {
  reset_tracer();
  Tracer::instance().disable();
  auto emit_all = [](int i) {
    DKFAC_TRACE_SCOPE("alloc.disabled.warmed_site");
    DKFAC_TRACE_SCOPE_NAMED(span, "alloc.disabled.named_site");
    span.set_arg("alloc.disabled.arg_name_long", 1);
    DKFAC_TRACE_INSTANT("alloc.disabled.instant_site");
    DKFAC_TRACE_COUNTER("alloc.disabled.counter_site", i);
  };
  emit_all(0);  // span sites intern on first use, whatever the gate
  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 2000; ++i) emit_all(i);
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace dkfac::obs
