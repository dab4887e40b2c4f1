// obs::Registry + StepMetricsLogger contracts: registration returns
// stable handles and rejects duplicate names, lookups type-check,
// write_jsonl emits one parseable sorted object per step (non-finite
// gauges as null), the logger maps every stats field to its dotted name,
// splits overlap from the executor's timers, reads phase times as
// per-step deltas of this thread's span aggregates, and the README
// metrics table matches the declared schema.
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dkfac::obs {
namespace {

using testing::JsonValue;
using testing::parse_json;

TEST(Registry, CountersAndGaugesHoldValues) {
  Registry registry;
  Registry::Counter& c = registry.add_counter("a.calls");
  Registry::Gauge& g = registry.add_gauge("a.seconds");
  c.add(3);
  c.add(4);
  g.set(1.5);
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(g.value(), 1.5);
  c.set(100);
  EXPECT_EQ(registry.counter("a.calls").value(), 100u);
  EXPECT_EQ(registry.gauge("a.seconds").value(), 1.5);
  EXPECT_TRUE(registry.contains("a.calls"));
  EXPECT_FALSE(registry.contains("a.missing"));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, DuplicateNamesThrowAcrossKinds) {
  Registry registry;
  registry.add_counter("dup.metric");
  EXPECT_THROW(registry.add_counter("dup.metric"), Error);
  EXPECT_THROW(registry.add_gauge("dup.metric"), Error);
}

TEST(Registry, LookupsTypeCheckAndRejectUnknown) {
  Registry registry;
  registry.add_counter("k.counter");
  registry.add_gauge("k.gauge");
  EXPECT_THROW(registry.counter("k.gauge"), Error);
  EXPECT_THROW(registry.gauge("k.counter"), Error);
  EXPECT_THROW(registry.counter("k.unknown"), Error);
}

TEST(Registry, JsonlLineParsesWithSortedKeysAndNullNonFinite) {
  Registry registry;
  registry.add_counter("z.last").set(9);
  registry.add_gauge("a.first").set(0.125);
  registry.add_gauge("m.nan").set(std::numeric_limits<double>::quiet_NaN());
  std::ostringstream out;
  registry.write_jsonl(out, 42);
  const std::string line = out.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  const JsonValue root = parse_json(line);
  EXPECT_EQ(root.at("step").number(), 42.0);
  EXPECT_EQ(root.at("a.first").number(), 0.125);
  EXPECT_EQ(root.at("z.last").number(), 9.0);
  EXPECT_TRUE(root.at("m.nan").is_null());
  // Sorted emission: "a.first" appears before "m.nan" before "z.last".
  EXPECT_LT(line.find("a.first"), line.find("m.nan"));
  EXPECT_LT(line.find("m.nan"), line.find("z.last"));
}

// ---- StepMetricsLogger -----------------------------------------------------

TEST(StepMetricsLogger, MapsLegacyStatsToDottedNamesAndWritesJsonl) {
  const std::string path = ::testing::TempDir() + "dkfac_metrics_test.jsonl";
  Tracer::instance().disable();
  StepMetricsLogger logger(path);
  ASSERT_TRUE(logger.writing());

  StepSample sample;
  sample.step = 1;
  sample.epoch = 0;
  sample.loss = 2.25;
  sample.accuracy = 0.5;
  sample.lr = 0.05;

  comm::CommStats stats;
  stats.allreduce_calls = 3;
  stats.allreduce_bytes = 1024;
  stats.wire_sent_bytes = 555;
  stats.async.comm_seconds = 0.2;
  stats.async.wait_seconds = 0.05;

  kfac::KfacPreconditioner::StepReport report;
  report.factors_updated = 4;
  report.decompositions_updated = 2;
  report.decomp_intra_tasks = 1;
  report.decomp_inter_tasks = 1;

  comm::ArenaStats arena;
  arena.bytes_reserved = 8192;
  arena.steady_state_allocs = 0;

  logger.record(sample, stats, &report, arena);
  sample.step = 2;
  sample.loss = 2.0;
  logger.record(sample, stats, &report, arena);

  // Registry reflects the legacy structs under the documented names.
  Registry& reg = logger.registry();
  EXPECT_EQ(reg.counter("comm.allreduce.calls").value(), 3u);
  EXPECT_EQ(reg.counter("comm.allreduce.bytes").value(), 1024u);
  EXPECT_EQ(reg.counter("comm.wire.sent_bytes").value(), 555u);
  // factor/decomp update counters tick once per step that updated, not by
  // the per-step factor count.
  EXPECT_EQ(reg.counter("kfac.factor_updates").value(), 2u);
  EXPECT_EQ(reg.counter("kfac.decomp_updates").value(), 2u);
  EXPECT_EQ(reg.counter("arena.bytes_reserved").value(), 8192u);
  EXPECT_EQ(reg.gauge("train.loss").value(), 2.0);
  EXPECT_EQ(reg.gauge("comm.async.comm_seconds").value(), 0.2);
  EXPECT_DOUBLE_EQ(reg.gauge("comm.overlap.hidden_seconds").value(), 0.15);
  EXPECT_DOUBLE_EQ(reg.gauge("comm.overlap.exposed_seconds").value(), 0.05);

  // The file holds one parseable object per record() call.
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    const JsonValue root = parse_json(line);
    ++lines;
    EXPECT_EQ(root.at("step").number(), static_cast<double>(lines));
    EXPECT_TRUE(root.has("train.loss"));
    EXPECT_TRUE(root.has("comm.overlap.hidden_seconds"));
    EXPECT_TRUE(root.has("kfac.factor_seconds"));
  }
  EXPECT_EQ(lines, 2);
}

TEST(StepMetricsLogger, SplitsOverlapFromExecutorTimers) {
  StepMetricsLogger logger("");
  Registry& reg = logger.registry();
  comm::CommStats stats;
  stats.async.comm_seconds = 2.0;
  stats.async.wait_seconds = 0.5;
  logger.record(StepSample{}, stats, nullptr, comm::ArenaStats{});
  EXPECT_DOUBLE_EQ(reg.gauge("comm.overlap.hidden_seconds").value(),
                   stats.async.overlap_won_seconds());
  EXPECT_DOUBLE_EQ(reg.gauge("comm.overlap.hidden_seconds").value(), 1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("comm.overlap.exposed_seconds").value(), 0.5);

  // Fully exposed: waited longer than the collectives ran.
  stats.async.wait_seconds = 3.0;
  logger.record(StepSample{}, stats, nullptr, comm::ArenaStats{});
  EXPECT_DOUBLE_EQ(reg.gauge("comm.overlap.hidden_seconds").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("comm.overlap.exposed_seconds").value(), 2.0);
}

TEST(StepMetricsLogger, PhaseGaugesAreThisThreadsSpanTimePerStep) {
  Tracer& tracer = Tracer::instance();
  tracer.disable();
  {
    DKFAC_TRACE_SCOPE("train.forward");  // before the logger: not counted
  }
  StepMetricsLogger logger("");
  Registry::Gauge& forward = logger.registry().gauge("train.forward_seconds");
  const uint32_t id = tracer.find_name("train.forward");
  const Tracer::SpanTotals start = tracer.thread_totals(id);
  {
    DKFAC_TRACE_SCOPE("train.forward");
  }
  // Another thread's span of the same name is another rank's phase.
  std::thread([] { DKFAC_TRACE_SCOPE("train.forward"); }).join();
  logger.record(StepSample{}, comm::CommStats{}, nullptr, comm::ArenaStats{});
  const Tracer::SpanTotals now = tracer.thread_totals(id);
  EXPECT_EQ(now.count, start.count + 1);
  EXPECT_EQ(forward.value(),
            static_cast<double>(now.ticks - start.ticks) * kSecondsPerTick);
  EXPECT_GT(forward.value(), 0.0);

  // A step without the span reads zero.
  logger.record(StepSample{}, comm::CommStats{}, nullptr, comm::ArenaStats{});
  EXPECT_EQ(forward.value(), 0.0);
}

// The README's metrics table, between its marker comments: a header row,
// a separator, then one row per metric — | `name` | kind | unit | source |,
// backticks ignored.
TEST(StepMetricsLogger, ReadmeTableMatchesSchema) {
  std::ifstream readme(DKFAC_README_PATH);
  ASSERT_TRUE(readme.good()) << DKFAC_README_PATH;
  using Row = std::tuple<std::string, std::string, std::string>;
  std::map<std::string, Row> documented;
  bool inside = false;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.find("<!-- metrics-schema:begin -->") != std::string::npos) {
      inside = true;
    } else if (line.find("<!-- metrics-schema:end -->") != std::string::npos) {
      inside = false;
    } else if (inside && line.rfind("|", 0) == 0) {
      std::vector<std::string> cells;
      std::string cell;
      for (char c : line.substr(1)) {
        if (c == '|') {
          const size_t first = cell.find_first_not_of(' ');
          const size_t last = cell.find_last_not_of(' ');
          cells.push_back(first == std::string::npos
                              ? ""
                              : cell.substr(first, last - first + 1));
          cell.clear();
        } else if (c != '`') {
          cell += c;
        }
      }
      ASSERT_EQ(cells.size(), 4u) << line;
      if (cells[0] == "Metric" || cells[0].rfind("---", 0) == 0) continue;
      EXPECT_TRUE(documented.emplace(cells[0], Row{cells[1], cells[2], cells[3]})
                      .second)
          << "README lists " << cells[0] << " twice";
    }
  }
  ASSERT_FALSE(documented.empty()) << "no metrics table between the markers";

  for (const MetricSpec& spec : metric_schema()) {
    const std::string name(spec.name);
    const auto it = documented.find(name);
    if (it == documented.end()) {
      ADD_FAILURE() << name << " is in the schema but not the README";
      continue;
    }
    const Row declared{spec.kind == MetricKind::kCounter ? "counter" : "gauge",
                       std::string(spec.unit), std::string(spec.source)};
    EXPECT_EQ(it->second, declared) << name;
    documented.erase(it);
  }
  for (const auto& [name, row] : documented) {
    ADD_FAILURE() << name << " is in the README but not the schema";
  }
}

TEST(StepMetricsLogger, EmptyPathDisablesWritingButKeepsRegistry) {
  StepMetricsLogger logger("");
  EXPECT_FALSE(logger.writing());
  StepSample sample;
  sample.loss = 1.0;
  logger.record(sample, comm::CommStats{}, nullptr, comm::ArenaStats{});
  EXPECT_EQ(logger.registry().gauge("train.loss").value(), 1.0);
}

TEST(StepMetricsLogger, UnwritablePathThrows) {
  EXPECT_THROW(StepMetricsLogger("/nonexistent-dir.v9/m.jsonl"), Error);
}

}  // namespace
}  // namespace dkfac::obs
