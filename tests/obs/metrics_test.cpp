// StepMetricsLogger contracts: the schema's names are unique, the logger
// maps every stats field to its dotted name, writes one parseable record
// per step (`step` first, keys in byte order, counters as integers,
// non-finite gauges as null), splits overlap from the executor's timers,
// reads phase times as per-step deltas of this thread's span aggregates,
// and the README metrics table matches the declared schema.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "json_util.hpp"
#include "obs/trace.hpp"

namespace dkfac::obs {
namespace {

using testing::JsonValue;
using testing::parse_json;

TEST(StepMetricsLogger, SchemaNamesAreUnique) {
  std::set<std::string_view> names;
  for (const MetricSpec& spec : metric_schema()) {
    EXPECT_TRUE(names.insert(spec.name).second)
        << spec.name << " is declared twice";
  }
}

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

  // The logger reflects the legacy structs under the documented names.
  EXPECT_EQ(logger.value("comm.allreduce.calls"), 3.0);
  EXPECT_EQ(logger.value("comm.allreduce.bytes"), 1024.0);
  EXPECT_EQ(logger.value("comm.wire.sent_bytes"), 555.0);
  // factor/decomp update counters tick once per step that updated, not by
  // the per-step factor count.
  EXPECT_EQ(logger.value("kfac.factor_updates"), 2.0);
  EXPECT_EQ(logger.value("kfac.decomp_updates"), 2.0);
  EXPECT_EQ(logger.value("arena.bytes_reserved"), 8192.0);
  EXPECT_EQ(logger.value("train.loss"), 2.0);
  EXPECT_EQ(logger.value("comm.async.comm_seconds"), 0.2);
  EXPECT_DOUBLE_EQ(logger.value("comm.overlap.hidden_seconds"), 0.15);
  EXPECT_DOUBLE_EQ(logger.value("comm.overlap.exposed_seconds"), 0.05);
  EXPECT_THROW((void)logger.value("comm.no_such_metric"), Error);

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

TEST(StepMetricsLogger, JsonlLineHasStepFirstSortedKeysAndExactValueForms) {
  const std::string path = ::testing::TempDir() + "dkfac_metrics_form.jsonl";
  {
    StepMetricsLogger logger(path);
    StepSample sample;
    sample.step = 42;
    sample.loss = std::numeric_limits<double>::quiet_NaN();
    sample.accuracy = std::numeric_limits<double>::infinity();
    sample.lr = 1.0 / 3.0;
    comm::CommStats stats;
    stats.allreduce_bytes = (uint64_t{1} << 40) + 1;
    logger.record(sample, stats, nullptr, comm::ArenaStats{});
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string file = content.str();
  ASSERT_FALSE(file.empty());
  EXPECT_EQ(file.back(), '\n');
  const std::string line = file.substr(0, file.size() - 1);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one record, one line";

  // The keys are the quoted strings: every value is a number or null.
  std::vector<std::string> keys;
  for (size_t open = line.find('"'); open != std::string::npos;) {
    const size_t close = line.find('"', open + 1);
    ASSERT_NE(close, std::string::npos) << line;
    keys.push_back(line.substr(open + 1, close - open - 1));
    open = line.find('"', close + 1);
  }
  ASSERT_EQ(keys.size(), metric_schema().size() + 1);
  EXPECT_EQ(keys.front(), "step");
  EXPECT_TRUE(std::is_sorted(keys.begin() + 1, keys.end()));

  EXPECT_EQ(line.rfind("{\"step\":42,", 0), 0u) << line;
  // Counters print as integers, gauges as %.9g, non-finite gauges as null.
  EXPECT_NE(line.find("\"comm.allreduce.bytes\":1099511627777,"),
            std::string::npos) << line;
  EXPECT_NE(line.find("\"train.lr\":0.333333333,"), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"train.loss\":null,"), std::string::npos) << line;
  EXPECT_NE(line.find("\"train.accuracy\":null,"), std::string::npos) << line;

  const JsonValue root = parse_json(line);
  EXPECT_EQ(root.at("step").number(), 42.0);
  EXPECT_TRUE(root.at("train.loss").is_null());
}

TEST(StepMetricsLogger, SplitsOverlapFromExecutorTimers) {
  StepMetricsLogger logger("");
  comm::CommStats stats;
  stats.async.comm_seconds = 2.0;
  stats.async.wait_seconds = 0.5;
  logger.record(StepSample{}, stats, nullptr, comm::ArenaStats{});
  EXPECT_DOUBLE_EQ(logger.value("comm.overlap.hidden_seconds"),
                   stats.async.overlap_won_seconds());
  EXPECT_DOUBLE_EQ(logger.value("comm.overlap.hidden_seconds"), 1.5);
  EXPECT_DOUBLE_EQ(logger.value("comm.overlap.exposed_seconds"), 0.5);

  // Fully exposed: waited longer than the collectives ran.
  stats.async.wait_seconds = 3.0;
  logger.record(StepSample{}, stats, nullptr, comm::ArenaStats{});
  EXPECT_DOUBLE_EQ(logger.value("comm.overlap.hidden_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(logger.value("comm.overlap.exposed_seconds"), 2.0);
}

TEST(StepMetricsLogger, PhaseGaugesAreThisThreadsSpanTimePerStep) {
  Tracer& tracer = Tracer::instance();
  tracer.disable();
  {
    DKFAC_TRACE_SCOPE("train.forward");  // before the logger: not counted
  }
  StepMetricsLogger logger("");
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
  EXPECT_EQ(logger.value("train.forward_seconds"),
            static_cast<double>(now.ticks - start.ticks) * kSecondsPerTick);
  EXPECT_GT(logger.value("train.forward_seconds"), 0.0);

  // A step without the span reads zero.
  logger.record(StepSample{}, comm::CommStats{}, nullptr, comm::ArenaStats{});
  EXPECT_EQ(logger.value("train.forward_seconds"), 0.0);
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
  EXPECT_EQ(logger.value("train.loss"), 1.0);
}

TEST(StepMetricsLogger, UnwritablePathThrows) {
  EXPECT_THROW(StepMetricsLogger("/nonexistent-dir.v9/m.jsonl"), Error);
}

}  // namespace
}  // namespace dkfac::obs
