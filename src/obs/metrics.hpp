// The per-step metrics schema and its JSONL logger. One declared table
// (metric_schema()) names every metric with its kind, unit and source;
// StepMetricsLogger keeps one value per row and streams one JSONL record
// per training step. Every duration comes from a span: phase times are
// per-step deltas of the recording thread's span aggregates — rank 0's
// main thread, so one rank's figures on either backend — and the
// comm.async.* / comm.overlap.* times from the executor's span-timed
// AsyncCommStats. The README metrics table mirrors the schema row for row
// (tests/obs/metrics_test.cpp checks it).
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "comm/arena.hpp"
#include "comm/communicator.hpp"
#include "comm/net/faultnet.hpp"
#include "core/preconditioner.hpp"
#include "obs/trace.hpp"

namespace dkfac::obs {

/// Per-step scalars the trainer hands the logger (everything not already
/// carried by a stats struct or timed by a span).
struct StepSample {
  uint64_t step = 0;   ///< global step index (monotonic across epochs)
  uint64_t epoch = 0;
  double loss = 0.0;
  double accuracy = 0.0;      ///< running train accuracy this epoch
  double lr = 0.0;
  /// Elastic-training counters (cumulative over the run): group
  /// re-formations survived so far, and K-FAC factor updates shed as
  /// straggler slack. Zero outside elastic runs.
  uint64_t elastic_reformations = 0;
  uint64_t elastic_skipped_factor_steps = 0;
  /// Elastic scale-up: ranks observed joining the group across this
  /// process's re-formations, and whether this process is a respawned
  /// replacement (0/1).
  uint64_t elastic_joins = 0;
  uint64_t elastic_respawns = 0;
};

/// Everything one record() reads besides spans.
struct StepInputs {
  const StepSample& sample;
  const comm::CommStats& comm;
  /// This step's K-FAC report; all zero with K-FAC off.
  const kfac::KfacPreconditioner::StepReport& report;
  const comm::ArenaStats& arena;
  const comm::net::faultnet::InjectCounts& faults;
};

enum class MetricKind { kCounter, kGauge };

/// One row of the metrics schema.
struct MetricSpec {
  std::string_view name;  ///< dotted JSONL key
  MetricKind kind;
  std::string_view unit;
  /// Where the value comes from: the StepInputs expression read() returns,
  /// or "span <name>" — the seconds the recording thread spent in that
  /// span since the previous record.
  std::string_view source;
  /// Reads the value (null for span sources). A counter's read is its
  /// running total, or this step's increment when `per_step` is set.
  double (*read)(const StepInputs&) = nullptr;
  bool per_step = false;
};

/// The schema, in declaration order (the JSONL sorts keys by name).
std::span<const MetricSpec> metric_schema();

/// Holds the current value of every schema row plus the output stream for
/// `train_cli --metrics <path>`. Construct it, and call record(), on the
/// thread that runs the training step: span sources read that thread's
/// aggregates.
class StepMetricsLogger {
 public:
  /// Opens `path` for truncating write; throws dkfac::Error on failure.
  /// An empty path constructs a disabled logger (record() still updates
  /// the values — tests read them — but writes nothing).
  explicit StepMetricsLogger(const std::string& path);

  /// Updates every metric and appends one JSONL line: `step` first, then
  /// every metric in byte order of its name, counters as integers, gauges
  /// as %.9g and non-finite gauges as null (JSON has no NaN). `report` may
  /// be null (K-FAC off); `arena` is the summed comm-path arena stats.
  void record(const StepSample& sample, const comm::CommStats& comm,
              const kfac::KfacPreconditioner::StepReport* report,
              const comm::ArenaStats& arena);

  /// The value metric `name` took at the last record() (0 before any).
  /// Throws dkfac::Error if `name` is not in the schema.
  double value(std::string_view name) const;
  bool writing() const { return out_.is_open(); }

 private:
  /// A schema row and its current value.
  struct Metric {
    const MetricSpec* spec;
    uint64_t count = 0;  ///< counters
    double gauge = 0.0;  ///< gauges
    uint32_t span = 0;  ///< interned span id for span sources, else 0
    Ticks last_ticks = 0;  ///< span total at the previous record
  };

  /// Sorted by name, the JSONL key order.
  std::vector<Metric> metrics_;
  std::ofstream out_;
  /// A failed JSONL write has been reported (warn once, not per step —
  /// metrics are observability, so a full disk degrades to a warning
  /// instead of killing the training run).
  bool write_failure_logged_ = false;
};

}  // namespace dkfac::obs
