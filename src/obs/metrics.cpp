#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace dkfac::obs {
namespace {

constexpr MetricKind kCounter = MetricKind::kCounter;
constexpr MetricKind kGauge = MetricKind::kGauge;
constexpr std::string_view kSpanSource = "span ";

// A field of StepInputs as a source: its path is the row's source text and
// its value the row's read(), so the two cannot drift apart.
#define FIELD(path) \
  #path, [](const StepInputs& in) { return static_cast<double>(in.path); }

// Counters are cumulative over the run (exact as doubles below 2^53; the
// report.* ones sum per-step values). Gauges are this step's value, except
// the comm.async.* times, which are run totals.
constexpr MetricSpec kSchema[] = {
    {"comm.allreduce.calls", kCounter, "count", FIELD(comm.allreduce_calls)},
    {"comm.allreduce.bytes", kCounter, "B", FIELD(comm.allreduce_bytes)},
    {"comm.allgather.calls", kCounter, "count", FIELD(comm.allgather_calls)},
    {"comm.allgather.bytes", kCounter, "B", FIELD(comm.allgather_bytes)},
    {"comm.broadcast.calls", kCounter, "count", FIELD(comm.broadcast_calls)},
    {"comm.broadcast.bytes", kCounter, "B", FIELD(comm.broadcast_bytes)},
    {"comm.wire.sent_bytes", kCounter, "B", FIELD(comm.wire_sent_bytes)},
    {"comm.wire.recv_bytes", kCounter, "B", FIELD(comm.wire_recv_bytes)},
    {"factor.dense_bytes", kCounter, "B", FIELD(comm.factor_dense_bytes)},
    {"factor.packed_bytes", kCounter, "B", FIELD(comm.factor_packed_bytes)},
    {"factor.encoded_bytes", kCounter, "B", FIELD(comm.factor_encoded_bytes)},
    {"decomp.dense_bytes", kCounter, "B", FIELD(comm.decomp_dense_bytes)},
    {"decomp.packed_bytes", kCounter, "B", FIELD(comm.decomp_packed_bytes)},
    {"arena.bytes_reserved", kCounter, "B", FIELD(arena.bytes_reserved)},
    {"arena.steady_allocs", kCounter, "count",
     FIELD(arena.steady_state_allocs)},
    {"comm.async.submitted", kCounter, "count", FIELD(comm.async.submitted)},
    {"comm.async.batches", kCounter, "count", FIELD(comm.async.batches)},
    {"kfac.factor_updates", kCounter, "count", FIELD(report.factors_updated),
     true},
    {"kfac.decomp_updates", kCounter, "count",
     FIELD(report.decompositions_updated), true},
    {"kfac.decomp_intra_tasks", kCounter, "count",
     FIELD(report.decomp_intra_tasks), true},
    {"kfac.decomp_inter_tasks", kCounter, "count",
     FIELD(report.decomp_inter_tasks), true},
    {"elastic.reformations", kCounter, "count",
     FIELD(sample.elastic_reformations)},
    {"elastic.skipped_factor_steps", kCounter, "count",
     FIELD(sample.elastic_skipped_factor_steps)},
    {"elastic.joins", kCounter, "count", FIELD(sample.elastic_joins)},
    {"elastic.respawns", kCounter, "count", FIELD(sample.elastic_respawns)},
    {"faultnet.injected.total", kCounter, "count", FIELD(faults.total)},
    {"faultnet.injected.refused", kCounter, "count", FIELD(faults.refused)},
    {"faultnet.injected.resets", kCounter, "count", FIELD(faults.resets)},
    {"faultnet.injected.stalls", kCounter, "count", FIELD(faults.stalls)},
    {"faultnet.injected.short_writes", kCounter, "count",
     FIELD(faults.short_writes)},
    {"faultnet.injected.bitflips", kCounter, "count", FIELD(faults.bitflips)},
    {"faultnet.injected.aborts", kCounter, "count", FIELD(faults.aborts)},

    {"train.loss", kGauge, "nats", FIELD(sample.loss)},
    {"train.accuracy", kGauge, "frac", FIELD(sample.accuracy)},
    {"train.lr", kGauge, "1", FIELD(sample.lr)},
    {"train.step_seconds", kGauge, "s", "span train.step"},
    {"data.load_seconds", kGauge, "s", "span data.load"},
    {"train.forward_seconds", kGauge, "s", "span train.forward"},
    {"train.backward_seconds", kGauge, "s", "span train.backward"},
    {"comm.grad.seconds", kGauge, "s", "span train.grad_comm"},
    {"train.apply_seconds", kGauge, "s", "span train.apply"},
    {"kfac.factor_seconds", kGauge, "s", "span kfac.factor_update"},
    {"kfac.decomposition_seconds", kGauge, "s", "span kfac.decomposition"},
    {"kfac.precondition_seconds", kGauge, "s", "span kfac.precondition"},
    {"comm.async.comm_seconds", kGauge, "s", FIELD(comm.async.comm_seconds)},
    {"comm.async.wait_seconds", kGauge, "s", FIELD(comm.async.wait_seconds)},
    // Hidden = collective time the main thread never blocked for; exposed
    // = the rest. Waiting longer than the collectives ran hides nothing.
    {"comm.overlap.hidden_seconds", kGauge, "s",
     FIELD(comm.async.overlap_won_seconds())},
    {"comm.overlap.exposed_seconds", kGauge, "s",
     "comm.async.comm_seconds - comm.async.overlap_won_seconds()",
     [](const StepInputs& in) {
       return in.comm.async.comm_seconds - in.comm.async.overlap_won_seconds();
     }},
};

#undef FIELD

}  // namespace

std::span<const MetricSpec> metric_schema() { return kSchema; }

StepMetricsLogger::StepMetricsLogger(const std::string& path) {
  if (!path.empty()) {
    out_.open(path, std::ios::trunc);
    if (!out_) throw Error("obs: cannot open metrics file for write: " + path);
  }
  Tracer& tracer = Tracer::instance();
  for (const MetricSpec& spec : kSchema) {
    Metric m{&spec};
    if (spec.source.starts_with(kSpanSource)) {
      DKFAC_CHECK(spec.kind == MetricKind::kGauge)
          << "span metric must be a gauge: " << spec.name;
      m.span = tracer.intern(spec.source.substr(kSpanSource.size()));
      m.last_ticks = tracer.thread_totals(m.span).ticks;
    }
    metrics_.push_back(m);
  }
  std::sort(metrics_.begin(), metrics_.end(),
            [](const Metric& a, const Metric& b) {
              return a.spec->name < b.spec->name;
            });
}

void StepMetricsLogger::record(const StepSample& sample,
                               const comm::CommStats& comm,
                               const kfac::KfacPreconditioner::StepReport* report,
                               const comm::ArenaStats& arena) {
  const kfac::KfacPreconditioner::StepReport no_kfac;
  const comm::net::faultnet::InjectCounts faults =
      comm::net::faultnet::counts();
  const StepInputs in{sample, comm, report != nullptr ? *report : no_kfac,
                      arena, faults};
  const Tracer& tracer = Tracer::instance();
  for (Metric& m : metrics_) {
    if (m.span != 0) {
      const Ticks now = tracer.thread_totals(m.span).ticks;
      m.gauge = static_cast<double>(now - m.last_ticks) * kSecondsPerTick;
      m.last_ticks = now;
    } else if (m.spec->kind == MetricKind::kCounter) {
      const auto value = static_cast<uint64_t>(m.spec->read(in));
      m.count = m.spec->per_step ? m.count + value : value;
    } else {
      m.gauge = m.spec->read(in);
    }
  }

  if (out_.is_open()) {
    out_ << "{\"step\":" << sample.step;
    char buf[48];
    for (const Metric& m : metrics_) {
      out_ << ",\"" << m.spec->name << "\":";
      if (m.spec->kind == MetricKind::kCounter) {
        out_ << m.count;
      } else if (!std::isfinite(m.gauge)) {
        out_ << "null";
      } else {
        // %.17g round-trips doubles but litters the file with noise
        // digits; %.9g keeps float32-sourced values exact and seconds at
        // nanosecond granularity, which is all the gauges carry.
        std::snprintf(buf, sizeof(buf), "%.9g", m.gauge);
        out_ << buf;
      }
    }
    out_ << "}\n";
    out_.flush();  // keep the file tailable while training runs
    // A full disk (or yanked volume) must not silently truncate the JSONL:
    // metrics are observability, so degrade to one logged warning instead
    // of failing the training step.
    if (!out_ && !write_failure_logged_) {
      write_failure_logged_ = true;
      DKFAC_LOG_WARN << "obs: metrics write failed (disk full?) — "
                        "further step records will be dropped";
    }
  }
}

double StepMetricsLogger::value(std::string_view name) const {
  const auto it = std::lower_bound(
      metrics_.begin(), metrics_.end(), name,
      [](const Metric& m, std::string_view key) { return m.spec->name < key; });
  if (it == metrics_.end() || it->spec->name != name) {
    throw Error("obs: unknown metric: " + std::string(name));
  }
  return it->spec->kind == MetricKind::kCounter
             ? static_cast<double>(it->count)
             : it->gauge;
}

}  // namespace dkfac::obs
