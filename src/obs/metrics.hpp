// Bridges the repo's existing stat structs (comm::CommStats,
// kfac::KfacPreconditioner::StepReport, comm::ArenaStats) into an
// obs::Registry under stable dotted names and streams one JSONL record
// per training step. Also derives the paper's Fig. 4 quantity —
// communication hidden behind backprop vs exposed — from trace-span
// aggregates when tracing is on, falling back to the AsyncCommStats
// timers when it is not.
#pragma once

#include <fstream>
#include <string>

#include "comm/arena.hpp"
#include "comm/communicator.hpp"
#include "core/preconditioner.hpp"
#include "obs/registry.hpp"

namespace dkfac::obs {

/// Per-step scalars the trainer hands the logger (everything not already
/// carried by a stats struct).
struct StepSample {
  uint64_t step = 0;   ///< global step index (monotonic across epochs)
  uint64_t epoch = 0;
  double loss = 0.0;
  double accuracy = 0.0;      ///< running train accuracy this epoch
  double lr = 0.0;
  double step_seconds = 0.0;
  double data_seconds = 0.0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double grad_comm_seconds = 0.0;  ///< synchronous grad-comm wall time
  double apply_seconds = 0.0;      ///< optimizer + K-FAC apply
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

/// Communication overlap split: hidden = collective time the main thread
/// never blocked for; exposed = time it did.
struct OverlapDerived {
  double hidden_seconds = 0.0;
  double exposed_seconds = 0.0;
};

/// Derives the overlap split from the executor's per-rank AsyncCommStats
/// timers (hidden is exactly overlap_won_seconds()). The trace's span
/// aggregates are per process — on thread ranks they sum every rank — so
/// they are not used here.
OverlapDerived derive_overlap(const comm::AsyncCommStats& async);

/// Owns a Registry wired with the full dotted-name schema plus the output
/// stream for `train_cli --metrics <path>`. One record() call per step.
class StepMetricsLogger {
 public:
  /// Opens `path` for truncating write; throws dkfac::Error on failure.
  /// An empty path constructs a disabled logger (record() still updates
  /// the registry — tests read it — but writes nothing).
  explicit StepMetricsLogger(const std::string& path);

  /// Updates every metric from this step's stats and appends one JSONL
  /// line. `report` may be null (K-FAC off); `arena` is the summed
  /// comm-path arena stats.
  void record(const StepSample& sample, const comm::CommStats& comm,
              const kfac::KfacPreconditioner::StepReport* report,
              const comm::ArenaStats& arena);

  Registry& registry() { return registry_; }
  bool writing() const { return out_.is_open(); }

 private:
  Registry registry_;
  std::ofstream out_;
  /// A failed JSONL write has been reported (warn once, not per step —
  /// metrics are observability, so a full disk degrades to a warning
  /// instead of killing the training run).
  bool write_failure_logged_ = false;

  // Counters (cumulative, set from the cumulative CommStats each step).
  Registry::Counter* comm_allreduce_calls_;
  Registry::Counter* comm_allreduce_bytes_;
  Registry::Counter* comm_allgather_calls_;
  Registry::Counter* comm_allgather_bytes_;
  Registry::Counter* comm_broadcast_calls_;
  Registry::Counter* comm_broadcast_bytes_;
  Registry::Counter* comm_wire_sent_bytes_;
  Registry::Counter* comm_wire_recv_bytes_;
  Registry::Counter* factor_dense_bytes_;
  Registry::Counter* factor_packed_bytes_;
  Registry::Counter* factor_encoded_bytes_;
  Registry::Counter* decomp_dense_bytes_;
  Registry::Counter* decomp_packed_bytes_;
  Registry::Counter* arena_bytes_reserved_;
  Registry::Counter* arena_steady_allocs_;
  Registry::Counter* async_submitted_;
  Registry::Counter* async_batches_;
  Registry::Counter* kfac_factor_updates_;
  Registry::Counter* kfac_decomp_updates_;
  Registry::Counter* kfac_decomp_intra_;
  Registry::Counter* kfac_decomp_inter_;
  Registry::Counter* elastic_reformations_;
  Registry::Counter* elastic_skipped_factor_steps_;
  Registry::Counter* elastic_joins_;
  Registry::Counter* elastic_respawns_;
  // faultnet injection counters, read straight from the global faultnet
  // atomics at record() time (zero when no plan is armed).
  Registry::Counter* faultnet_total_;
  Registry::Counter* faultnet_refused_;
  Registry::Counter* faultnet_resets_;
  Registry::Counter* faultnet_stalls_;
  Registry::Counter* faultnet_short_writes_;
  Registry::Counter* faultnet_bitflips_;
  Registry::Counter* faultnet_aborts_;

  // Gauges (this step's values).
  Registry::Gauge* train_loss_;
  Registry::Gauge* train_accuracy_;
  Registry::Gauge* train_lr_;
  Registry::Gauge* train_step_seconds_;
  Registry::Gauge* data_load_seconds_;
  Registry::Gauge* train_forward_seconds_;
  Registry::Gauge* train_backward_seconds_;
  Registry::Gauge* comm_grad_seconds_;
  Registry::Gauge* train_apply_seconds_;
  Registry::Gauge* async_comm_seconds_;
  Registry::Gauge* async_wait_seconds_;
  Registry::Gauge* overlap_hidden_seconds_;
  Registry::Gauge* overlap_exposed_seconds_;
  Registry::Gauge* kfac_factor_seconds_;
  Registry::Gauge* kfac_decomposition_seconds_;
  Registry::Gauge* kfac_precondition_seconds_;
};

}  // namespace dkfac::obs
