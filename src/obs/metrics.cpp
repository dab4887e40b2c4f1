#include "obs/metrics.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "comm/net/faultnet.hpp"

namespace dkfac::obs {

OverlapDerived derive_overlap(const comm::AsyncCommStats& async) {
  OverlapDerived out;
  out.hidden_seconds = async.overlap_won_seconds();
  out.exposed_seconds = async.comm_seconds - out.hidden_seconds;
  return out;
}

StepMetricsLogger::StepMetricsLogger(const std::string& path) {
  if (!path.empty()) {
    out_.open(path, std::ios::trunc);
    if (!out_) throw Error("obs: cannot open metrics file for write: " + path);
  }

  comm_allreduce_calls_ = &registry_.add_counter("comm.allreduce.calls");
  comm_allreduce_bytes_ = &registry_.add_counter("comm.allreduce.bytes");
  comm_allgather_calls_ = &registry_.add_counter("comm.allgather.calls");
  comm_allgather_bytes_ = &registry_.add_counter("comm.allgather.bytes");
  comm_broadcast_calls_ = &registry_.add_counter("comm.broadcast.calls");
  comm_broadcast_bytes_ = &registry_.add_counter("comm.broadcast.bytes");
  comm_wire_sent_bytes_ = &registry_.add_counter("comm.wire.sent_bytes");
  comm_wire_recv_bytes_ = &registry_.add_counter("comm.wire.recv_bytes");
  factor_dense_bytes_ = &registry_.add_counter("factor.dense_bytes");
  factor_packed_bytes_ = &registry_.add_counter("factor.packed_bytes");
  factor_encoded_bytes_ = &registry_.add_counter("factor.encoded_bytes");
  decomp_dense_bytes_ = &registry_.add_counter("decomp.dense_bytes");
  decomp_packed_bytes_ = &registry_.add_counter("decomp.packed_bytes");
  arena_bytes_reserved_ = &registry_.add_counter("arena.bytes_reserved");
  arena_steady_allocs_ = &registry_.add_counter("arena.steady_allocs");
  async_submitted_ = &registry_.add_counter("comm.async.submitted");
  async_batches_ = &registry_.add_counter("comm.async.batches");
  kfac_factor_updates_ = &registry_.add_counter("kfac.factor_updates");
  kfac_decomp_updates_ = &registry_.add_counter("kfac.decomp_updates");
  kfac_decomp_intra_ = &registry_.add_counter("kfac.decomp_intra_tasks");
  kfac_decomp_inter_ = &registry_.add_counter("kfac.decomp_inter_tasks");
  elastic_reformations_ = &registry_.add_counter("elastic.reformations");
  elastic_skipped_factor_steps_ =
      &registry_.add_counter("elastic.skipped_factor_steps");
  elastic_joins_ = &registry_.add_counter("elastic.joins");
  elastic_respawns_ = &registry_.add_counter("elastic.respawns");
  faultnet_total_ = &registry_.add_counter("faultnet.injected.total");
  faultnet_refused_ = &registry_.add_counter("faultnet.injected.refused");
  faultnet_resets_ = &registry_.add_counter("faultnet.injected.resets");
  faultnet_stalls_ = &registry_.add_counter("faultnet.injected.stalls");
  faultnet_short_writes_ =
      &registry_.add_counter("faultnet.injected.short_writes");
  faultnet_bitflips_ = &registry_.add_counter("faultnet.injected.bitflips");
  faultnet_aborts_ = &registry_.add_counter("faultnet.injected.aborts");

  train_loss_ = &registry_.add_gauge("train.loss");
  train_accuracy_ = &registry_.add_gauge("train.accuracy");
  train_lr_ = &registry_.add_gauge("train.lr");
  train_step_seconds_ = &registry_.add_gauge("train.step_seconds");
  data_load_seconds_ = &registry_.add_gauge("data.load_seconds");
  train_forward_seconds_ = &registry_.add_gauge("train.forward_seconds");
  train_backward_seconds_ = &registry_.add_gauge("train.backward_seconds");
  comm_grad_seconds_ = &registry_.add_gauge("comm.grad.seconds");
  train_apply_seconds_ = &registry_.add_gauge("train.apply_seconds");
  async_comm_seconds_ = &registry_.add_gauge("comm.async.comm_seconds");
  async_wait_seconds_ = &registry_.add_gauge("comm.async.wait_seconds");
  overlap_hidden_seconds_ =
      &registry_.add_gauge("comm.overlap.hidden_seconds");
  overlap_exposed_seconds_ =
      &registry_.add_gauge("comm.overlap.exposed_seconds");
  kfac_factor_seconds_ = &registry_.add_gauge("kfac.factor_seconds");
  kfac_decomposition_seconds_ =
      &registry_.add_gauge("kfac.decomposition_seconds");
  kfac_precondition_seconds_ =
      &registry_.add_gauge("kfac.precondition_seconds");
}

void StepMetricsLogger::record(const StepSample& sample,
                               const comm::CommStats& comm,
                               const kfac::KfacPreconditioner::StepReport* report,
                               const comm::ArenaStats& arena) {
  comm_allreduce_calls_->set(comm.allreduce_calls);
  comm_allreduce_bytes_->set(comm.allreduce_bytes);
  comm_allgather_calls_->set(comm.allgather_calls);
  comm_allgather_bytes_->set(comm.allgather_bytes);
  comm_broadcast_calls_->set(comm.broadcast_calls);
  comm_broadcast_bytes_->set(comm.broadcast_bytes);
  comm_wire_sent_bytes_->set(comm.wire_sent_bytes);
  comm_wire_recv_bytes_->set(comm.wire_recv_bytes);
  factor_dense_bytes_->set(comm.factor_dense_bytes);
  factor_packed_bytes_->set(comm.factor_packed_bytes);
  factor_encoded_bytes_->set(comm.factor_encoded_bytes);
  decomp_dense_bytes_->set(comm.decomp_dense_bytes);
  decomp_packed_bytes_->set(comm.decomp_packed_bytes);
  arena_bytes_reserved_->set(arena.bytes_reserved);
  arena_steady_allocs_->set(arena.steady_state_allocs);
  async_submitted_->set(comm.async.submitted);
  async_batches_->set(comm.async.batches);
  elastic_reformations_->set(sample.elastic_reformations);
  elastic_skipped_factor_steps_->set(sample.elastic_skipped_factor_steps);
  elastic_joins_->set(sample.elastic_joins);
  elastic_respawns_->set(sample.elastic_respawns);
  const comm::net::faultnet::InjectCounts faults =
      comm::net::faultnet::counts();
  faultnet_total_->set(faults.total);
  faultnet_refused_->set(faults.refused);
  faultnet_resets_->set(faults.resets);
  faultnet_stalls_->set(faults.stalls);
  faultnet_short_writes_->set(faults.short_writes);
  faultnet_bitflips_->set(faults.bitflips);
  faultnet_aborts_->set(faults.aborts);

  train_loss_->set(sample.loss);
  train_accuracy_->set(sample.accuracy);
  train_lr_->set(sample.lr);
  train_step_seconds_->set(sample.step_seconds);
  data_load_seconds_->set(sample.data_seconds);
  train_forward_seconds_->set(sample.forward_seconds);
  train_backward_seconds_->set(sample.backward_seconds);
  comm_grad_seconds_->set(sample.grad_comm_seconds);
  train_apply_seconds_->set(sample.apply_seconds);
  async_comm_seconds_->set(comm.async.comm_seconds);
  async_wait_seconds_->set(comm.async.wait_seconds);

  const OverlapDerived overlap = derive_overlap(comm.async);
  overlap_hidden_seconds_->set(overlap.hidden_seconds);
  overlap_exposed_seconds_->set(overlap.exposed_seconds);

  if (report != nullptr) {
    if (report->factors_updated) kfac_factor_updates_->add(1);
    if (report->decompositions_updated) kfac_decomp_updates_->add(1);
    kfac_decomp_intra_->add(
        static_cast<uint64_t>(report->decomp_intra_tasks));
    kfac_decomp_inter_->add(
        static_cast<uint64_t>(report->decomp_inter_tasks));
    kfac_factor_seconds_->set(report->factor_seconds);
    kfac_decomposition_seconds_->set(report->decomposition_seconds);
    kfac_precondition_seconds_->set(report->precondition_seconds);
  }

  if (out_.is_open()) {
    registry_.write_jsonl(out_, sample.step);
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

}  // namespace dkfac::obs
