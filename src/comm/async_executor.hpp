// Asynchronous collective pipeline (Horovod §II-D fidelity).
//
// Horovod hides gradient communication behind backprop compute: each
// tensor is submitted to a background thread the moment its gradient is
// ready, the background thread fuses pending tensors into buffer-sized
// batches, and the training thread only blocks at the synchronisation
// point before the optimizer step. AsyncExecutor gives dkfac the same
// machinery over any Communicator:
//
//   main thread                      worker thread
//   -----------                      -------------
//   submit(view, op)  ──ready──▶     pop → pack into FusionBuffer
//   submit(view, op)  ──queue──▶     pop → pack
//   ... keeps computing ...          batch full → allreduce (overlaps!)
//   wait()            ──flush──▶     execute partial batch
//        ◀── all tickets complete ──
//
// Determinism contract: batch boundaries are a pure function of the
// submission sequence (eager/capacity thresholds, op or precision change,
// flush marker) — never of timing — so every rank of an SPMD program that
// submits the same sequence issues byte-identical collectives in the
// same order. Horovod instead negotiates readiness through a coordinator
// rank; the deterministic rule needs no negotiation traffic and keeps
// runs bit-reproducible. The reduction itself is elementwise, so results
// are bitwise identical to a synchronous fused allreduce regardless of
// how batches are cut.
//
// The eager threshold trades fusion against overlap: a batch is launched
// as soon as `eager_bytes` have accumulated (don't sit on ready tensors —
// start hiding them behind compute), while `capacity_bytes` bounds how
// large any one collective can grow. Low-latency fabrics (the thread
// backend) want a small eager threshold; high-latency ones want it near
// the cost model's bandwidth-dominated chunk size.
//
// Threading contract: submit()/wait() are single-caller (the training
// thread). While submissions are pending, the owning thread must not
// issue collectives directly on the same Communicator — call wait()
// first. With a rendezvous-backed communicator (ThreadComm), tear down
// symmetrically across ranks or wait() before destruction; the
// destructor drains pending work.
//
// Error scope: a worker exception is held sticky and rethrown from
// wait(); batches after the failure are discarded. Like every
// rendezvous collective in this codebase (the synchronous path
// included), a failure on ONE rank of a multi-rank group leaves peers
// blocked at the rendezvous — there is no cross-rank cancellation. The
// CTest per-case timeout is the backstop for that; single-rank error
// paths recover cleanly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <span>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/fusion.hpp"

namespace dkfac::comm {

class AsyncExecutor {
 public:
  /// `capacity_bytes` bounds each fused batch, like FusionBuffer's knob.
  /// `eager_bytes` is the launch threshold (0 → capacity_bytes / 4).
  explicit AsyncExecutor(Communicator& comm, size_t capacity_bytes = 32 << 20,
                         size_t eager_bytes = 0);

  /// Drains every pending submission (so late factor traffic still lands),
  /// then joins the worker. After an error, undone work is discarded.
  ~AsyncExecutor();

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  /// Enqueues one allreduce. The view's memory must stay valid until
  /// wait() (or the destructor) returns; arena-backed views are
  /// epoch-checked when the worker touches them, so a view whose arena was
  /// reset mid-flight surfaces as the sticky error at the next wait().
  /// Cheap: no collective runs on the calling thread. The view's
  /// precision tag declares its wire format (kFp16/kBf16 for a
  /// comm::Codec bit-packed payload); like an op change, a precision
  /// change is a deterministic batch boundary, so each fused collective
  /// stays uniform.
  void submit(const BufferView& view, ReduceOp op);
  void submit(std::span<float> view, ReduceOp op,
              Precision precision = Precision::kFp32) {
    submit(BufferView(view, precision), op);
  }
  void submit(Tensor& t, ReduceOp op) { submit(t.span(), op); }

  /// Blocks until every prior submission has been reduced and written
  /// back. Rethrows the first exception the worker hit (sticky: later
  /// waits rethrow it too). Safe to call with nothing pending.
  void wait();

  /// True while submissions may still be in flight — the owning thread
  /// must wait() before issuing direct collectives on the communicator.
  bool pending() const;

  using Stats = AsyncCommStats;
  Stats stats() const;

  /// Declares warm-up over for the internal fusion staging arena.
  void mark_steady_state() { fusion_.mark_steady_state(); }
  ArenaStats arena_stats() const { return fusion_.arena_stats(); }

 private:
  struct Item {
    BufferView view;
    ReduceOp op = ReduceOp::kSum;
    bool flush = false;
    uint64_t ticket = 0;
  };

  void worker_loop();
  /// Reduces the accumulated batch (one fused execute) and completes its
  /// tickets. Called only from the worker.
  void execute_batch(std::vector<Item>& batch, size_t& batch_bytes);

  Communicator& comm_;
  // Thresholds in bytes of the transport representation — the unit that
  // stays truthful when fp32 and bit-packed 16-bit payloads share the
  // queue (an element count would silently mis-chunk mixed widths).
  const size_t capacity_bytes_;
  const size_t eager_bytes_;
  FusionBuffer fusion_;  // worker-thread only

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable ticket_done_;
  std::deque<Item> queue_;
  uint64_t next_ticket_ = 0;
  uint64_t completed_ticket_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  Stats stats_;

  std::thread worker_;
};

}  // namespace dkfac::comm
