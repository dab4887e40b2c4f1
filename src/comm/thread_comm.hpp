// Thread-backed collective group: N ranks = N threads over shared memory.
//
// Semantics match an MPI/Horovod communicator: every collective is a
// synchronisation point, contributions are combined in rank order (so runs
// are bit-reproducible regardless of thread scheduling), and each rank owns
// its Communicator object. ThreadComm is only a transport (see
// communicator.hpp): its exchange publishes a view of each rank's buffer in
// a shared slot, and ranks read each other's in place. Every collective
// is one exchange and waits in one detail::Barrier twice: once to publish,
// once to release at end_exchange.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "comm/communicator.hpp"

namespace dkfac::comm {

namespace detail {

/// Reusable sense-counting barrier for a fixed set of participants.
class Barrier {
 public:
  explicit Barrier(int participants) : participants_(participants) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const uint64_t my_generation = generation_;
    if (++arrived_ == participants_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != my_generation; });
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int participants_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

/// State shared by all ranks of one LocalGroup.
struct GroupState {
  explicit GroupState(int size)
      : size(size), barrier(size), slots(static_cast<size_t>(size)) {}

  int size;
  Barrier barrier;
  // Published per-rank views for the collective in flight.
  std::vector<std::span<const float>> slots;
};

}  // namespace detail

class LocalGroup;

/// One rank's endpoint in a LocalGroup.
class ThreadComm final : public Communicator {
 public:
  int rank() const override { return rank_; }
  int size() const override { return state_->size; }

  /// Shared-memory fabric: near-zero launch latency, memcpy bandwidth —
  /// the tuning everything above the collectives derives from.
  const CostModel& cost_model() const override {
    static const CostModel kModel = CostModel::shared_memory();
    return kModel;
  }

 protected:
  Views exchange(std::span<const float> send) override;
  void end_exchange() override { state_->barrier.arrive_and_wait(); }

 private:
  friend class LocalGroup;
  ThreadComm(int rank, std::shared_ptr<detail::GroupState> state)
      : rank_(rank), state_(std::move(state)) {}

  int rank_;
  std::shared_ptr<detail::GroupState> state_;
};

/// Factory/owner of a fixed-size thread communicator group.
class LocalGroup {
 public:
  explicit LocalGroup(int size);

  int size() const { return state_->size; }

  /// The communicator endpoint for `rank`. Each rank must only be used from
  /// one thread at a time.
  Communicator& comm(int rank);

  /// Convenience SPMD launcher: spawns size() threads, each running
  /// fn(rank, comm-for-rank); rethrows the first exception after joining.
  void run(const std::function<void(int rank, Communicator& comm)>& fn);

 private:
  std::shared_ptr<detail::GroupState> state_;
  std::vector<std::unique_ptr<ThreadComm>> comms_;
};

}  // namespace dkfac::comm
