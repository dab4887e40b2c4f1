#include "comm/thread_comm.hpp"

#include <exception>
#include <thread>

#include "common/error.hpp"

namespace dkfac::comm {

void ThreadComm::allreduce(std::span<float> data, ReduceOp op) {
  auto& st = *state_;
  stats_.allreduce_calls++;
  stats_.allreduce_bytes += data.size_bytes();
  if (st.size == 1) return;

  // Publish this rank's buffer, wait for everyone, then every rank reduces
  // all contributions in rank order into a private scratch buffer. Doing
  // the full reduction on every rank (instead of scatter-reduce) costs
  // O(P·n) per rank but is deterministic and identical across ranks, which
  // the reproducibility tests rely on.
  st.send_slots[static_cast<size_t>(rank_)] = data;
  st.barrier.arrive_and_wait();

  // Rank 0's contribution seeds the scratch, so no zero-fill pass is needed
  // and the buffer can be reused allocation-free across calls. The fold
  // itself is the shared fold_contribution/finish_reduce — the definition
  // every backend (and the encoded collective) must match bit for bit.
  reduce_scratch_.resize(data.size());
  std::vector<float>& result = reduce_scratch_;
  for (int r = 0; r < st.size; ++r) {
    const auto src = st.send_slots[static_cast<size_t>(r)];
    DKFAC_CHECK(src.size() == data.size())
        << "allreduce length mismatch: rank " << r << " sent " << src.size()
        << " elements, rank " << rank_ << " sent " << data.size();
    if (r == 0) {
      std::copy(src.begin(), src.end(), result.begin());
    } else {
      fold_contribution(result, src, op);
    }
  }
  finish_reduce(result, op, st.size);

  // All ranks finished reading every slot before anyone overwrites `data`.
  st.barrier.arrive_and_wait();
  std::copy(result.begin(), result.end(), data.begin());
  st.barrier.arrive_and_wait();
}

void ThreadComm::allgather_into(std::span<const float> send,
                                std::vector<float>& recv) {
  auto& st = *state_;
  stats_.allgather_calls++;
  stats_.allgather_bytes += send.size_bytes();
  if (st.size == 1) {
    recv.assign(send.begin(), send.end());
    return;
  }

  st.send_slots[static_cast<size_t>(rank_)] = send;
  st.barrier.arrive_and_wait();

  size_t total = 0;
  for (int r = 0; r < st.size; ++r) total += st.send_slots[static_cast<size_t>(r)].size();
  // resize + positional copy (not clear/insert) so a warm caller-owned
  // buffer of the right capacity is refilled without touching the heap.
  recv.resize(total);
  size_t offset = 0;
  for (int r = 0; r < st.size; ++r) {
    const auto src = st.send_slots[static_cast<size_t>(r)];
    std::copy(src.begin(), src.end(), recv.begin() + static_cast<ptrdiff_t>(offset));
    offset += src.size();
  }

  st.barrier.arrive_and_wait();
}

void ThreadComm::broadcast(std::span<float> data, int root) {
  auto& st = *state_;
  DKFAC_CHECK(root >= 0 && root < st.size)
      << "broadcast root " << root << " out of range for size " << st.size;
  stats_.broadcast_calls++;
  // Cross-backend payload convention (see CommStats): the root injected
  // the payload, receiving ranks contributed nothing. Counting on every
  // rank would inflate the group-wide sum p× relative to allreduce and
  // allgather, whose counters already sum to the injected payload.
  if (rank_ == root) stats_.broadcast_bytes += data.size_bytes();
  if (st.size == 1) return;

  if (rank_ == root) {
    st.send_slots[static_cast<size_t>(root)] = data;
  }
  st.barrier.arrive_and_wait();

  if (rank_ != root) {
    const auto src = st.send_slots[static_cast<size_t>(root)];
    DKFAC_CHECK(src.size() == data.size())
        << "broadcast length mismatch: root sent " << src.size()
        << ", rank " << rank_ << " expected " << data.size();
    std::copy(src.begin(), src.end(), data.begin());
  }
  st.barrier.arrive_and_wait();
}

LocalGroup::LocalGroup(int size)
    : state_(std::make_shared<detail::GroupState>(size)) {
  DKFAC_CHECK(size >= 1) << "LocalGroup needs at least one rank";
  comms_.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) {
    comms_.emplace_back(new ThreadComm(r, state_));
  }
}

Communicator& LocalGroup::comm(int rank) {
  DKFAC_CHECK(rank >= 0 && rank < size())
      << "rank " << rank << " out of range for group of size " << size();
  return *comms_[static_cast<size_t>(rank)];
}

void LocalGroup::run(const std::function<void(int, Communicator&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(size()));
  threads.reserve(static_cast<size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    threads.emplace_back([this, r, &fn, &errors] {
      try {
        fn(r, comm(r));
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace dkfac::comm
