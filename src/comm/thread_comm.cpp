#include "comm/thread_comm.hpp"

#include <exception>
#include <thread>

#include "common/error.hpp"

namespace dkfac::comm {

Communicator::Views ThreadComm::exchange(std::span<const float> send) {
  // Publish this rank's view, wait for everyone's, and read them all in
  // place: no rank overwrites its slot or its buffer before
  // end_exchange()'s barrier.
  auto& st = *state_;
  st.slots[static_cast<size_t>(rank_)] = send;
  st.barrier.arrive_and_wait();
  return st.slots;
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
