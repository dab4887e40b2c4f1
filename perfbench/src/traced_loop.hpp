// The benchmark's traced step loop: a line-for-line mirror of
// dkfac::train::train_with_comm that calls each layer's public functions
// in the trainer's order and wraps every call in a span owned by the
// benchmark. The spans give the per-layer rows; the final parameters are
// hashed so perfbench/run.py can check that the mirror computed exactly
// what train_with_comm computes for the same seed.
#pragma once

#include "comm/communicator.hpp"
#include "workload.hpp"

namespace perfbench {

/// Runs one rank of the traced loop for `w` on `comm`, filling `out`.
void traced_train(const Workload& w, dkfac::comm::Communicator& comm,
                  RankReport& out);

}  // namespace perfbench
