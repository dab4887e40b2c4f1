// Multi-process rank launcher for the socket backend.
//
// run_ranks(n, fn) is the SPMD entry point behind `train_cli --backend
// socket` and the multi-process tests: the calling process binds a
// rendezvous server, forks n children, and each child builds a SocketComm
// through the rendezvous and runs fn(comm). Child i requests rank i, so
// rank == fork index whenever that matters (it never does for
// correctness — ranks are symmetric).
//
//   parent                        child i (fork)
//   ------                        -------------
//   RendezvousServer bind
//   fork × n          ──────▶     close inherited listener
//   serve(n)          ◀─hello──   SocketComm{port, world=n, rank=i}
//                     ──welcome▶    ... peer mesh ...
//   waitpid × n                   exit(fn(comm))
//
// Exit-code contract: run_ranks returns 0 iff every child returned 0.
// A child that throws dkfac::Error exits 1 (message on stderr); a child
// killed by a signal surfaces as 128+signo, mirroring the shell
// convention. If the rendezvous times out (a child died before
// registering), remaining children are SIGKILLed, everything is reaped,
// and the Error propagates — the launcher never leaks processes and never
// hangs on a dead group.
//
// fork() safety: call run_ranks before the process spawns threads (gtest
// cases and CLI mains do). Children may use OpenMP freely — each starts
// with a fresh runtime.
#pragma once

#include <sys/types.h>

#include <functional>

#include "comm/net/socket_comm.hpp"

namespace dkfac::comm::net {

struct LaunchOptions {
  /// How long the group may take to assemble (covers child fork + CTor).
  double rendezvous_timeout_s = 30.0;
  /// Per-operation network deadline inside the children's SocketComm —
  /// an upper bound on the compute imbalance between ranks at any
  /// collective, not on total runtime.
  double comm_timeout_s = 120.0;
  /// After the first abnormal child exit the survivors get SIGTERM; any
  /// still alive this many seconds later get SIGKILL. Keeps the launcher's
  /// return prompt instead of waiting out every survivor's comm deadline.
  double term_grace_s = 2.0;
  CostModel cost = CostModel::loopback_tcp();
};

/// Forks `nranks` processes, each running `fn` on its own SocketComm
/// endpoint, and returns the aggregated exit status (0 = all succeeded,
/// else the first failing child's code). Throws dkfac::Error if the group
/// never assembles.
int run_ranks(int nranks, const std::function<int(Communicator&)>& fn,
              const LaunchOptions& options = {});

/// The exit code of a child reaped by waitpid(), which returned `waited`
/// and filled `status`: the child's exit status, 128+signo if a signal
/// killed it (the shell convention), or 1 if waitpid failed.
int exit_code(pid_t waited, int status);

}  // namespace dkfac::comm::net
