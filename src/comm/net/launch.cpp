#include "comm/net/launch.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <vector>

#include "comm/net/rendezvous.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"

namespace dkfac::comm::net {

namespace {

/// Runs one rank inside the freshly forked child. Never returns.
[[noreturn]] void child_main(int rank, int nranks, uint16_t rendezvous_port,
                             const LaunchOptions& options,
                             const std::function<int(Communicator&)>& fn) {
  int code = 1;
  try {
    SocketOptions sopts;
    sopts.rendezvous_port = rendezvous_port;
    sopts.world_size = nranks;
    sopts.requested_rank = rank;
    sopts.timeout_s = options.comm_timeout_s;
    sopts.cost = options.cost;
    SocketComm comm(sopts);
    code = fn(comm);
  } catch (const Error& e) {
    std::fprintf(stderr, "[rank %d] error: %s\n", rank, e.what());
    code = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d] error: %s\n", rank, e.what());
    code = 1;
  }
  // Flush inherited stdio, then leave without running atexit handlers —
  // the parent's (gtest's, the CLI's) teardown belongs to the parent.
  std::fflush(stdout);
  std::fflush(stderr);
  _exit(code);
}

}  // namespace

int exit_code(pid_t waited, int status) {
  if (waited < 0) return 1;  // the child is unaccountably gone
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 0;
}

int run_ranks(int nranks, const std::function<int(Communicator&)>& fn,
              const LaunchOptions& options) {
  DKFAC_CHECK(nranks >= 1) << "run_ranks needs at least one rank";

  RendezvousServer server;
  std::vector<pid_t> children;
  children.reserve(static_cast<size_t>(nranks));

  // Parent-side stdio must be flushed before forking, or every child
  // inherits (and later flushes) the same buffered bytes.
  std::fflush(stdout);
  std::fflush(stderr);
  for (int i = 0; i < nranks; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (pid_t child : children) ::kill(child, SIGKILL);
      for (pid_t child : children) ::waitpid(child, nullptr, 0);
      throw Error("run_ranks: fork failed");
    }
    if (pid == 0) {
      server.close();  // only the launcher accepts rendezvous connections
      child_main(i, nranks, server.port(), options, fn);
    }
    children.push_back(pid);
  }

  try {
    server.serve(nranks, options.rendezvous_timeout_s);
  } catch (...) {
    // The group never assembled (a child died or wedged before
    // registering). Kill and reap everything so no rank outlives the
    // launcher, then let the rendezvous error explain what happened.
    for (pid_t child : children) ::kill(child, SIGKILL);
    for (pid_t child : children) ::waitpid(child, nullptr, 0);
    throw;
  }

  // Reap with WNOHANG polling instead of blocking in rank order: a crashed
  // rank 3 must not leave ranks 0–2 reap-blocked until their comm deadline
  // expires. The first ABNORMAL exit records the failure code and SIGTERMs
  // the survivors (SIGKILL after the grace period), so the launcher
  // returns promptly with the real failure, not a cascade of timeouts.
  int first_failure = 0;
  std::vector<pid_t> alive = children;
  bool terminated = false;
  bool killed = false;
  std::optional<Clock::time_point> term_at;
  while (!alive.empty()) {
    bool progressed = false;
    for (auto it = alive.begin(); it != alive.end();) {
      int status = 0;
      const pid_t r = ::waitpid(*it, &status, WNOHANG);
      if (r == 0) {
        ++it;
        continue;
      }
      progressed = true;
      const int code = exit_code(r, status);
      if (code != 0 && first_failure == 0) first_failure = code;
      it = alive.erase(it);
    }
    if (alive.empty()) break;
    if (first_failure != 0) {
      if (!terminated) {
        for (pid_t child : alive) ::kill(child, SIGTERM);
        terminated = true;
        term_at = Clock::now();
      } else if (!killed && seconds_since(*term_at) > options.term_grace_s) {
        for (pid_t child : alive) ::kill(child, SIGKILL);
        killed = true;
      }
    }
    if (!progressed) ::usleep(10000);  // 10 ms between reap sweeps
  }
  return first_failure;
}

}  // namespace dkfac::comm::net
