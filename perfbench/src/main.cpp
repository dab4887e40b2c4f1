// perfbench binary: runs one workload's trials and prints their raw
// measurements as one JSON line; perfbench/run.py turns them into metrics.
//
//   perfbench --mode e2e|trace --seconds S --min-trials N key=value ...
//
// e2e:   untraced trials of dkfac::train::train_with_comm, timed from outside
//        through TrainConfig::step_probe / on_epoch_checkpoint, repeated
//        until S seconds have passed and at least N trials ran.
// trace: pairs of (untraced trial, traced-loop trial) on the same seed.
//
// Every trial runs in fresh processes (one forked trial process for self
// and thread ranks, one per rank on sockets) and sets the workload up from
// scratch: datasets, replicas, preconditioner and, on sockets, rendezvous
// and mesh.
#include <omp.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "comm/net/launch.hpp"
#include "comm/thread_comm.hpp"
#include "common/error.hpp"
#include "traced_loop.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using dkfac::Error;

/// RankReports in anonymous shared memory, so forked socket ranks write
/// straight into the launcher's view (thread ranks share it trivially).
class SharedReports {
 public:
  explicit SharedReports(int n) : n_(n) {
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw Error("mmap of rank reports failed");
    reports_ = static_cast<RankReport*>(p);
    for (int r = 0; r < n_; ++r) new (&reports_[r]) RankReport();
  }
  ~SharedReports() { ::munmap(reports_, bytes()); }
  SharedReports(const SharedReports&) = delete;
  SharedReports& operator=(const SharedReports&) = delete;

  RankReport& operator[](int r) { return reports_[r]; }

 private:
  size_t bytes() const { return sizeof(RankReport) * static_cast<size_t>(n_); }
  int n_;
  RankReport* reports_ = nullptr;
};

/// The product path: train_with_comm, observed only through its public
/// hooks (all installed on rank 0, none of which changes training).
void untraced_train(const Workload& w, dkfac::comm::Communicator& comm,
                    RankReport& out) {
  using namespace dkfac;
  out.enter_ns = now_ns();
  omp_set_num_threads(w.omp_threads);
  train::TrainConfig config = w.train_config();
  if (comm.rank() == 0) {
    config.step_probe = [&out](int epoch, int64_t) {
      if (out.steps >= kMaxSteps) return;
      out.step_ns[out.steps] = now_ns();
      out.step_epoch[out.steps] = epoch;
      ++out.steps;
    };
    config.on_epoch_checkpoint = [&out](int, nn::Layer&) {
      if (out.epochs < Workload::kEpochs) out.epoch_end_ns[out.epochs++] = now_ns();
    };
    config.on_trained_model = [&out](nn::Layer& model) {
      out.param_hash = hash_parameters(model);
    };
  }
  const train::TrainResult result =
      train::train_with_comm(w.model_factory(), w.data_spec(), config, comm);
  for (size_t e = 0; e < result.epochs.size() && e < Workload::kEpochs; ++e) {
    out.val_acc[e] = result.epochs[e].val_accuracy;
    out.train_loss[e] = result.epochs[e].train_loss;
  }
  out.steady_state_allocs = result.comm_stats.steady_state_allocs;
  out.arena_bytes_reserved = result.comm_stats.arena_bytes_reserved;
}

/// Runs `fn` in a forked process and waits for it, so every trial starts
/// from a fresh process (cold heap, its own peak RSS) like a real launch.
/// Call only while this process has no other threads.
void run_in_child(const std::function<void()>& fn) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw Error("fork of the trial process failed");
  if (pid == 0) {
    int code = 0;
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: trial: %s\n", e.what());
      code = 1;
    }
    std::fflush(stderr);
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw Error("trial process failed");
  }
}

template <typename T>
void json_array(std::ostringstream& os, const T* values, int n) {
  os << '[';
  for (int i = 0; i < n; ++i) os << (i ? "," : "") << values[i];
  os << ']';
}

/// Runs one trial and returns its raw measurements as a JSON object.
std::string run_trial(const Workload& w, bool traced) {
  SharedReports reports(w.ranks);
  const auto rank_fn = [&](dkfac::comm::Communicator& comm) {
    RankReport& out = reports[comm.rank()];
    if (traced) {
      traced_train(w, comm, out);
    } else {
      untraced_train(w, comm, out);
    }
    out.maxrss_kb = peak_rss_kb();
    out.done = 1;
  };

  // Peak RSS summed over every process of the workload: the trial process
  // for self/thread ranks; the launcher plus each forked rank on sockets.
  const int64_t start_ns = now_ns();
  int64_t rss_kb = 0;
  if (w.backend == Backend::kSocket) {
    const int status = dkfac::comm::net::run_ranks(
        w.ranks, [&](dkfac::comm::Communicator& comm) {
          rank_fn(comm);
          return 0;
        });
    if (status != 0) throw Error("socket ranks failed with exit code " + std::to_string(status));
    rss_kb = peak_rss_kb();
    for (int r = 0; r < w.ranks; ++r) rss_kb += reports[r].maxrss_kb;
  } else {
    run_in_child([&] {
      if (w.backend == Backend::kSelf) {
        dkfac::comm::SelfComm comm;
        rank_fn(comm);
      } else {
        dkfac::comm::LocalGroup group(w.ranks);
        group.run([&](int, dkfac::comm::Communicator& comm) { rank_fn(comm); });
      }
    });
    rss_kb = reports[0].maxrss_kb;
  }
  for (int r = 0; r < w.ranks; ++r) {
    if (!reports[r].done) throw Error("rank " + std::to_string(r) + " did not report");
  }

  std::ostringstream os;
  os.precision(9);
  const RankReport& lead = reports[0];
  os << "{\"start_ns\":" << start_ns << ",\"peak_rss_kb\":" << rss_kb
     << ",\"param_hash\":\"" << std::hex << lead.param_hash << std::dec << '"'
     << ",\"step_ns\":";
  json_array(os, lead.step_ns, lead.steps);
  os << ",\"step_epoch\":";
  json_array(os, lead.step_epoch, lead.steps);
  os << ",\"epoch_end_ns\":";
  json_array(os, lead.epoch_end_ns, lead.epochs);
  os << ",\"val_acc\":";
  json_array(os, lead.val_acc, lead.epochs);
  os << ",\"train_loss\":";
  json_array(os, lead.train_loss, lead.epochs);
  os << ",\"ranks\":[";
  for (int r = 0; r < w.ranks; ++r) {
    const RankReport& rep = reports[r];
    const RankReport::Traced& t = rep.traced;
    os << (r ? "," : "") << "{\"enter_ns\":" << rep.enter_ns
       << ",\"steady_state_allocs\":" << rep.steady_state_allocs
       << ",\"arena_bytes_reserved\":" << rep.arena_bytes_reserved;
    if (traced) {
      os << ",\"setup_data_ns\":" << t.setup_data_ns
         << ",\"setup_model_ns\":" << t.setup_model_ns
         << ",\"setup_kfac_ns\":" << t.setup_kfac_ns << ",\"warmup_ns\":" << t.warmup_ns
         << ",\"timed_steps\":" << t.timed_steps << ",\"step_ns_total\":" << t.step_ns_total
         << ",\"row_ns\":";
      json_array(os, t.row_ns, kRowCount);
      os << ",\"row_calls\":";
      json_array(os, t.row_calls, kRowCount);
      os << ",\"eval_ns\":" << t.eval_ns << ",\"eval_calls\":" << t.eval_calls
         << ",\"count_steps\":" << t.count_steps << ",\"calls\":" << t.calls
         << ",\"bytes\":" << t.bytes << ",\"wire_sent\":" << t.wire_sent
         << ",\"async_comm_s\":" << t.async_comm_s << ",\"async_wait_s\":" << t.async_wait_s
         << ",\"factor_updates\":" << t.factor_updates << ",\"factor_bytes\":" << t.factor_bytes
         << ",\"decomp_updates\":" << t.decomp_updates << ",\"sym_eig_ns\":" << t.sym_eig_ns;
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --mode e2e|trace --seconds S --min-trials N "
               "key=value ...\n");
  std::exit(2);
}

int run(int argc, char** argv) {
  std::string mode;
  double seconds = -1.0;
  int min_trials = 1;
  std::vector<std::string> workload_args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--mode") mode = next();
    else if (arg == "--seconds") seconds = std::atof(next().c_str());
    else if (arg == "--min-trials") min_trials = std::atoi(next().c_str());
    else if (arg.rfind("--", 0) == 0) usage();
    else workload_args.push_back(arg);
  }
  if ((mode != "e2e" && mode != "trace") || seconds < 0.0 || min_trials < 1) usage();
  const Workload w = Workload::parse(workload_args);

  const int cpus = usable_cpus();
  if (w.thread_budget() > cpus) {
    std::fprintf(stderr,
                 "perfbench: workload %s needs %d threads (ranks x omp_threads "
                 "+ executor threads) but only %d CPUs are usable\n",
                 w.name.c_str(), w.thread_budget(), cpus);
    return 3;
  }

  const int64_t begin = now_ns();
  std::ostringstream os;
  os << "{\"mode\":\"" << mode << "\",\"fixed\":" << Workload::fixed_json()
     << ",\"trials\":[";
  int trials = 0;
  while (trials < min_trials ||
         static_cast<double>(now_ns() - begin) / 1e9 < seconds) {
    if (trials > 0) os << ',';
    if (mode == "trace") {
      os << run_trial(w, /*traced=*/false) << ',' << run_trial(w, /*traced=*/true);
    } else {
      os << run_trial(w, /*traced=*/false);
    }
    ++trials;
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
