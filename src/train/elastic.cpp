#include "train/elastic.hpp"

#include <omp.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "comm/net/launch.hpp"
#include "comm/net/rendezvous.hpp"
#include "comm/net/socket_comm.hpp"
#include "comm/net/wire.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"

namespace dkfac::train::elastic {

namespace {

constexpr char kElasticMagic[4] = {'D', 'K', 'E', 'L'};
constexpr char kElasticFooterMagic[4] = {'D', 'K', 'E', 'F'};
constexpr uint32_t kElasticVersion = 2;
constexpr size_t kHeaderBytes = 4 + sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kFooterBytes = 4 + sizeof(uint32_t);

/// SIGTERM → SIGKILL grace when the supervisor stops what is left of a
/// group.
constexpr double kTermGraceSeconds = 2.0;

/// Runaway guard on cooperative regrow re-formations per child: the
/// supervisor only nudges while a joiner is actually parked, so a healthy
/// run sees at most a handful; an endless nudge loop is a supervisor bug
/// this converts from a livelock into a clean failure.
constexpr int kMaxRegrows = 64;

/// SIGUSR1 from the supervisor: "a joiner is waiting — re-form at your
/// next step". Read (and cleared) by TrainConfig::reform_poll.
volatile std::sig_atomic_t g_regrow_requested = 0;

void on_sigusr1(int) { g_regrow_requested = 1; }

/// Slurps `path`; empty optional when it cannot be opened.
std::optional<std::string> slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return buf.str();
}

/// Validates a whole checkpoint image end to end: DKEL header, DKEF footer
/// and the CRC-32 of everything before the footer. Returns the epoch tag,
/// or nullopt for anything torn, truncated or bit-flipped.
std::optional<int> validate_image(const std::string& bytes) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) return std::nullopt;
  if (std::memcmp(bytes.data(), kElasticMagic, sizeof(kElasticMagic)) != 0) {
    return std::nullopt;
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kElasticVersion) return std::nullopt;
  uint64_t epoch = 0;
  std::memcpy(&epoch, bytes.data() + 8, sizeof(epoch));
  if (epoch > (1u << 30)) return std::nullopt;
  const size_t footer_at = bytes.size() - kFooterBytes;
  if (std::memcmp(bytes.data() + footer_at, kElasticFooterMagic,
                  sizeof(kElasticFooterMagic)) != 0) {
    return std::nullopt;
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + footer_at + 4, sizeof(stored_crc));
  const uint32_t actual_crc = comm::net::crc32(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()), footer_at));
  if (stored_crc != actual_crc) return std::nullopt;
  return static_cast<int>(epoch);
}

/// The machine-readable summary rank 0 of the finishing generation
/// publishes for the supervisor (key=value lines, written atomically so a
/// child dying mid-publish can never leave a half-truth).
void publish_result(const std::string& result_path, const TrainResult& result,
                    int generation, int world, uint64_t total_skips) {
  std::ostringstream body;
  body << std::setprecision(9);
  body << "train_loss="
       << (result.epochs.empty() ? 0.0f : result.epochs.back().train_loss)
       << "\n";
  body << "val_accuracy=" << result.final_val_accuracy << "\n";
  body << "reformations=" << generation << "\n";
  body << "skipped_factor_steps=" << total_skips << "\n";
  body << "world=" << world << "\n";
  const std::string tmp = result_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    DKFAC_CHECK(out.is_open()) << "cannot open " << tmp << " for writing";
    out << body.str();
    out.flush();
    DKFAC_CHECK(out.good()) << "elastic result write failed: " << tmp;
  }
  nn::commit_file(tmp, result_path);
}

/// The child's lifetime: (re-)rendezvous, (re-)train, until the job
/// completes or recovery is exhausted. Exit codes: 0 success, 1 training
/// error, 2 re-formations exhausted, 3 rendezvous unreachable.
int elastic_worker(int child_index, bool is_respawn, uint16_t rendezvous_port,
                   const ModelFactory& factory,
                   const data::SyntheticSpec& data_spec,
                   const TrainConfig& base, const ElasticOptions& opts) {
  int attempts = 0;  // peer-failure re-formations (bounded by the options)
  int regrows = 0;   // cooperative regrow re-formations (runaway-guarded)
  uint64_t carried_skips = 0;
  uint64_t joins = 0;
  int prev_world = -1;
  bool lost_a_peer = false;     // last teardown was a PeerFailure
  bool regrow_rebuild = false;  // last teardown was a RegrowRequest
  while (true) {
    std::unique_ptr<comm::net::SocketComm> comm;
    auto build_comm = [&] {
      comm::net::SocketOptions sopts;
      sopts.rendezvous_port = rendezvous_port;
      sopts.elastic = true;
      sopts.requested_rank = child_index;
      sopts.timeout_s = opts.comm_timeout_s;
      // A re-registration must outwait every survivor's in-flight
      // collective timing out before the shrunk group can assemble.
      sopts.rendezvous_timeout_s =
          std::max(opts.rendezvous_timeout_s, 2.0 * opts.comm_timeout_s + 5.0);
      sopts.cost = opts.cost;
      comm = std::make_unique<comm::net::SocketComm>(sopts);
    };
    try {
      if (regrow_rebuild) {
        DKFAC_TRACE_SCOPE("elastic.regrow");
        build_comm();
      } else if (attempts > 0) {
        DKFAC_TRACE_SCOPE("elastic.reformation");
        build_comm();
      } else {
        build_comm();
      }
    } catch (const Error& e) {
      // The supervisor is gone or the group can no longer assemble —
      // there is nothing left to retry against.
      std::fprintf(stderr, "[elastic child %d] rendezvous failed: %s\n",
                   child_index, e.what());
      return 3;
    }
    // This generation starts clean: a nudge consumed by the rendezvous we
    // just completed is satisfied, and the supervisor re-nudges every
    // second while a joiner is still parked, so a cleared flag that was
    // actually still needed self-corrects.
    g_regrow_requested = 0;
    regrow_rebuild = false;

    const int generation = comm->generation();
    const int rank = comm->rank();
    const int world = comm->size();
    // A world larger than the one we expected after the last teardown
    // (previous size, minus the casualty if we left on a peer failure)
    // means joiners were admitted at this generation boundary.
    if (prev_world >= 0) {
      const int expected = prev_world - (lost_a_peer ? 1 : 0);
      if (world > expected) joins += static_cast<uint64_t>(world - expected);
    }
    prev_world = world;
    lost_a_peer = false;

    // Re-divide the cores among however many ranks remain — a shrunk
    // group gets bigger per-rank OpenMP teams.
    omp_set_num_threads(omp_threads_per_rank(world));
    TrainConfig config = base;
    config.elastic_reformations = static_cast<uint64_t>(generation);
    config.skipped_factor_steps_baseline = carried_skips;
    config.elastic_joins = joins;
    config.elastic_respawns = is_respawn ? 1 : 0;
    config.on_epoch_checkpoint = [&opts](int epoch, nn::Layer& model) {
      save_elastic_checkpoint(model, epoch, opts.checkpoint_path);
    };
    config.reform_poll = [] {
      if (g_regrow_requested == 0) return false;
      g_regrow_requested = 0;
      return true;
    };
    // A corrupt newest checkpoint with no intact `.prev` throws a typed
    // Error here, which exits this child with code 1 — never a silent
    // restart from random weights.
    if (const std::optional<ResolvedCheckpoint> resolved =
            resolve_elastic_checkpoint(opts.checkpoint_path)) {
      config.start_epoch = resolved->epoch + 1;
      const std::string checkpoint_file = resolved->file;
      config.on_model_init = [checkpoint_file](nn::Layer& model) {
        DKFAC_TRACE_SCOPE("elastic.rejoin");
        (void)load_elastic_checkpoint(model, checkpoint_file);
      };
    }
    if (opts.kill && generation == 0 && rank == opts.kill->rank) {
      const KillSpec kill = *opts.kill;
      config.step_probe = [kill](int epoch, int64_t step) {
        if (epoch == kill.epoch && step == kill.step) {
          ::kill(::getpid(), SIGKILL);
        }
      };
    }

    try {
      const TrainResult result =
          train_with_comm(factory, data_spec, config, *comm);
      carried_skips += result.skipped_factor_steps;
      if (rank == 0) {
        publish_result(opts.checkpoint_path + ".result", result, generation,
                       comm->size(), carried_skips);
      }
      return 0;
    } catch (const comm::RegrowRequest& e) {
      ++regrows;
      DKFAC_LOG_INFO << "elastic: rank " << rank << " (generation "
                     << generation << ") " << e.what();
      if (regrows > kMaxRegrows) {
        DKFAC_LOG_ERROR << "elastic: rank " << rank
                        << " exceeded " << kMaxRegrows
                        << " regrow re-formations — giving up";
        return 2;
      }
      regrow_rebuild = true;
      comm.reset();
    } catch (const comm::PeerFailure& e) {
      ++attempts;
      DKFAC_LOG_WARN << "elastic: rank " << rank << " (generation "
                     << generation << ") lost a peer: " << e.what()
                     << (attempts <= opts.max_reformations
                             ? " — re-forming"
                             : " — re-formations exhausted");
      if (attempts > opts.max_reformations) return 2;
      lost_a_peer = true;
      // Tear the mesh down NOW: closing our sockets cascades the failure
      // to peers still blocked in a collective, so the whole group reaches
      // the rendezvous within one comm deadline instead of serially.
      comm.reset();
    }
  }
}

[[noreturn]] void elastic_child_main(int child_index, bool is_respawn,
                                     uint16_t rendezvous_port,
                                     const ModelFactory& factory,
                                     const data::SyntheticSpec& data_spec,
                                     const TrainConfig& config,
                                     const ElasticOptions& opts) {
  // Regrow nudges arrive as SIGUSR1. SA_RESTART keeps in-flight syscalls
  // (the poll-driven socket layer) undisturbed; the trainer notices the
  // flag at the next step top.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigusr1;
  sa.sa_flags = SA_RESTART;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGUSR1, &sa, nullptr);

  int code = 1;
  try {
    code = elastic_worker(child_index, is_respawn, rendezvous_port, factory,
                          data_spec, config, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[elastic child %d] error: %s\n", child_index,
                 e.what());
    code = 1;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  _exit(code);
}

}  // namespace

void save_elastic_checkpoint(nn::Layer& model, int epoch,
                             const std::string& path) {
  DKFAC_CHECK(epoch >= 0) << "elastic checkpoint epoch must be non-negative";
  // Serialize in memory so the CRC footer covers the exact bytes written.
  std::ostringstream image;
  image.write(kElasticMagic, sizeof(kElasticMagic));
  image.write(reinterpret_cast<const char*>(&kElasticVersion),
              sizeof(kElasticVersion));
  const uint64_t tagged = static_cast<uint64_t>(epoch);
  image.write(reinterpret_cast<const char*>(&tagged), sizeof(tagged));
  nn::save_checkpoint(model, image);
  std::string bytes = std::move(image).str();
  const uint32_t crc = comm::net::crc32(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()));
  bytes.append(kElasticFooterMagic, sizeof(kElasticFooterMagic));
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    DKFAC_CHECK(out.is_open()) << "cannot open " << tmp << " for writing";
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    DKFAC_CHECK(out.good()) << "elastic checkpoint write failed: " << tmp;
  }
  // Rotate the current file to `.prev` via link(2) so `path` itself is
  // never absent: a crash in this window leaves the old checkpoint intact
  // under both names, and resolve() treats a missing `path` as "no
  // checkpoint at all". With no current file, drop any stale `.prev` from
  // an earlier run instead — it predates this training run's history.
  const std::string prev = path + ".prev";
  (void)::unlink(prev.c_str());
  (void)::link(path.c_str(), prev.c_str());  // no-op (ENOENT) on first save
  nn::commit_file(tmp, path);
}

std::optional<ResolvedCheckpoint> resolve_elastic_checkpoint(
    const std::string& path) {
  const std::optional<std::string> newest = slurp_file(path);
  if (!newest.has_value()) return std::nullopt;  // fresh start
  if (const std::optional<int> epoch = validate_image(*newest)) {
    return ResolvedCheckpoint{path, *epoch, /*fell_back=*/false};
  }
  const std::string prev_path = path + ".prev";
  if (const std::optional<std::string> prev = slurp_file(prev_path)) {
    if (const std::optional<int> epoch = validate_image(*prev)) {
      DKFAC_LOG_WARN << "elastic: checkpoint " << path
                     << " failed validation (torn write or corruption) — "
                        "falling back to epoch "
                     << *epoch << " from " << prev_path;
      return ResolvedCheckpoint{prev_path, *epoch, /*fell_back=*/true};
    }
  }
  throw Error("elastic: checkpoint " + path +
              " is corrupt and no intact previous epoch exists at " +
              prev_path);
}

std::optional<int> read_elastic_epoch_tag(const std::string& path) {
  const std::optional<std::string> bytes = slurp_file(path);
  if (!bytes.has_value()) return std::nullopt;
  return validate_image(*bytes);
}

int load_elastic_checkpoint(nn::Layer& model, const std::string& path) {
  const std::optional<std::string> bytes = slurp_file(path);
  DKFAC_CHECK(bytes.has_value()) << "cannot open " << path << " for reading";
  const std::optional<int> epoch = validate_image(*bytes);
  DKFAC_CHECK(epoch.has_value())
      << path << " is not an intact elastic checkpoint (bad header or CRC)";
  std::istringstream in(bytes->substr(
      kHeaderBytes, bytes->size() - kHeaderBytes - kFooterBytes));
  nn::load_checkpoint(model, in);
  return *epoch;
}

ElasticResult run_elastic(const ModelFactory& factory,
                          const data::SyntheticSpec& data_spec,
                          const TrainConfig& config,
                          const ElasticOptions& options) {
  DKFAC_CHECK(!options.checkpoint_path.empty())
      << "elastic training needs a durable checkpoint path";
  DKFAC_CHECK(options.initial_ranks >= 1) << "need at least one rank";
  DKFAC_CHECK(options.min_ranks >= 1 &&
              options.min_ranks <= options.initial_ranks)
      << "min_ranks must be in [1, initial_ranks]";
  DKFAC_CHECK(options.max_ranks == 0 ||
              (options.max_ranks >= options.min_ranks &&
               options.max_ranks <= options.initial_ranks))
      << "max_ranks must be 0 (= initial_ranks) or in "
         "[min_ranks, initial_ranks]";
  DKFAC_CHECK(options.respawns_per_rank >= 0)
      << "respawns_per_rank must be non-negative";
  const int effective_max =
      options.max_ranks == 0 ? options.initial_ranks : options.max_ranks;

  const std::string result_path = options.checkpoint_path + ".result";
  std::remove(result_path.c_str());

  comm::net::RendezvousServer server;

  // One slot per initial child; a respawned replacement reuses its slot
  // (same child_index, so rank hints stay stable across generations).
  struct Slot {
    pid_t pid = -1;
    int respawns_used = 0;
    bool pending = false;  // replacement scheduled, waiting out the backoff
    Clock::time_point respawn_at{};
    std::unique_ptr<comm::net::Backoff> backoff;
  };
  std::vector<Slot> slots(static_cast<size_t>(options.initial_ranks));

  auto fork_child = [&](int index, bool is_respawn) -> pid_t {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      server.close();  // only the supervisor accepts rendezvous connections
      elastic_child_main(index, is_respawn, server.port(), factory, data_spec,
                         config, options);
    }
    return pid;
  };

  for (int i = 0; i < options.initial_ranks; ++i) {
    const pid_t pid = fork_child(i, /*is_respawn=*/false);
    if (pid < 0) {
      for (const Slot& slot : slots) {
        if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
      }
      for (const Slot& slot : slots) {
        if (slot.pid > 0) ::waitpid(slot.pid, nullptr, 0);
      }
      throw Error("run_elastic: fork failed");
    }
    slots[static_cast<size_t>(i)].pid = pid;
  }

  // Supervision pump: reap deaths, fork due respawns, keep the rendezvous
  // warm so survivors and joiners can (re-)form, nudge a running group
  // when a joiner is parked, and give up once the group can no longer
  // satisfy min_ranks.
  int first_failure = 0;
  bool job_completed = false;
  int total_respawns = 0;
  int total_joins = 0;
  // Supervisor-side join accounting: the world size the next generation is
  // expected to form at given the casualties so far; a formed world above
  // it means joiners were admitted.
  int expected_world = options.initial_ranks;

  auto alive_count = [&] {
    int n = 0;
    for (const Slot& slot : slots) n += slot.pid > 0 ? 1 : 0;
    return n;
  };
  auto pending_count = [&] {
    int n = 0;
    for (const Slot& slot : slots) n += slot.pending ? 1 : 0;
    return n;
  };
  // Pending respawns due within roughly one serve tick. These count toward
  // the formation target (the group about to form should wait a beat and
  // admit them); ones further out do not — a long backoff must not stall
  // the survivors, who re-form without the replacement and get nudged when
  // it eventually arrives.
  auto pending_soon_count = [&] {
    const auto horizon = Clock::now() + std::chrono::milliseconds(500);
    int n = 0;
    for (const Slot& slot : slots) {
      n += (slot.pending && slot.respawn_at <= horizon) ? 1 : 0;
    }
    return n;
  };

  auto reap = [&] {
    for (size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (slot.pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
      if (r == 0) continue;
      const int code = comm::net::exit_code(r, status);
      slot.pid = -1;
      if (code == 0) {
        // One clean exit means the job published (or is about to publish)
        // its result — stop growing the world back.
        job_completed = true;
        continue;
      }
      // A killed rank is an expected casualty as long as a shrunk group
      // finishes the job; remember the first failure anyway — if no
      // generation ever publishes a result, this is the diagnosis.
      if (first_failure == 0) first_failure = code;
      if (expected_world > 0) --expected_world;
      // Schedule a replacement within this slot's budget, after a
      // jittered exponential backoff (a crash-looping child must not spin
      // the supervisor).
      if (!job_completed && slot.respawns_used < options.respawns_per_rank) {
        if (!slot.backoff) {
          slot.backoff = std::make_unique<comm::net::Backoff>(
              options.seed ^ (0x9E3779B97F4A7C15ull * (i + 1)),
              options.respawn_backoff_s,
              std::max(options.respawn_backoff_s * 8.0, 1.0));
        }
        const double delay_s = slot.backoff->next_s();
        slot.pending = true;
        slot.respawn_at =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(delay_s));
        DKFAC_LOG_INFO << "elastic: slot " << i << " died (code " << code
                       << ") — respawning replacement in " << delay_s
                       << "s (" << slot.respawns_used + 1 << "/"
                       << options.respawns_per_rank << ")";
      }
    }
  };

  auto spawn_due = [&] {
    if (job_completed) {
      for (Slot& slot : slots) slot.pending = false;
      return;
    }
    for (size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (!slot.pending || Clock::now() < slot.respawn_at) continue;
      if (alive_count() >= effective_max) continue;  // ceiling reached
      slot.pending = false;
      const pid_t pid = fork_child(static_cast<int>(i), /*is_respawn=*/true);
      if (pid < 0) {
        DKFAC_LOG_ERROR << "elastic: respawn fork failed for slot " << i;
        continue;
      }
      slot.pid = pid;
      ++slot.respawns_used;
      ++total_respawns;
      DKFAC_TRACE_INSTANT("elastic.respawn");
    }
  };

  // Reaps until no child is alive or `grace_s` has passed.
  auto reap_for = [&](double grace_s) {
    const auto start = Clock::now();
    while (alive_count() > 0 && seconds_since(start) < grace_s) {
      reap();
      if (alive_count() > 0) ::usleep(10000);
    }
  };
  auto signal_all = [&](int sig) {
    for (const Slot& slot : slots) {
      if (slot.pid > 0) ::kill(slot.pid, sig);
    }
  };
  // SIGTERM every live child, then SIGKILL those left after the grace.
  auto stop_all = [&] {
    signal_all(SIGTERM);
    reap_for(kTermGraceSeconds);
    signal_all(SIGKILL);
    reap_for(std::numeric_limits<double>::infinity());
  };

  int last_formed_world = 0;
  auto last_nudge = Clock::now();
  while (true) {
    reap();
    spawn_due();
    if (alive_count() == 0 && pending_count() == 0) break;
    if (job_completed) {
      // The finishing generation exits on its own, rank 0 last: it
      // publishes the result after its peers have exited, and their clean
      // exits are no loss. No generation forms after one. Once the result
      // exists, rank 0 exits right after it; whatever is left then (a
      // joiner parked at the rendezvous) has nothing to join.
      if (std::ifstream(result_path).is_open()) {
        reap_for(kTermGraceSeconds);
        stop_all();
        break;
      }
      ::usleep(10000);
      continue;
    }
    if (alive_count() + pending_count() < options.min_ranks) {
      DKFAC_LOG_WARN << "elastic: only " << alive_count()
                     << " ranks remain (min " << options.min_ranks
                     << ", no respawn budget left) — terminating the job";
      stop_all();
      break;
    }
    try {
      const int formed = server.serve_generation(
          [&] {
            // Count imminent respawns toward the formation target: a
            // replacement due in a fraction of a second must be admitted
            // into the group being formed, not parked behind it — without
            // this, survivors racing the respawn fork would re-form at the
            // shrunk size and the regrown world would be timing-dependent.
            reap();
            spawn_due();
            return std::min(alive_count() + pending_soon_count(),
                            effective_max);
          },
          options.min_ranks,
          /*timeout_s=*/0.25);
      if (formed > expected_world) total_joins += formed - expected_world;
      expected_world = formed;
      last_formed_world = formed;
    } catch (const Error&) {
      // Pump tick: nobody (or not everybody) is re-registering right now.
      // Half-finished registrations stay parked for the next tick, and a
      // group that shrank below min_ranks is handled at the top of the
      // loop. A COMPLETE parked registration while the running group sits
      // below target is a joiner waiting on a generation boundary — nudge
      // the group (SIGUSR1 → RegrowRequest at each rank's next step) so it
      // re-forms and admits the joiner. Re-nudge every second until it
      // lands; ranks already waiting at the rendezvous just ignore it.
      if (!job_completed && server.parked_complete() > 0 &&
          last_formed_world > 0 &&
          last_formed_world < std::min(alive_count(), effective_max) &&
          seconds_since(last_nudge) > 1.0) {
        DKFAC_LOG_INFO << "elastic: joiner parked while world is "
                       << last_formed_world << " — nudging the group to "
                          "re-form";
        for (const Slot& slot : slots) {
          if (slot.pid > 0) ::kill(slot.pid, SIGUSR1);
        }
        last_nudge = Clock::now();
      }
    }
  }

  ElasticResult res;
  res.respawns = total_respawns;
  res.joins = total_joins;
  std::ifstream in(result_path);
  if (in.is_open()) {
    std::string line;
    while (std::getline(in, line)) {
      const size_t eq = line.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = line.substr(0, eq);
      const std::string value = line.substr(eq + 1);
      try {
        if (key == "train_loss") {
          res.final_train_loss = std::stof(value);
        } else if (key == "val_accuracy") {
          res.final_val_accuracy = std::stof(value);
        } else if (key == "reformations") {
          res.reformations = std::stoi(value);
        } else if (key == "skipped_factor_steps") {
          res.skipped_factor_steps = std::stoull(value);
        } else if (key == "world") {
          res.final_world = std::stoi(value);
        }
      } catch (const std::exception&) {
        // Unparseable line in a hand-edited file: skip it.
      }
    }
    res.completed = true;
  } else {
    res.exit_code = first_failure != 0 ? first_failure : 1;
  }
  return res;
}

}  // namespace dkfac::train::elastic
