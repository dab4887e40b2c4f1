// dkfac training CLI: drive the full library from the command line.
//
//   train_cli [--model resnet8|resnet14|resnet20|cnn|mlp]
//             [--optimizer sgd|adam|lars] [--kfac] [--strategy lw|opt|sb]
//             [--backend thread|socket] [--workers N | --ranks N]
//             [--epochs N] [--batch N] [--lr F]
//             [--update-freq N] [--rank-fraction F] [--overlap]
//             [--factor-precision fp32|fp16|bf16] [--save PATH]
//             [--trace PATH] [--metrics PATH]
//             [--elastic CKPT] [--min-ranks N] [--max-ranks N]
//             [--respawns N] [--straggler-slack F]
//             [--fault-plan PLAN] [--log-level debug|info|warn|error]
//
// Trains on the synthetic CIFAR stand-in, prints per-epoch metrics, and
// optionally writes a checkpoint. `--backend thread` (default) runs the
// ranks as threads in this process; `--backend socket` forks N real
// processes that communicate over localhost TCP (net::SocketComm) —
// bitwise-identical results, genuinely distributed execution.
//
// `--elastic CKPT` runs the socket ranks under the fault-tolerant
// supervisor instead (train/elastic.hpp): a rank dying mid-run shrinks the
// group (down to `--min-ranks`) and training resumes from the durable
// epoch-tagged checkpoint at CKPT. `--respawns N` gives each rank slot a
// budget of N replacement processes, so the supervisor grows the world
// back (up to `--max-ranks`, default the initial count) after each death.
// `--straggler-slack F` additionally sheds a step's K-FAC factor update
// whenever the per-step compute-time spread across ranks exceeds F seconds
// (works with any backend).
//
// `--fault-plan PLAN` arms the deterministic fault-injection layer
// (comm/net/faultnet.hpp) in every rank: PLAN is a semicolon-separated
// rule list, e.g. "rank=1,op=send,nth=40,action=bitflip" — see the header
// for the full grammar. The plan is exported as DKFAC_FAULT_PLAN so forked
// socket/elastic ranks inherit it.
//
// Observability: `--trace PATH` writes a Chrome trace_event JSON
// (load in Perfetto / chrome://tracing). Under `--backend socket` each
// child rank writes PATH with a `.rank<N>` infix and the launcher merges
// them into PATH on a barrier-aligned epoch. `--metrics PATH` streams
// rank 0's per-step metrics as JSONL.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/net/faultnet.hpp"
#include "comm/net/launch.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parse.hpp"
#include "data/loader.hpp"
#include "nn/resnet.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "train/elastic.hpp"
#include "train/trainer.hpp"

namespace {

struct CliOptions {
  std::string model = "resnet8";
  std::string optimizer = "sgd";
  std::string strategy = "opt";
  std::string backend = "thread";
  bool use_kfac = false;
  int workers = 2;
  int epochs = 5;
  int64_t batch = 32;
  float lr = 0.05f;
  int update_freq = 10;
  float rank_fraction = 1.0f;
  bool overlap = false;
  std::string factor_precision = "fp32";
  std::string save_path;
  std::string trace_path;
  std::string metrics_path;
  std::string elastic_checkpoint;
  int min_ranks = 1;
  int max_ranks = 0;
  int respawns = 0;
  std::string fault_plan;
  float straggler_slack = 0.0f;
  std::string log_level = "info";
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(stderr,
               "usage: train_cli [--model resnet8|resnet14|resnet20|cnn|mlp] "
               "[--optimizer sgd|adam|lars] [--kfac] [--strategy lw|opt|sb] "
               "[--backend thread|socket] [--workers N | --ranks N] "
               "[--epochs N] [--batch N] [--lr F] "
               "[--update-freq N] [--rank-fraction F] [--overlap] "
               "[--factor-precision fp32|fp16|bf16] [--save PATH] "
               "[--trace PATH] [--metrics PATH] "
               "[--elastic CKPT] [--min-ranks N] [--max-ranks N] "
               "[--respawns N] [--straggler-slack F] [--fault-plan PLAN] "
               "[--log-level debug|info|warn|error]\n");
  std::exit(2);
}

/// Runs `check`: a strict number parse, or a library check on what `flag`
/// set. A dkfac::Error exits 2 naming the flag, as an unknown flag does,
/// before any training.
template <typename Check>
auto check_flag(const std::string& flag, Check check) {
  try {
    return check();
  } catch (const dkfac::Error& e) {
    std::fprintf(stderr, "train_cli: bad %s: %s\n", flag.c_str(), e.what());
    std::exit(2);
  }
}

CliOptions parse(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    auto whole = [&] {
      const char* value = next();
      return check_flag(
          arg, [&] { return dkfac::parse_number<int>(value, "value"); });
    };
    auto real = [&] {
      const char* value = next();
      return check_flag(
          arg, [&] { return dkfac::parse_real<float>(value, "value"); });
    };
    if (arg == "--model") opts.model = next();
    else if (arg == "--optimizer") opts.optimizer = next();
    else if (arg == "--strategy") opts.strategy = next();
    else if (arg == "--backend") opts.backend = next();
    else if (arg == "--kfac") opts.use_kfac = true;
    else if (arg == "--workers" || arg == "--ranks") opts.workers = whole();
    else if (arg == "--epochs") opts.epochs = whole();
    else if (arg == "--batch") opts.batch = whole();
    else if (arg == "--lr") opts.lr = real();
    else if (arg == "--update-freq") opts.update_freq = whole();
    else if (arg == "--rank-fraction") opts.rank_fraction = real();
    else if (arg == "--overlap") opts.overlap = true;
    else if (arg == "--factor-precision") opts.factor_precision = next();
    else if (arg == "--save") opts.save_path = next();
    else if (arg == "--trace") opts.trace_path = next();
    else if (arg == "--metrics") opts.metrics_path = next();
    else if (arg == "--elastic") opts.elastic_checkpoint = next();
    else if (arg == "--min-ranks") opts.min_ranks = whole();
    else if (arg == "--max-ranks") opts.max_ranks = whole();
    else if (arg == "--respawns") opts.respawns = whole();
    else if (arg == "--fault-plan") opts.fault_plan = next();
    else if (arg == "--straggler-slack") opts.straggler_slack = real();
    else if (arg == "--log-level") opts.log_level = next();
    else usage_and_exit();
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dkfac;
  const CliOptions cli = parse(argc, argv);

  const std::optional<LogLevel> level = parse_log_level(cli.log_level);
  if (!level) usage_and_exit();
  log_level() = *level;

  if (!cli.fault_plan.empty()) {
    // Validate the plan up front (a typo should fail fast, not inside a
    // forked rank), then export it: socket/elastic children load it from
    // the environment when their communicator comes up. Faultnet
    // interposes on the socket wire layer, so the plan only has effect
    // with --backend socket or --elastic.
    try {
      (void)comm::net::faultnet::parse_plan(cli.fault_plan);
    } catch (const Error& e) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", e.what());
      return 2;
    }
    ::setenv("DKFAC_FAULT_PLAN", cli.fault_plan.c_str(), 1);
  }

  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.height = spec.width = 16;
  spec.grid = 4;
  spec.train_size = 1280;
  spec.val_size = 512;
  spec.noise = 3.0f;
  // The training split must fill one global batch: the loader's own check.
  check_flag("--batch/--ranks", [&] {
    const data::SyntheticImageDataset train_set(
        spec, data::SyntheticImageDataset::Split::kTrain);
    (void)data::ShardedLoader(train_set, cli.batch, /*rank=*/0, cli.workers);
  });

  train::ModelFactory factory;
  if (cli.model == "resnet8" || cli.model == "resnet14" || cli.model == "resnet20") {
    const int depth = std::atoi(cli.model.c_str() + 6);
    factory = [depth](Rng& rng) { return nn::resnet_cifar(depth, 10, rng, 8); };
  } else if (cli.model == "cnn") {
    factory = [](Rng& rng) { return nn::simple_cnn(3, 10, rng, 8); };
  } else if (cli.model == "mlp") {
    factory = [](Rng& rng) {
      auto net = std::make_unique<nn::Sequential>("flat_mlp");
      net->emplace<nn::Flatten>("flatten");
      net->add(nn::mlp(3 * 16 * 16, 64, 10, rng));
      return nn::LayerPtr(std::move(net));
    };
  } else {
    usage_and_exit();
  }

  train::TrainConfig config;
  config.local_batch = cli.batch;
  config.epochs = cli.epochs;
  config.lr = {.base_lr = cli.lr,
               .warmup_epochs = 1.0f,
               .warmup_start_factor = 0.25f,
               .decay_epochs = {0.6f * cli.epochs, 0.85f * cli.epochs},
               .decay_factor = 0.1f};
  check_flag("--lr/--epochs", [&] { (void)optim::LrSchedule(config.lr); });
  config.momentum = 0.9f;
  config.weight_decay = 5e-4f;
  if (cli.optimizer == "sgd") config.optimizer = train::OptimizerKind::kSgd;
  else if (cli.optimizer == "adam") config.optimizer = train::OptimizerKind::kAdam;
  else if (cli.optimizer == "lars") config.optimizer = train::OptimizerKind::kLars;
  else usage_and_exit();

  config.overlap_comm = cli.overlap;
  config.use_kfac = cli.use_kfac;
  config.metrics_path = cli.metrics_path;
  config.straggler_slack_s = cli.straggler_slack;
  if (cli.use_kfac) {
    config.kfac.damping = 0.003f;
    check_flag("--update-freq",
               [&] { config.kfac.with_update_freq(cli.update_freq).validate(); });
    config.kfac.eigen_rank_fraction = cli.rank_fraction;
    check_flag("--rank-fraction", [&] { config.kfac.validate(); });
    config.kfac.factor_precision = check_flag(
        "--factor-precision",
        [&] { return comm::parse_precision(cli.factor_precision); });
    if (cli.strategy == "lw") {
      config.kfac.strategy = kfac::DistributionStrategy::kLayerWise;
    } else if (cli.strategy == "opt") {
      config.kfac.strategy = kfac::DistributionStrategy::kFactorWise;
    } else if (cli.strategy == "sb") {
      config.kfac.strategy = kfac::DistributionStrategy::kSizeBalanced;
    } else {
      usage_and_exit();
    }
  }

  if (!cli.save_path.empty()) {
    config.on_trained_model = [&cli](nn::Layer& model) {
      nn::save_checkpoint(model, cli.save_path);
      std::printf("checkpoint written to %s\n", cli.save_path.c_str());
    };
  }

  if (cli.backend != "thread" && cli.backend != "socket") usage_and_exit();
  std::printf("model=%s optimizer=%s kfac=%s backend=%s workers=%d epochs=%d "
              "global-batch=%lld comm=%s factor-precision=%s\n",
              cli.model.c_str(), cli.optimizer.c_str(),
              cli.use_kfac ? cli.strategy.c_str() : "off",
              cli.elastic_checkpoint.empty() ? cli.backend.c_str()
                                             : "elastic-socket",
              cli.workers, cli.epochs,
              static_cast<long long>(cli.batch * cli.workers),
              cli.overlap ? "overlapped" : "synchronous",
              cli.use_kfac ? cli.factor_precision.c_str() : "n/a");

  const auto print_result = [&cli](const train::TrainResult& result) {
    for (const train::EpochMetrics& m : result.epochs) {
      std::printf("epoch %2d: loss %.3f  train acc %.1f%%  val acc %.1f%%  "
                  "(%.1fs)\n",
                  m.epoch, m.train_loss, 100.0f * m.train_accuracy,
                  100.0f * m.val_accuracy, m.seconds);
    }
    std::printf("best validation accuracy: %.1f%%; comm volume %llu bytes\n",
                100.0f * result.best_val_accuracy,
                static_cast<unsigned long long>(result.comm_stats.total_bytes()));
    if (cli.use_kfac && result.comm_stats.factor_dense_bytes > 0) {
      std::printf("factor payload: %llu dense -> %llu packed -> %llu encoded "
                  "bytes\n",
                  static_cast<unsigned long long>(result.comm_stats.factor_dense_bytes),
                  static_cast<unsigned long long>(result.comm_stats.factor_packed_bytes),
                  static_cast<unsigned long long>(result.comm_stats.factor_encoded_bytes));
    }
    if (result.comm_stats.wire_sent_bytes > 0) {
      std::printf("wire (rank 0): %llu bytes sent, %llu bytes received\n",
                  static_cast<unsigned long long>(result.comm_stats.wire_sent_bytes),
                  static_cast<unsigned long long>(result.comm_stats.wire_recv_bytes));
    }
    if (cli.overlap) {
      std::printf("overlap: %.3f s collective time, %.3f s blocked "
                  "(hid %.3f s behind compute)\n",
                  result.comm_stats.async.comm_seconds,
                  result.comm_stats.async.wait_seconds,
                  result.comm_stats.async.overlap_won_seconds());
    }
  };

  try {
    if (!cli.elastic_checkpoint.empty()) {
      // Fault-tolerant supervisor: forked socket ranks that survive rank
      // death by re-forming and resuming from the durable checkpoint.
      // (--trace is not merged in this mode; use --metrics to observe the
      // elastic.* counters.)
      train::elastic::ElasticOptions eopts;
      eopts.initial_ranks = cli.workers;
      eopts.min_ranks = cli.min_ranks;
      eopts.max_ranks = cli.max_ranks;
      eopts.respawns_per_rank = cli.respawns;
      eopts.checkpoint_path = cli.elastic_checkpoint;
      const train::elastic::ElasticResult result =
          train::elastic::run_elastic(factory, spec, config, eopts);
      if (!result.completed) {
        std::fprintf(stderr, "elastic job failed (exit code %d)\n",
                     result.exit_code);
        return result.exit_code == 0 ? 1 : result.exit_code;
      }
      std::printf("elastic job completed: world %d after %d re-formation(s), "
                  "%d respawn(s), %d join(s), %llu factor step(s) shed\n",
                  result.final_world, result.reformations, result.respawns,
                  result.joins,
                  static_cast<unsigned long long>(result.skipped_factor_steps));
      std::printf("final loss %.3f  val acc %.1f%%  checkpoint %s\n",
                  result.final_train_loss, 100.0f * result.final_val_accuracy,
                  cli.elastic_checkpoint.c_str());
      return 0;
    }
    if (cli.backend == "socket") {
      // N real processes over localhost TCP: fork, rendezvous, train.
      // Rank 0's child prints the metrics; the launcher propagates the
      // first failing child's exit code.
      const int workers = cli.workers;
      const int status = comm::net::run_ranks(workers, [&](comm::Communicator& comm) {
        omp_set_num_threads(train::omp_threads_per_rank(workers));
        if (!cli.trace_path.empty()) {
          // Common epoch across ranks: everyone leaves the barrier within
          // microseconds and CLOCK_MONOTONIC is system-wide, so per-rank
          // timestamps line up after the merge.
          obs::Tracer::set_thread_name("rank.main");
          obs::Tracer::instance().enable();
          comm.barrier();
          obs::Tracer::instance().set_epoch_now();
        }
        const train::TrainResult result =
            train::train_with_comm(factory, spec, config, comm);
        if (comm.rank() == 0) print_result(result);
        if (!cli.trace_path.empty()) {
          obs::ExportOptions trace_opts;
          trace_opts.pid = comm.rank();
          trace_opts.process_name = "rank " + std::to_string(comm.rank());
          obs::write_chrome_trace_file(
              obs::rank_trace_path(cli.trace_path, comm.rank()), trace_opts);
        }
        return 0;
      });
      if (status == 0 && !cli.trace_path.empty()) {
        std::vector<std::string> rank_traces;
        for (int r = 0; r < workers; ++r) {
          rank_traces.push_back(obs::rank_trace_path(cli.trace_path, r));
        }
        obs::merge_chrome_traces(rank_traces, cli.trace_path);
        std::printf("trace written to %s (merged from %d ranks)\n",
                    cli.trace_path.c_str(), workers);
      }
      return status;
    }
    if (!cli.trace_path.empty()) {
      obs::Tracer::set_thread_name("main");
      obs::Tracer::instance().enable();
    }
    const train::TrainResult result =
        train::train_distributed(factory, spec, config, cli.workers);
    print_result(result);
    if (!cli.trace_path.empty()) {
      obs::ExportOptions trace_opts;
      trace_opts.process_name = "train_cli";
      obs::write_chrome_trace_file(cli.trace_path, trace_opts);
      std::printf("trace written to %s\n", cli.trace_path.c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
