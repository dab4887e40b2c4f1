#include "workload.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "nn/resnet.hpp"

namespace perfbench {

using dkfac::Error;

namespace {

int64_t to_int(const std::string& key, const std::string& v) {
  size_t used = 0;
  int64_t out = 0;
  try {
    out = std::stoll(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty()) throw Error("bad integer for " + key + ": " + v);
  return out;
}

float to_float(const std::string& key, const std::string& v) {
  size_t used = 0;
  float out = 0.0f;
  try {
    out = std::stof(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty()) throw Error("bad number for " + key + ": " + v);
  return out;
}

}  // namespace

Workload Workload::parse(const std::vector<std::string>& args) {
  Workload w;
  const std::map<std::string, std::function<void(const std::string&, const std::string&)>>
      setters = {
          {"name", [&](auto&, auto& v) { w.name = v; }},
          {"backend",
           [&](auto& k, auto& v) {
             if (v == "self") w.backend = Backend::kSelf;
             else if (v == "thread") w.backend = Backend::kThread;
             else if (v == "socket") w.backend = Backend::kSocket;
             else throw Error("bad " + k + ": " + v);
           }},
          {"ranks", [&](auto& k, auto& v) { w.ranks = static_cast<int>(to_int(k, v)); }},
          {"omp_threads", [&](auto& k, auto& v) { w.omp_threads = static_cast<int>(to_int(k, v)); }},
          {"kfac", [&](auto& k, auto& v) { w.kfac = to_int(k, v) != 0; }},
          {"overlap", [&](auto& k, auto& v) { w.overlap = to_int(k, v) != 0; }},
          {"precision", [&](auto&, auto& v) { w.precision = v; }},
          {"train_size", [&](auto& k, auto& v) { w.train_size = to_int(k, v); }},
          {"noise", [&](auto& k, auto& v) { w.noise = to_float(k, v); }},
          {"seed", [&](auto& k, auto& v) { w.seed = static_cast<uint64_t>(to_int(k, v)); }},
      };
  std::set<std::string> seen;
  for (const std::string& arg : args) {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) throw Error("expected key=value, got: " + arg);
    const std::string key = arg.substr(0, eq);
    const auto it = setters.find(key);
    if (it == setters.end()) throw Error("unknown workload key: " + key);
    if (!seen.insert(key).second) throw Error("repeated workload key: " + key);
    it->second(key, arg.substr(eq + 1));
  }
  for (const auto& [key, setter] : setters) {
    if (!seen.contains(key)) throw Error("missing workload key: " + key);
  }
  DKFAC_CHECK(w.ranks >= 1 && w.omp_threads >= 1) << "ranks and omp_threads must be >= 1";
  DKFAC_CHECK(w.backend != Backend::kSelf || w.ranks == 1) << "backend=self runs one rank";
  const int64_t steps = kEpochs * (w.train_size / (kLocalBatch * w.ranks));
  DKFAC_CHECK(steps > kWarmupSteps && steps <= kMaxSteps) << "step count out of range";
  return w;
}

std::string Workload::fixed_json() {
  std::ostringstream os;
  os << "{\"depth\":" << kDepth << ",\"width\":" << kWidth
     << ",\"local_batch\":" << kLocalBatch << ",\"epochs\":" << kEpochs
     << ",\"lr\":" << kLr << ",\"lr_decay_epochs\":[" << kDecayEpochs[0] << ','
     << kDecayEpochs[1] << "],\"damping\":" << kDamping << ",\"update_freq\":" << kUpdateFreq
     << ",\"image\":" << kImage << ",\"classes\":" << kClasses << ",\"grid\":" << kGrid
     << ",\"val_size\":" << kValSize << ",\"dataset_seed\":" << kDatasetSeed
     << ",\"model_seed\":" << kModelSeed
     << ",\"warmup_steps\":" << kWarmupSteps << '}';
  return os.str();
}

dkfac::data::SyntheticSpec Workload::data_spec() const {
  dkfac::data::SyntheticSpec spec;
  spec.num_classes = kClasses;
  spec.height = spec.width = kImage;
  spec.grid = kGrid;
  spec.train_size = train_size;
  spec.val_size = kValSize;
  spec.noise = noise;
  spec.seed = kDatasetSeed;
  spec.validate();
  return spec;
}

dkfac::train::TrainConfig Workload::train_config() const {
  dkfac::train::TrainConfig config;
  config.local_batch = kLocalBatch;
  config.epochs = kEpochs;
  config.lr = {.base_lr = static_cast<float>(kLr),
               .warmup_epochs = 1.0f,
               .warmup_start_factor = 0.25f,
               .decay_epochs = {kDecayEpochs[0], kDecayEpochs[1]},
               .decay_factor = 0.1f};
  config.momentum = 0.9f;
  config.weight_decay = 5e-4f;
  config.overlap_comm = overlap;
  config.use_kfac = kfac;
  config.model_seed = kModelSeed;
  config.data_seed = 7 + seed;
  if (kfac) {
    config.kfac.damping = static_cast<float>(kDamping);
    config.kfac.with_update_freq(kUpdateFreq);
    config.kfac.factor_precision = dkfac::comm::parse_precision(precision);
    config.kfac.strategy = dkfac::kfac::DistributionStrategy::kFactorWise;
  }
  return config;
}

dkfac::train::ModelFactory Workload::model_factory() const {
  return [](dkfac::Rng& rng) {
    return dkfac::nn::resnet_cifar(kDepth, kClasses, rng, kWidth);
  };
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t hash_parameters(dkfac::nn::Layer& model) {
  uint64_t h = 1469598103934665603ull;
  for (dkfac::nn::Parameter* p : model.parameters()) {
    const float* data = p->value.data();
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, &data[i], sizeof(bits));
      for (int byte = 0; byte < 4; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

int64_t peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

}  // namespace perfbench
