#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "nn/resnet.hpp"
#include "tensor/random.hpp"

namespace dkfac::nn {
namespace {

TEST(Serialize, RoundTripRestoresParameters) {
  Rng rng_a(1), rng_b(2);  // different seeds → different weights
  LayerPtr original = resnet_cifar(8, 4, rng_a, 4);
  LayerPtr restored = resnet_cifar(8, 4, rng_b, 4);

  std::stringstream buffer;
  save_checkpoint(*original, buffer);
  load_checkpoint(*restored, buffer);

  auto pa = original->parameters();
  auto pb = restored->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value == pb[i]->value) << pa[i]->name;
  }
}

TEST(Serialize, RestoredModelProducesIdenticalOutputs) {
  Rng rng_a(3), rng_b(4), rng_x(5);
  LayerPtr original = simple_cnn(3, 4, rng_a, 4);
  LayerPtr restored = simple_cnn(3, 4, rng_b, 4);

  // Run a training forward so BatchNorm running stats are non-trivial.
  Tensor warm = Tensor::randn(Shape{8, 3, 8, 8}, rng_x);
  original->forward(warm);

  std::stringstream buffer;
  save_checkpoint(*original, buffer);
  load_checkpoint(*restored, buffer);

  original->set_training(false);
  restored->set_training(false);
  Tensor x = Tensor::randn(Shape{2, 3, 8, 8}, rng_x);
  EXPECT_TRUE(original->forward(x) == restored->forward(x));
}

TEST(Serialize, BatchNormRunningStatsIncluded) {
  Rng rng(6);
  BatchNorm2d bn_src(3, "bn");
  BatchNorm2d bn_dst(3, "bn");
  bn_src.forward(Tensor::randn(Shape{16, 3, 4, 4}, rng, 5.0f, 2.0f));

  std::stringstream buffer;
  save_checkpoint(bn_src, buffer);
  load_checkpoint(bn_dst, buffer);
  EXPECT_TRUE(bn_src.running_mean() == bn_dst.running_mean());
  EXPECT_TRUE(bn_src.running_var() == bn_dst.running_var());
}

TEST(Serialize, RejectsCorruptMagic) {
  Rng rng(7);
  LayerPtr model = mlp(4, 4, 2, rng);
  std::stringstream buffer;
  buffer << "NOPE-not-a-checkpoint";
  EXPECT_THROW(load_checkpoint(*model, buffer), Error);
}

TEST(Serialize, RejectsTruncatedStream) {
  Rng rng(8);
  LayerPtr model = mlp(4, 4, 2, rng);
  std::stringstream buffer;
  save_checkpoint(*model, buffer);
  std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_checkpoint(*model, cut), Error);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Rng rng(9);
  LayerPtr small = mlp(4, 4, 2, rng);
  LayerPtr big = mlp(4, 8, 2, rng);
  std::stringstream buffer;
  save_checkpoint(*small, buffer);
  EXPECT_THROW(load_checkpoint(*big, buffer), Error);
}

TEST(Serialize, RejectsWrongModelFamily) {
  Rng rng(10);
  LayerPtr cnn = simple_cnn(3, 4, rng, 4);
  LayerPtr fc = mlp(4, 4, 4, rng);
  std::stringstream buffer;
  save_checkpoint(*cnn, buffer);
  EXPECT_THROW(load_checkpoint(*fc, buffer), Error);
}

TEST(Serialize, FileRoundTrip) {
  Rng rng_a(11), rng_b(12);
  LayerPtr original = mlp(6, 8, 3, rng_a);
  LayerPtr restored = mlp(6, 8, 3, rng_b);
  const std::string path = ::testing::TempDir() + "/dkfac_ckpt.bin";
  save_checkpoint(*original, path);
  load_checkpoint(*restored, path);
  auto pa = original->parameters();
  auto pb = restored->parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value == pb[i]->value);
  }
  EXPECT_THROW(load_checkpoint(*restored, std::string("/nonexistent/x.bin")), Error);
}

// ---- DKFC reader fuzzer ------------------------------------------------
//
// Mutated checkpoints of a Linear(3, 2) must either load or throw
// dkfac::Error: never crash, never throw anything else, and never do
// arithmetic on the file's dims that overflows (the sanitizer job runs
// these cases under UBSan).

std::string linear_checkpoint() {
  Rng rng(21);
  Linear fc(3, 2, true, rng, "fc");
  std::stringstream buffer;
  save_checkpoint(fc, buffer);
  return buffer.str();
}

void expect_loads_or_throws_typed(const std::string& bytes,
                                  const std::string& what) {
  Rng rng(22);
  Linear fc(3, 2, true, rng, "fc");
  std::stringstream in(bytes);
  try {
    load_checkpoint(fc, in);
  } catch (const Error&) {
    // Typed rejection.
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": untyped exception: " << e.what();
  }
}

uint64_t read_u64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void write_u64(std::string& bytes, size_t at, uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

/// Where one entry's fields sit in a valid image.
struct EntryLayout {
  size_t begin;                ///< the u64 name length
  std::vector<size_t> dim_at;  ///< each u64 dim
  size_t data_begin;           ///< first f32 element
  size_t data_end;
};

/// Walks a valid image: magic, version, u64 count, then the entries.
std::vector<EntryLayout> entry_layouts(const std::string& bytes) {
  std::vector<EntryLayout> entries;
  size_t at = 16;
  const uint64_t count = read_u64(bytes, 8);
  for (uint64_t i = 0; i < count; ++i) {
    EntryLayout e{at, {}, 0, 0};
    at += 8 + read_u64(bytes, at);
    const uint64_t ndim = read_u64(bytes, at);
    at += 8;
    uint64_t numel = 1;
    for (uint64_t d = 0; d < ndim; ++d) {
      e.dim_at.push_back(at);
      numel *= read_u64(bytes, at);
      at += 8;
    }
    e.data_begin = at;
    at += numel * sizeof(float);
    e.data_end = at;
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string flip_bit(std::string bytes, size_t bit) {
  bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1u << (bit % 8)));
  return bytes;
}

TEST(CheckpointFuzz, TruncationsLoadOrThrowTyped) {
  const std::string image = linear_checkpoint();
  Rng rng(0xC0CC);
  for (int i = 0; i < 64; ++i) {
    const size_t cut = rng.uniform_int(image.size());  // in [0, size)
    expect_loads_or_throws_typed(image.substr(0, cut),
                                 "truncate@" + std::to_string(cut));
  }
  for (const EntryLayout& e : entry_layouts(image)) {
    for (size_t cut : {e.begin, e.data_begin, e.data_end}) {
      expect_loads_or_throws_typed(image.substr(0, cut),
                                   "truncate@" + std::to_string(cut));
    }
  }
}

TEST(CheckpointFuzz, BitFlipsInHeaderAndMetadataLoadOrThrowTyped) {
  const std::string image = linear_checkpoint();
  // Every bit of the header (magic, version, entry count) and of each
  // entry's name length, name, rank and dims.
  std::vector<std::pair<size_t, size_t>> spans = {{0, 16}};
  for (const EntryLayout& e : entry_layouts(image)) {
    spans.emplace_back(e.begin, e.data_begin);
  }
  for (const auto& [begin, end] : spans) {
    for (size_t bit = begin * 8; bit < end * 8; ++bit) {
      expect_loads_or_throws_typed(flip_bit(image, bit),
                                   "flip@" + std::to_string(bit));
    }
  }
  // A seeded sample of the rest: element data and the footer.
  Rng rng(0xF11B);
  const size_t data_begin = spans.back().second;
  for (int i = 0; i < 64; ++i) {
    const size_t bit =
        data_begin * 8 + rng.uniform_int((image.size() - data_begin) * 8);
    expect_loads_or_throws_typed(flip_bit(image, bit),
                                 "flip@" + std::to_string(bit));
  }
}

TEST(CheckpointFuzz, HugeDimsThrowTypedBeforeAnyArithmetic) {
  const std::string image = linear_checkpoint();
  for (const uint64_t dim : {uint64_t{1} << 31, uint64_t{1} << 40,
                             uint64_t{1} << 62}) {
    for (const EntryLayout& e : entry_layouts(image)) {
      // All of an entry's dims at once (their product overflows int64 from
      // 2^40 up), then each dim alone.
      std::string all = image;
      for (size_t at : e.dim_at) write_u64(all, at, dim);
      expect_loads_or_throws_typed(all, "all dims=" + std::to_string(dim));
      for (size_t at : e.dim_at) {
        std::string one = image;
        write_u64(one, at, dim);
        expect_loads_or_throws_typed(one, "dim@" + std::to_string(at) + "=" +
                                              std::to_string(dim));
      }
    }
  }
}

}  // namespace
}  // namespace dkfac::nn
