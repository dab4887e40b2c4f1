// Ablation: zero-copy factor transport (comm::Arena views) vs the legacy
// vector-per-stage copy chain it replaced.
//
// The legacy pipeline moved every factor through four stage-owned buffers
// — dense cov → SymmetricPacker vector → Codec vector → FusionBuffer
// staging — so each exchange paid a memcpy per hop and, on skip-heavy
// schedules (which released buffers between exchanges), a heap allocation
// per stage per step. The arena pipeline packs into ONE slot, encodes in
// place inside it, reduces the slot memory directly, and decodes/unpacks
// from it; the metric here is inter-buffer traffic:
//
//   bytes_copied/step  bytes moved BETWEEN distinct buffers (pack, stage
//                      in/out, unpack; in-place codec hops move nothing).
//                      Staging traffic is read from the FusionBuffer's own
//                      staged_copy_bytes counter, not modelled.
//   allocs/step        heap allocations on the comm path once warm. The
//                      arena side is measured (ArenaStats after
//                      mark_steady_state); the legacy side counts its
//                      per-step buffer constructions.
//
// Both pipelines must produce bitwise-identical reduced factors — the
// refactor changed where bytes live, never what they are. Results land in
// BENCH_zerocopy.json.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "comm/arena.hpp"
#include "comm/codec.hpp"
#include "comm/fusion.hpp"
#include "comm/symmetric_packer.hpp"
#include "comm/thread_comm.hpp"

namespace {

using namespace dkfac;
using namespace dkfac::comm;

// Factor shapes of a small conv stack (A and G sides of a few layers).
const std::vector<int64_t> kDims = {27, 64, 147, 64, 576, 128};
constexpr int kSteps = 50;
constexpr int kWorld = 2;

struct PipelineResult {
  uint64_t copied_bytes_per_step = 0;
  uint64_t allocs_per_step = 0;
  uint64_t steady_allocs_total = 0;   // arena side only, measured
  uint64_t arena_bytes_reserved = 0;  // arena side only
  std::vector<float> checksum;        // reduced factors, for bitwise compare
};

std::vector<Tensor> make_factors(int rank) {
  std::vector<Tensor> factors;
  for (size_t f = 0; f < kDims.size(); ++f) {
    const int64_t n = kDims[f];
    Tensor m(Shape{n, n});
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i; j < n; ++j) {
        const float v = 0.001f * static_cast<float>((i * n + j) % 997) +
                        0.1f * static_cast<float>(rank + 1) +
                        0.01f * static_cast<float>(f);
        m.at(i, j) = v;
        m.at(j, i) = v;
      }
    }
    factors.push_back(std::move(m));
  }
  return factors;
}

std::vector<float> flatten(const std::vector<Tensor>& factors) {
  std::vector<float> out;
  for (const Tensor& f : factors) {
    out.insert(out.end(), f.span().begin(), f.span().end());
  }
  return out;
}

/// The pre-refactor chain, faithfully: fresh stage-owned vectors each step
/// (the old skip-heavy schedule released them between exchanges), encoded
/// payloads scattered across per-step vectors so fusion stages them.
PipelineResult run_legacy(Precision prec) {
  PipelineResult result;
  LocalGroup group(kWorld);
  std::vector<uint64_t> copied(kWorld, 0);
  std::vector<uint64_t> allocs(kWorld, 0);
  std::vector<std::vector<float>> sums(kWorld);
  group.run([&](int rank, Communicator& comm) {
    std::vector<Tensor> factors = make_factors(rank);
    FusionBuffer fusion(comm, 32 << 20);
    const bool lossy = prec != Precision::kFp32;
    for (int step = 0; step < kSteps; ++step) {
      int64_t packed_total = 0;
      int64_t encoded_total = 0;
      for (const Tensor& f : factors) {
        packed_total += SymmetricPacker::packed_size(f.dim(0));
        encoded_total +=
            Codec::encoded_floats(SymmetricPacker::packed_size(f.dim(0)));
      }
      // Stage-owned buffers, reallocated per step like the released-buffer
      // schedule did.
      std::vector<float> packed(static_cast<size_t>(packed_total));
      std::vector<float> encoded;
      allocs[static_cast<size_t>(rank)] += 1;  // packed
      if (lossy) {
        encoded.resize(static_cast<size_t>(encoded_total));
        allocs[static_cast<size_t>(rank)] += 1;  // encoded
      }
      int64_t p = 0;
      int64_t e = 0;
      for (const Tensor& f : factors) {
        const int64_t c = SymmetricPacker::packed_size(f.dim(0));
        const int64_t ec = Codec::encoded_floats(c);
        const std::span<float> tri(packed.data() + p, static_cast<size_t>(c));
        SymmetricPacker::pack(f, tri);
        copied[static_cast<size_t>(rank)] += static_cast<uint64_t>(c) * 4;
        if (lossy) {
          const std::span<float> enc(encoded.data() + e,
                                     static_cast<size_t>(ec));
          Codec::encode(tri, enc, prec);
          copied[static_cast<size_t>(rank)] += static_cast<uint64_t>(ec) * 4;
          fusion.add(enc, prec);
        } else {
          fusion.add(tri);
        }
        p += c;
        e += ec;
      }
      fusion.execute(ReduceOp::kAverage);
      allocs[static_cast<size_t>(rank)] += 1;  // staging regrown per step
      p = 0;
      e = 0;
      for (Tensor& f : factors) {
        const int64_t c = SymmetricPacker::packed_size(f.dim(0));
        const int64_t ec = Codec::encoded_floats(c);
        if (lossy) {
          Codec::decode(std::span<const float>(encoded.data() + e,
                                               static_cast<size_t>(ec)),
                        std::span<float>(packed.data() + p,
                                         static_cast<size_t>(c)),
                        prec);
          copied[static_cast<size_t>(rank)] += static_cast<uint64_t>(c) * 4;
        }
        SymmetricPacker::unpack(
            std::span<const float>(packed.data() + p, static_cast<size_t>(c)),
            f);
        copied[static_cast<size_t>(rank)] += static_cast<uint64_t>(c) * 4;
        p += c;
        e += ec;
      }
      // The old FusionBuffer staged EVERY chunk: payload copied into the
      // staging vector and back out after the collective. The emulation
      // above runs on the new (zero-copy) fusion, so the old staging
      // traffic is accounted analytically: 2 × shipped payload.
      const uint64_t shipped =
          static_cast<uint64_t>(lossy ? encoded_total : packed_total) * 4;
      copied[static_cast<size_t>(rank)] += 2 * shipped;
    }
    if (rank == 0) sums[0] = flatten(factors);
  });
  result.copied_bytes_per_step = copied[0] / kSteps;
  result.allocs_per_step = allocs[0] / kSteps;
  result.checksum = sums[0];
  return result;
}

/// The arena pipeline: one slot per exchange, pack + in-place encode,
/// collective on slot views, in-place descending decode, unpack.
PipelineResult run_arena(Precision prec) {
  PipelineResult result;
  LocalGroup group(kWorld);
  std::vector<uint64_t> copied(kWorld, 0);
  std::vector<uint64_t> steady(kWorld, 0);
  std::vector<uint64_t> reserved(kWorld, 0);
  std::vector<std::vector<float>> sums(kWorld);
  group.run([&](int rank, Communicator& comm) {
    std::vector<Tensor> factors = make_factors(rank);
    FusionBuffer fusion(comm, 32 << 20);
    Arena arena;
    const bool lossy = prec != Precision::kFp32;
    for (int step = 0; step < kSteps; ++step) {
      if (step == 1) {  // warm-up over: first exchange sized every block
        arena.mark_steady_state();
        fusion.mark_steady_state();
      }
      const uint64_t staged_before = fusion.staged_copy_bytes();
      int64_t packed_total = 0;
      for (const Tensor& f : factors) {
        packed_total += SymmetricPacker::packed_size(f.dim(0));
      }
      arena.reset();
      const BufferView slot =
          arena.alloc(static_cast<size_t>(packed_total), prec);
      const std::span<float> mem = slot.span();
      int64_t p = 0;
      int64_t e = 0;
      for (const Tensor& f : factors) {
        const int64_t c = SymmetricPacker::packed_size(f.dim(0));
        const int64_t ec = Codec::encoded_floats(c);
        SymmetricPacker::pack(
            f, std::span<float>(mem.data() + p, static_cast<size_t>(c)));
        copied[static_cast<size_t>(rank)] += static_cast<uint64_t>(c) * 4;
        if (lossy) {
          Codec::encode(
              std::span<const float>(mem.data() + p, static_cast<size_t>(c)),
              mem.subspan(static_cast<size_t>(e), static_cast<size_t>(ec)),
              prec);  // in place: no inter-buffer traffic
          fusion.add(
              slot.subview(static_cast<size_t>(e), static_cast<size_t>(ec)));
        } else {
          fusion.add(
              slot.subview(static_cast<size_t>(p), static_cast<size_t>(c)));
        }
        p += c;
        e += ec;
      }
      fusion.execute(ReduceOp::kAverage);
      for (int64_t f = static_cast<int64_t>(factors.size()) - 1; f >= 0; --f) {
        const int64_t c = SymmetricPacker::packed_size(
            factors[static_cast<size_t>(f)].dim(0));
        const int64_t ec = Codec::encoded_floats(c);
        p -= c;
        e -= ec;
        const std::span<float> tri(mem.data() + p, static_cast<size_t>(c));
        if (lossy) {
          Codec::decode(
              mem.subspan(static_cast<size_t>(e), static_cast<size_t>(ec)),
              tri, prec);  // in place again
        }
        SymmetricPacker::unpack(tri, factors[static_cast<size_t>(f)]);
        copied[static_cast<size_t>(rank)] += static_cast<uint64_t>(c) * 4;
      }
      copied[static_cast<size_t>(rank)] +=
          fusion.staged_copy_bytes() - staged_before;
    }
    ArenaStats stats = arena.stats();
    stats += fusion.arena_stats();
    steady[static_cast<size_t>(rank)] = stats.steady_state_allocs;
    reserved[static_cast<size_t>(rank)] = stats.bytes_reserved;
    if (rank == 0) sums[0] = flatten(factors);
  });
  result.copied_bytes_per_step = copied[0] / kSteps;
  result.allocs_per_step = steady[0] == 0 ? 0 : 1;  // measured, not modelled
  result.steady_allocs_total = steady[0];
  result.arena_bytes_reserved = reserved[0];
  result.checksum = sums[0];
  return result;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_banner("Ablation",
                      "Zero-copy factor transport vs legacy copy chain");
  bench::print_note(
      "bytes/step counts inter-buffer traffic on the factor-exchange path "
      "(pack, staging, unpack); in-place codec hops move nothing.");

  struct Row {
    const char* name;
    Precision prec;
    PipelineResult legacy;
    PipelineResult arena;
    bool bitwise = false;
  };
  std::vector<Row> rows = {{"fp32+triangle", Precision::kFp32, {}, {}, false},
                           {"fp16+triangle", Precision::kFp16, {}, {}, false},
                           {"bf16+triangle", Precision::kBf16, {}, {}, false}};

  std::printf("%-16s %16s %16s %9s %13s %13s %8s\n", "config",
              "legacy B/step", "arena B/step", "copy x", "legacy allocs",
              "arena steady", "bitwise");
  for (Row& row : rows) {
    row.legacy = run_legacy(row.prec);
    row.arena = run_arena(row.prec);
    row.bitwise = bitwise_equal(row.legacy.checksum, row.arena.checksum);
    const double ratio =
        static_cast<double>(row.legacy.copied_bytes_per_step) /
        static_cast<double>(row.arena.copied_bytes_per_step);
    std::printf("%-16s %16llu %16llu %8.2fx %13llu %13llu %8s\n", row.name,
                static_cast<unsigned long long>(row.legacy.copied_bytes_per_step),
                static_cast<unsigned long long>(row.arena.copied_bytes_per_step),
                ratio,
                static_cast<unsigned long long>(row.legacy.allocs_per_step),
                static_cast<unsigned long long>(row.arena.steady_allocs_total),
                row.bitwise ? "yes" : "NO");
  }

  FILE* json = std::fopen("BENCH_zerocopy.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"ablation_zero_copy\",\n");
    std::fprintf(json, "  \"world_size\": %d,\n  \"steps\": %d,\n", kWorld,
                 kSteps);
    std::fprintf(json, "  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const double ratio =
          static_cast<double>(row.legacy.copied_bytes_per_step) /
          static_cast<double>(row.arena.copied_bytes_per_step);
      std::fprintf(
          json,
          "    {\"config\": \"%s\", \"legacy_copied_bytes_per_step\": %llu, "
          "\"arena_copied_bytes_per_step\": %llu, \"copy_reduction\": %.3f, "
          "\"legacy_allocs_per_step\": %llu, "
          "\"arena_steady_state_allocs\": %llu, "
          "\"arena_bytes_reserved\": %llu, \"bitwise_identical\": %s}%s\n",
          row.name,
          static_cast<unsigned long long>(row.legacy.copied_bytes_per_step),
          static_cast<unsigned long long>(row.arena.copied_bytes_per_step),
          ratio,
          static_cast<unsigned long long>(row.legacy.allocs_per_step),
          static_cast<unsigned long long>(row.arena.steady_allocs_total),
          static_cast<unsigned long long>(row.arena.arena_bytes_reserved),
          row.bitwise ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_zerocopy.json\n");
  }
  return 0;
}
