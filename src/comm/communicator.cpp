#include "comm/communicator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace dkfac::comm {

namespace {

// The one fold of every allreduce, on every backend and at every
// precision: ascending rank order, identical arithmetic.

/// Accumulates rank r's contribution `src` into the running fold `result`.
void fold_contribution(std::span<float> result, std::span<const float> src,
                       ReduceOp op) {
  if (op == ReduceOp::kMax) {
    for (size_t i = 0; i < result.size(); ++i) {
      result[i] = std::max(result[i], src[i]);
    }
  } else {
    for (size_t i = 0; i < result.size(); ++i) result[i] += src[i];
  }
}

/// Final step of a completed fold: the kAverage 1/p scale (no-op otherwise).
void finish_reduce(std::span<float> result, ReduceOp op, int ranks) {
  if (op != ReduceOp::kAverage) return;
  const float inv = 1.0f / static_cast<float>(ranks);
  for (float& v : result) v *= inv;
}

uint64_t wire_bytes(const CommStats& stats) {
  return stats.wire_sent_bytes + stats.wire_recv_bytes;
}

/// A completed collective's span args: its payload bytes and the wire bytes
/// the backend moved for it (0 on shared memory).
void annotate(obs::SpanScope& span, uint64_t bytes, uint64_t wire) {
  if (!span.active()) return;
  span.set_arg("bytes", bytes);
  span.set_arg("wire_bytes", wire);
}

}  // namespace

void Communicator::allreduce(std::span<float> data, ReduceOp op) {
  reduce(data, Precision::kFp32, op);
}

void Communicator::allreduce_encoded(std::span<float> data,
                                     Precision precision, ReduceOp op) {
  DKFAC_CHECK(precision != Precision::kFp32)
      << "fp32 payloads take the lossless allreduce()";
  reduce(data, precision, op);
}

void Communicator::reduce(std::span<float> data, Precision precision,
                          ReduceOp op) {
  stats_.allreduce_calls++;
  stats_.allreduce_bytes += data.size_bytes();
  const int p = size();
  if (p == 1) return;
  DKFAC_TRACE_SCOPE_NAMED(span, "comm.allreduce");
  const uint64_t wire = wire_bytes(stats_);

  const Views blocks = exchange(data);
  for (int r = 0; r < p; ++r) {
    const size_t sent = blocks[static_cast<size_t>(r)].size();
    if (sent == data.size()) continue;
    // Every rank sees the same lengths, so every rank throws here.
    end_exchange();
    DKFAC_CHECK(sent == data.size())
        << "allreduce length mismatch: rank " << r << " sent " << sent
        << " floats, rank " << rank() << " sent " << data.size();
  }

  // Fold into scratch: this rank's own view may be `data` itself, which
  // must not change before end_exchange(). Rank 0's block seeds the fold,
  // so no zero-fill pass is needed. A 16-bit block is decoded first; its
  // pad slot decodes to +0.0, folds to 0 and re-encodes to zero bits.
  const bool encoded = precision != Precision::kFp32;
  fold_.resize(encoded ? 2 * data.size() : data.size());
  const std::span<float> fold(fold_);
  if (encoded) {
    decoded_.resize(fold_.size());
    Codec::decode(blocks[0], fold, precision);
  } else {
    std::copy(blocks[0].begin(), blocks[0].end(), fold.begin());
  }
  for (int r = 1; r < p; ++r) {
    std::span<const float> block = blocks[static_cast<size_t>(r)];
    if (encoded) {
      Codec::decode(block, decoded_, precision);
      block = decoded_;
    }
    fold_contribution(fold, block, op);
  }
  finish_reduce(fold, op, p);
  end_exchange();

  if (encoded) {
    Codec::encode(fold, data, precision);
  } else {
    std::copy(fold.begin(), fold.end(), data.begin());
  }
  annotate(span, data.size_bytes(), wire_bytes(stats_) - wire);
}

void Communicator::allgather_into(std::span<const float> send,
                                  std::vector<float>& recv) {
  stats_.allgather_calls++;
  stats_.allgather_bytes += send.size_bytes();
  if (size() == 1) {
    recv.assign(send.begin(), send.end());
    return;
  }
  DKFAC_TRACE_SCOPE_NAMED(span, "comm.allgather");
  const uint64_t wire = wire_bytes(stats_);

  const Views blocks = exchange(send);
  size_t total = 0;
  for (const std::span<const float> block : blocks) total += block.size();
  // resize + positional copy (not clear/insert) so a warm caller-owned
  // buffer of the right capacity is refilled without touching the heap.
  recv.resize(total);
  auto out = recv.begin();
  for (const std::span<const float> block : blocks) {
    out = std::copy(block.begin(), block.end(), out);
  }
  end_exchange();
  annotate(span, send.size_bytes(), wire_bytes(stats_) - wire);
}

void Communicator::broadcast(std::span<float> data, int root) {
  DKFAC_CHECK(root >= 0 && root < size())
      << "broadcast root " << root << " out of range for size " << size();
  stats_.broadcast_calls++;
  // The root injected the payload; receiving ranks contributed nothing.
  if (rank() == root) stats_.broadcast_bytes += data.size_bytes();
  if (size() == 1) return;
  DKFAC_TRACE_SCOPE_NAMED(span, "comm.broadcast");
  const uint64_t wire = wire_bytes(stats_);
  deliver(data, root, "broadcast");
  annotate(span, data.size_bytes(), wire_bytes(stats_) - wire);
}

void Communicator::barrier() {
  if (size() == 1) return;
  DKFAC_TRACE_SCOPE_NAMED(span, "comm.barrier");
  const uint64_t wire = wire_bytes(stats_);
  deliver({}, /*root=*/0, "barrier");
  annotate(span, 0, wire_bytes(stats_) - wire);
}

void Communicator::deliver(std::span<float> data, int root,
                           const char* what) {
  const bool is_root = rank() == root;
  const Views blocks =
      exchange(is_root ? std::span<const float>(data) : std::span<const float>());
  for (int r = 0; r < size(); ++r) {
    const size_t sent = blocks[static_cast<size_t>(r)].size();
    const size_t expected = r == root ? data.size() : 0;
    if (sent == expected) continue;
    // Every rank sees the same blocks; a rank whose call differs from them
    // throws after the exchange, so every rank leaves it in step.
    end_exchange();
    DKFAC_CHECK(sent == expected)
        << what << " mismatch: rank " << r << " sent " << sent
        << " floats where rank " << rank() << " expected " << expected;
  }
  // A receiving rank contributed nothing, so writing `data` cannot disturb
  // a view before end_exchange().
  if (!is_root) {
    const std::span<const float> src = blocks[static_cast<size_t>(root)];
    std::copy(src.begin(), src.end(), data.begin());
  }
  end_exchange();
}

}  // namespace dkfac::comm
