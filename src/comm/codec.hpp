// Mixed-precision wire codec for factor communication.
//
// The paper's scaling argument (§IV-C) is that K-FAC stays competitive only
// while factor-exchange cost is small; SymmetricPacker already halves the
// payload structurally, and this codec halves it again numerically: factor
// triangles and decomposition payloads can travel as IEEE-754 binary16
// (FP16) or bfloat16 (BF16) instead of FP32. All conversions round to
// nearest, ties to even, and are pure integer bit manipulation — every rank
// and every backend produces identical encodings, which the cross-backend
// bitwise-parity contract depends on.
//
// Transport layout: encoded elements are 16-bit words bit-packed two per
// 32-bit float (element 2i in the low half of word i, little-endian within
// the word), so encoded payloads ride the existing float-typed collectives
// unchanged. An odd element count pads the final high half with zero bits
// (+0.0 at any precision), which reduces to zero and re-encodes to zero —
// padding is stable through any reduction and is simply never read back.
// No collective performs arithmetic on the packed floats themselves (pure
// byte transport), so arbitrary bit patterns — including ones that alias
// float NaNs — cross both backends untouched.
//
// Reduction contract ("encode once, reduce in FP32"): a lossy payload is
// quantised exactly once, on the contributing rank. The reduction gathers
// every rank's encoded contribution verbatim, decodes each to FP32, folds
// in rank order — allreduce()'s own fold — and re-encodes the identical
// result everywhere (Communicator::allreduce_encoded). Thread and socket
// backends therefore remain bitwise identical to EACH OTHER at every
// precision; only the fp32-vs-compressed comparison is approximate.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/error.hpp"

namespace dkfac::comm {

/// Wire precision of a lossy-compressible payload.
enum class Precision : uint8_t {
  kFp32 = 0,  ///< identity passthrough — payloads travel untouched
  kFp16 = 1,  ///< IEEE-754 binary16: 5 exponent / 10 mantissa bits
  kBf16 = 2,  ///< bfloat16: FP32's 8 exponent bits, 7 mantissa bits
};

/// "fp32" / "fp16" / "bf16".
const char* precision_name(Precision p);

/// Inverse of precision_name; throws dkfac::Error on anything else.
Precision parse_precision(const std::string& name);

class Codec {
 public:
  // ---- scalar conversions (round to nearest even) -------------------------
  //
  // Totality: every FP32 value has a defined encoding (overflow saturates
  // to ±Inf, NaN stays NaN with a nonzero mantissa) and every 16-bit
  // pattern has an exact FP32 decoding, so decode∘encode is the identity on
  // all 65536 patterns of either format — the property codec_test pins.

  static uint16_t encode_fp16(float value);
  static float decode_fp16(uint16_t bits);
  static uint16_t encode_bf16(float value);
  static float decode_bf16(uint16_t bits);

  static uint16_t encode_scalar(float value, Precision p) {
    return p == Precision::kFp16 ? encode_fp16(value) : encode_bf16(value);
  }
  static float decode_scalar(uint16_t bits, Precision p) {
    return p == Precision::kFp16 ? decode_fp16(bits) : decode_bf16(bits);
  }

  // ---- transport sizing ----------------------------------------------------

  /// Transport floats that carry `elements` encoded values: two 16-bit
  /// words per float, odd tails padded.
  static int64_t encoded_floats(int64_t elements) {
    DKFAC_CHECK(elements >= 0);
    return (elements + 1) / 2;
  }

  /// Bytes per element shipped at `p` — wire_bytes' per-element factor,
  /// before pad rounding.
  static size_t wire_element_bytes(Precision p) {
    return p == Precision::kFp32 ? sizeof(float) : sizeof(uint16_t);
  }

  /// Bytes a payload of `elements` values occupies on the wire at `p`,
  /// padding included (fp32: 4·n; fp16/bf16: 4·⌈n/2⌉ = 2·(n rounded up
  /// to a whole transport float)).
  static uint64_t wire_bytes(int64_t elements, Precision p) {
    const int64_t padded = p == Precision::kFp32
                               ? elements
                               : 2 * encoded_floats(elements);
    return static_cast<uint64_t>(padded) * wire_element_bytes(p);
  }

  // ---- buffer conversions --------------------------------------------------
  //
  // Tight elementwise loops over contiguous storage (no per-element virtual
  // dispatch, no allocation) — the compiler can unroll/vectorise them.
  //
  // In-place aliasing contract (the comm::Arena zero-copy pipeline packs,
  // encodes, and decodes inside ONE allocation): because two 16-bit
  // elements bit-pack into each transport float, the encoded image of a
  // payload is at most as long as its fp32 source — so encoding shrinks
  // forward and decoding expands backward. Overlapping buffers are
  // therefore legal exactly when
  //
  //   encode:  dst begins at or before src (writes forward; word i lands
  //            at dst+i ≤ src+2i, both source elements are read first)
  //   decode:  dst begins at or after  src (writes backward; elements 2i,
  //            2i+1 land at dst+2i ≥ src+i, word i is read before either
  //            write and later-read words sit strictly below)
  //
  // Any other overlap is a caller bug and throws. Results are bitwise
  // identical to the disjoint-buffer case — iteration order never changes
  // what a pure elementwise conversion produces.

  /// Encodes `src` into the bit-packed transport buffer `dst`
  /// (`dst.size() == encoded_floats(src.size())`; pad bits zeroed).
  /// `p` must be a lossy precision — the fp32 passthrough is the caller
  /// simply not invoking the codec. May alias `src` per the contract above.
  static void encode(std::span<const float> src, std::span<float> dst,
                     Precision p);

  /// Decodes `dst.size()` elements from the bit-packed buffer `src`
  /// (`src.size() == encoded_floats(dst.size())`). May alias `src` per the
  /// contract above.
  static void decode(std::span<const float> src, std::span<float> dst,
                     Precision p);
};

}  // namespace dkfac::comm
