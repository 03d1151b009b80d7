// MixedRadix: bijective encoding between value vectors and dense indices.
//
// Used to (a) index CPT rows by parent configuration, (b) store joint
// distributions over the Cartesian product of missing-attribute domains as
// dense arrays, and (c) pack complete samples into 64-bit codes for the
// tuple-DAG sample-sharing optimization.

#ifndef MRSL_UTIL_MIXED_RADIX_H_
#define MRSL_UTIL_MIXED_RADIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mrsl {

/// Mixed-radix positional codec over fixed per-position cardinalities.
/// Position 0 is the most significant digit.
class MixedRadix {
 public:
  MixedRadix() = default;

  /// Creates a codec for the given per-position cardinalities (each >= 1).
  explicit MixedRadix(std::vector<uint32_t> cards);

  /// Number of positions.
  size_t num_positions() const { return cards_.size(); }

  /// Cardinality of position `i`.
  uint32_t card(size_t i) const { return cards_[i]; }

  /// Product of all cardinalities (the code space size). Saturates at
  /// uint64 max; Encode/Decode must not be used when saturated.
  uint64_t Size() const { return size_; }

  /// True iff Size() overflowed uint64.
  bool Saturated() const { return saturated_; }

  /// Encodes digits (digits[i] in [0, card(i))) into a dense code.
  uint64_t Encode(const std::vector<int32_t>& digits) const;

  /// Encodes with position `zero_pos` forced to digit 0 — the conditional
  /// CPD cache key, which must ignore the resampled attribute's own value.
  uint64_t EncodeWithZero(const std::vector<int32_t>& digits,
                          size_t zero_pos) const;

  /// Encodes the projection digits[positions[0]], digits[positions[1]],
  /// ... of a longer digit vector (positions.size() == num_positions())
  /// without gathering it into a temporary first.
  uint64_t EncodeAt(const int32_t* digits,
                    const std::vector<uint32_t>& positions) const;

  /// Decodes `code` into digits; inverse of Encode.
  std::vector<int32_t> Decode(uint64_t code) const;

  /// Decodes into a caller-provided buffer of num_positions() entries.
  void DecodeInto(uint64_t code, int32_t* out) const;

 private:
  std::vector<uint32_t> cards_;
  std::vector<uint64_t> strides_;
  uint64_t size_ = 1;
  bool saturated_ = false;
};

}  // namespace mrsl

#endif  // MRSL_UTIL_MIXED_RADIX_H_
