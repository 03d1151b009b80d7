// Strides are precomputed right-to-left (last digit varies fastest, i.e.
// row-major). A product overflowing uint64 marks the space `saturated_`:
// Size() stays usable as a sentinel but Encode/Decode assert, so callers
// must check Saturated() before materializing anything dense.

#include "util/mixed_radix.h"

#include <cstddef>
#include <cassert>
#include <limits>

namespace mrsl {

MixedRadix::MixedRadix(std::vector<uint32_t> cards)
    : cards_(std::move(cards)), strides_(cards_.size()) {
  for (size_t i = cards_.size(); i-- > 0;) {
    assert(cards_[i] >= 1);
    strides_[i] = size_;
    if (size_ > std::numeric_limits<uint64_t>::max() / cards_[i]) {
      saturated_ = true;
      size_ = std::numeric_limits<uint64_t>::max();
    } else {
      size_ *= cards_[i];
    }
  }
}

uint64_t MixedRadix::Encode(const std::vector<int32_t>& digits) const {
  assert(!saturated_);
  assert(digits.size() == cards_.size());
  uint64_t code = 0;
  for (size_t i = 0; i < cards_.size(); ++i) {
    assert(digits[i] >= 0 &&
           static_cast<uint32_t>(digits[i]) < cards_[i]);
    code += static_cast<uint64_t>(digits[i]) * strides_[i];
  }
  return code;
}

uint64_t MixedRadix::EncodeWithZero(const std::vector<int32_t>& digits,
                                    size_t zero_pos) const {
  assert(!saturated_);
  assert(digits.size() == cards_.size());
  uint64_t code = 0;
  for (size_t i = 0; i < cards_.size(); ++i) {
    if (i == zero_pos) continue;
    assert(digits[i] >= 0 && static_cast<uint32_t>(digits[i]) < cards_[i]);
    code += static_cast<uint64_t>(digits[i]) * strides_[i];
  }
  return code;
}

uint64_t MixedRadix::EncodeAt(const int32_t* digits,
                              const std::vector<uint32_t>& positions) const {
  assert(!saturated_);
  assert(positions.size() == cards_.size());
  uint64_t code = 0;
  for (size_t i = 0; i < cards_.size(); ++i) {
    const int32_t d = digits[positions[i]];
    assert(d >= 0 && static_cast<uint32_t>(d) < cards_[i]);
    code += static_cast<uint64_t>(d) * strides_[i];
  }
  return code;
}

std::vector<int32_t> MixedRadix::Decode(uint64_t code) const {
  std::vector<int32_t> out(cards_.size());
  DecodeInto(code, out.data());
  return out;
}

void MixedRadix::DecodeInto(uint64_t code, int32_t* out) const {
  assert(!saturated_);
  for (size_t i = 0; i < cards_.size(); ++i) {
    out[i] = static_cast<int32_t>(code / strides_[i]);
    code %= strides_[i];
  }
}

}  // namespace mrsl
