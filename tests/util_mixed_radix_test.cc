// Tests for the mixed-radix codec.

#include "util/mixed_radix.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace mrsl {
namespace {

TEST(MixedRadixTest, EmptyCodec) {
  MixedRadix mr((std::vector<uint32_t>()));
  EXPECT_EQ(mr.Size(), 1u);
  EXPECT_EQ(mr.num_positions(), 0u);
  EXPECT_EQ(mr.Encode({}), 0u);
}

TEST(MixedRadixTest, SinglePosition) {
  MixedRadix mr({5});
  EXPECT_EQ(mr.Size(), 5u);
  for (int32_t v = 0; v < 5; ++v) {
    EXPECT_EQ(mr.Encode({v}), static_cast<uint64_t>(v));
  }
}

TEST(MixedRadixTest, SizeIsProduct) {
  MixedRadix mr({2, 3, 4});
  EXPECT_EQ(mr.Size(), 24u);
}

TEST(MixedRadixTest, EncodeIsBijective) {
  MixedRadix mr({3, 2, 4});
  std::vector<bool> seen(mr.Size(), false);
  for (int32_t a = 0; a < 3; ++a) {
    for (int32_t b = 0; b < 2; ++b) {
      for (int32_t c = 0; c < 4; ++c) {
        uint64_t code = mr.Encode({a, b, c});
        ASSERT_LT(code, mr.Size());
        EXPECT_FALSE(seen[code]);
        seen[code] = true;
      }
    }
  }
}

TEST(MixedRadixTest, DecodeInvertsEncode) {
  MixedRadix mr({4, 5, 2, 3});
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int32_t> digits(4);
    for (size_t i = 0; i < 4; ++i) {
      digits[i] = static_cast<int32_t>(rng.UniformInt(mr.card(i)));
    }
    EXPECT_EQ(mr.Decode(mr.Encode(digits)), digits);
  }
}

TEST(MixedRadixTest, FirstPositionMostSignificant) {
  MixedRadix mr({2, 10});
  EXPECT_EQ(mr.Encode({1, 0}), 10u);
  EXPECT_EQ(mr.Encode({0, 9}), 9u);
}

TEST(MixedRadixTest, EncodeWithZeroIgnoresPosition) {
  MixedRadix mr({3, 4, 5});
  EXPECT_EQ(mr.EncodeWithZero({2, 3, 4}, 1), mr.Encode({2, 0, 4}));
  EXPECT_EQ(mr.EncodeWithZero({2, 3, 4}, 0), mr.Encode({0, 3, 4}));
  // Identical except at the zeroed slot -> identical keys.
  EXPECT_EQ(mr.EncodeWithZero({2, 0, 4}, 1), mr.EncodeWithZero({2, 3, 4}, 1));
  // Different elsewhere -> different keys.
  EXPECT_NE(mr.EncodeWithZero({1, 3, 4}, 1), mr.EncodeWithZero({2, 3, 4}, 1));
}

TEST(MixedRadixTest, EncodeAtEncodesTheProjection) {
  MixedRadix mr({3, 4, 5});
  const std::vector<int32_t> full = {9, 4, 2, 9, 3, 1};
  EXPECT_EQ(mr.EncodeAt(full.data(), {5, 2, 1}), mr.Encode({1, 2, 4}));
  EXPECT_EQ(mr.EncodeAt(full.data(), {2, 4, 5}), mr.Encode({2, 3, 1}));
}

TEST(MixedRadixTest, SaturationDetected) {
  // 2^64 overflows: 33 positions of cardinality 4 = 2^66.
  std::vector<uint32_t> cards(33, 4);
  MixedRadix mr(cards);
  EXPECT_TRUE(mr.Saturated());
}

TEST(MixedRadixTest, LargeButUnsaturated) {
  std::vector<uint32_t> cards(10, 10);  // 10^10 < 2^64
  MixedRadix mr(cards);
  EXPECT_FALSE(mr.Saturated());
  EXPECT_EQ(mr.Size(), 10000000000ULL);
}

TEST(MixedRadixTest, DecodeIntoBuffer) {
  MixedRadix mr({2, 3});
  int32_t buf[2];
  mr.DecodeInto(5, buf);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
}

}  // namespace
}  // namespace mrsl
