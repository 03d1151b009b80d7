// Tests for Tuple: completeness, matching (Def 2.3), subsumption
// (Def 2.4), plus randomized partial-order property tests.

#include "relational/tuple.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mrsl {
namespace {

Tuple T(std::vector<ValueId> v) { return Tuple(std::move(v)); }

TEST(TupleTest, AllMissingConstructor) {
  Tuple t(4);
  EXPECT_EQ(t.num_attrs(), 4u);
  EXPECT_FALSE(t.IsComplete());
  EXPECT_EQ(t.NumMissing(), 4u);
  EXPECT_EQ(t.CompleteMask(), 0u);
}

TEST(TupleTest, CompleteMaskAndMissingAttrs) {
  Tuple t = T({1, kMissingValue, 2, kMissingValue});
  EXPECT_EQ(t.CompleteMask(), 0b0101u);
  EXPECT_EQ(t.MissingAttrs(), (std::vector<AttrId>{1, 3}));
  EXPECT_EQ(t.AssignedAttrs(), (std::vector<AttrId>{0, 2}));
  EXPECT_EQ(t.NumMissing(), 2u);
  EXPECT_FALSE(t.IsComplete());
}

TEST(TupleTest, CompleteTupleIsPoint) {
  Tuple t = T({0, 1, 2});
  EXPECT_TRUE(t.IsComplete());
  EXPECT_EQ(t.NumMissing(), 0u);
}

// Fig 1: t4 = <20,HS,100K,500K> matches t1 = <20,HS,?,?>, t2 does not.
TEST(TupleTest, MatchingFollowsPaperExample) {
  // age: 20=0,30=1,40=2; edu: HS=0,BS=1,MS=2; inc: 50K=0,100K=1;
  // nw: 100K=0,500K=1.
  Tuple t1 = T({0, 0, kMissingValue, kMissingValue});
  Tuple t2 = T({0, 1, 0, 0});
  Tuple t4 = T({0, 0, 1, 1});
  EXPECT_TRUE(t1.MatchedBy(t4));
  EXPECT_FALSE(t1.MatchedBy(t2));
}

TEST(TupleTest, EverythingMatchesAllMissing) {
  Tuple t_star(3);
  EXPECT_TRUE(t_star.MatchedBy(T({0, 1, 2})));
  EXPECT_TRUE(t_star.MatchedBy(T({2, 0, 0})));
}

// Fig 1 narrative: t1 < t5 and t3 < t5; t1 and t3 are incomparable.
TEST(TupleTest, SubsumptionFollowsPaperExample) {
  Tuple t1 = T({0, 0, kMissingValue, kMissingValue});   // age=20,edu=HS
  Tuple t3 = T({0, kMissingValue, 0, kMissingValue});   // age=20,inc=50K
  Tuple t5 = T({0, kMissingValue, kMissingValue, kMissingValue});  // age=20
  EXPECT_TRUE(t5.Subsumes(t1));
  EXPECT_TRUE(t5.Subsumes(t3));
  EXPECT_FALSE(t1.Subsumes(t3));
  EXPECT_FALSE(t3.Subsumes(t1));
  EXPECT_FALSE(t1.Subsumes(t5));
}

TEST(TupleTest, SubsumptionRequiresAgreement) {
  Tuple general = T({0, kMissingValue});
  Tuple specific_agree = T({0, 1});
  Tuple specific_disagree = T({1, 1});
  EXPECT_TRUE(general.Subsumes(specific_agree));
  EXPECT_FALSE(general.Subsumes(specific_disagree));
}

TEST(TupleTest, SubsumptionIsIrreflexive) {
  Tuple t = T({0, kMissingValue, 1});
  EXPECT_FALSE(t.Subsumes(t));
  EXPECT_TRUE(t.SubsumesOrEquals(t));
}

TEST(TupleTest, SubsumesOrEqualsAcceptsProperSubsumption) {
  Tuple g = T({0, kMissingValue});
  Tuple s = T({0, 1});
  EXPECT_TRUE(g.SubsumesOrEquals(s));
  EXPECT_FALSE(s.SubsumesOrEquals(g));
}

TEST(TupleTest, AgreesOn) {
  Tuple a = T({0, 1, 2});
  Tuple b = T({0, 9, 2});
  EXPECT_TRUE(a.AgreesOn(b, 0b101));
  EXPECT_FALSE(a.AgreesOn(b, 0b111));
  EXPECT_TRUE(a.AgreesOn(b, 0));
}

TEST(TupleTest, ToStringRendersMissingAsQuestionMark) {
  auto schema = Schema::Create({Attribute("age", {"20", "30"}),
                                Attribute("inc", {"50K", "100K"})});
  ASSERT_TRUE(schema.ok());
  Tuple t = T({1, kMissingValue});
  EXPECT_EQ(t.ToString(*schema), "(age=30, inc=?)");
}

TEST(TupleTest, HashEqualForEqualTuples) {
  TupleHash h;
  EXPECT_EQ(h(T({1, 2, kMissingValue})), h(T({1, 2, kMissingValue})));
  EXPECT_NE(h(T({1, 2, 3})), h(T({3, 2, 1})));
}

// Golden values, computed independently of this code base. TupleHash
// runs FNV-1a's loop with offset 1469598103934665603, not FNV's basis;
// it seeds every Gibbs chain (via WorkloadComponentSeed), so the
// constant must not change.
TEST(TupleTest, HashGoldenValues) {
  TupleHash h;
  EXPECT_EQ(h(Tuple()), 0x14650fb0739d0383ULL);  // the offset itself
  EXPECT_EQ(h(T({1, 2, kMissingValue})), 0x14ef2463ca5b70c9ULL);
  EXPECT_EQ(h(T({0, 1, 2})), 0xa940e14f3a8f72beULL);
}

// ---- Property tests: subsumption is a strict partial order ----

class SubsumptionPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Tuple RandomTuple(Rng* rng, size_t n, double missing_prob) {
    Tuple t(n);
    for (size_t i = 0; i < n; ++i) {
      if (!rng->Bernoulli(missing_prob)) {
        t.set_value(static_cast<AttrId>(i),
                    static_cast<ValueId>(rng->UniformInt(3)));
      }
    }
    return t;
  }
};

TEST_P(SubsumptionPropertyTest, TransitivityAndAntisymmetry) {
  Rng rng(GetParam());
  constexpr size_t kAttrs = 5;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 24; ++i) {
    tuples.push_back(RandomTuple(&rng, kAttrs, 0.5));
  }
  for (const Tuple& a : tuples) {
    for (const Tuple& b : tuples) {
      // Antisymmetry of strict subsumption.
      if (a.Subsumes(b)) {
        EXPECT_FALSE(b.Subsumes(a));
      }
      for (const Tuple& c : tuples) {
        // Transitivity.
        if (a.Subsumes(b) && b.Subsumes(c)) {
          EXPECT_TRUE(a.Subsumes(c));
        }
      }
    }
  }
}

TEST_P(SubsumptionPropertyTest, SubsumerMatchedBySupersetOfPoints) {
  // If g subsumes s, then every point matching s also matches g.
  Rng rng(GetParam() + 1000);
  constexpr size_t kAttrs = 4;
  for (int trial = 0; trial < 50; ++trial) {
    Tuple g = RandomTuple(&rng, kAttrs, 0.6);
    Tuple s = RandomTuple(&rng, kAttrs, 0.3);
    if (!g.Subsumes(s)) continue;
    for (int p = 0; p < 20; ++p) {
      Tuple point(kAttrs);
      for (size_t i = 0; i < kAttrs; ++i) {
        point.set_value(static_cast<AttrId>(i),
                        static_cast<ValueId>(rng.UniformInt(3)));
      }
      if (s.MatchedBy(point)) {
        EXPECT_TRUE(g.MatchedBy(point));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsumptionPropertyTest,
                         ::testing::Values(10, 20, 30, 40, 50));

}  // namespace
}  // namespace mrsl
