// Tests for predicates (pdb/query.h) and for single-relation queries
// over BID databases — select, project, join, EXISTS and COUNT through
// the plan algebra — checked against exact possible-world enumeration
// and the Monte-Carlo plan oracle.

#include "pdb/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "oracle_harness.h"
#include "pdb/plan.h"
#include "util/rng.h"

namespace mrsl {
namespace {

using oracle_harness::CountAt;
using oracle_harness::SmallDb;
using oracle_harness::TrueCountDistribution;
using oracle_harness::TrueExists;
using oracle_harness::TrueMarginal;
using oracle_harness::TwoAttrSchema;

TEST(PredicateTest, EvalAtoms) {
  Predicate p = Predicate::Eq(0, 1);
  EXPECT_TRUE(p.Eval(Tuple({1, 0})));
  EXPECT_FALSE(p.Eval(Tuple({0, 0})));
  Predicate q = Predicate::Eq(0, 1).And(Predicate::Ne(1, 0));
  EXPECT_TRUE(q.Eval(Tuple({1, 1})));
  EXPECT_FALSE(q.Eval(Tuple({1, 0})));
  Predicate always;
  EXPECT_TRUE(always.Eval(Tuple({0, 0})));
}

TEST(PredicateTest, EvalPartialThreeValued) {
  using Tri = Predicate::Tri;
  Predicate p = Predicate::Eq(0, 1).And(Predicate::Ne(1, 0));
  // Fully decided.
  EXPECT_EQ(p.EvalPartial(Tuple({1, 1})), Tri::kTrue);
  EXPECT_EQ(p.EvalPartial(Tuple({0, 1})), Tri::kFalse);
  // A failing observed atom decides false even with other cells missing.
  EXPECT_EQ(p.EvalPartial(Tuple({0, kMissingValue})), Tri::kFalse);
  EXPECT_EQ(p.EvalPartial(Tuple({1, 0})), Tri::kFalse);
  // Missing cells that could flip the outcome -> unknown.
  EXPECT_EQ(p.EvalPartial(Tuple({kMissingValue, 1})), Tri::kUnknown);
  EXPECT_EQ(p.EvalPartial(Tuple({1, kMissingValue})), Tri::kUnknown);
  // The always-true predicate is decided on anything.
  EXPECT_EQ(Predicate().EvalPartial(Tuple(2)), Tri::kTrue);
}

TEST(PredicateTest, EvalPartialConsistentWithEval) {
  // On complete tuples, EvalPartial agrees with Eval for random atoms.
  Rng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    Predicate p;
    for (int k = 0; k < 3; ++k) {
      AttrId a = static_cast<AttrId>(rng.UniformInt(3));
      ValueId v = static_cast<ValueId>(rng.UniformInt(2));
      p = p.And(rng.Bernoulli(0.5) ? Predicate::Eq(a, v)
                                   : Predicate::Ne(a, v));
    }
    Tuple t({static_cast<ValueId>(rng.UniformInt(2)),
             static_cast<ValueId>(rng.UniformInt(2)),
             static_cast<ValueId>(rng.UniformInt(2))});
    EXPECT_EQ(p.EvalPartial(t) == Predicate::Tri::kTrue, p.Eval(t));
  }
}

TEST(PredicateTest, AttrsTouched) {
  Predicate p = Predicate::Eq(0, 1).And(Predicate::Ne(3, 0));
  EXPECT_EQ(p.AttrsTouched(), 0b1001u);
  EXPECT_EQ(Predicate().AttrsTouched(), 0u);
}

TEST(PredicateTest, ToString) {
  Schema s = TwoAttrSchema();
  Predicate p = Predicate::Eq(0, 1).And(Predicate::Ne(1, 0));
  EXPECT_EQ(p.ToString(s), "inc=100K AND nw!=100K");
  EXPECT_EQ(Predicate().ToString(s), "TRUE");
}

TEST(QueryTest, SelectKeepsMatchingAlternatives) {
  ProbDatabase db = SmallDb();
  auto sel = EvaluatePlan(*SelectPlan(Predicate::Eq(0, 1), ScanPlan(0)),
                          {&db});  // inc=100K
  ASSERT_TRUE(sel.ok());
  // Block 0 survives fully, block 1 keeps only its second alternative,
  // block 2 keeps its second alternative.
  std::map<size_t, std::vector<const PlanRow*>> by_block;
  for (const PlanRow& row : sel->rows) {
    by_block[row.lineage.block].push_back(&row);
  }
  EXPECT_EQ(by_block.size(), 3u);
  ASSERT_EQ(by_block[1].size(), 1u);
  EXPECT_EQ(by_block[1][0]->lineage.alts, std::vector<uint32_t>{1});
  EXPECT_DOUBLE_EQ(by_block[1][0]->prob.lo, 0.7);
}

TEST(QueryTest, ExpectedCountMatchesWorldEnumeration) {
  ProbDatabase db = SmallDb();
  auto plan = SelectPlan(Predicate::Eq(1, 1), ScanPlan(0));  // nw=500K
  auto count = EvaluateCount(*plan, {&db});
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(count->expected.exact());

  std::vector<double> dist = TrueCountDistribution(*plan, db);
  double brute = 0.0;
  for (size_t k = 0; k < dist.size(); ++k) {
    brute += static_cast<double>(k) * dist[k];
  }
  EXPECT_NEAR(count->expected.lo, brute, 1e-12);
}

TEST(QueryTest, ProbExistsMatchesWorldEnumeration) {
  ProbDatabase db = SmallDb();
  for (const Predicate& pred :
       {Predicate::Eq(0, 0), Predicate::Eq(1, 1),
        Predicate::Eq(0, 1).And(Predicate::Eq(1, 0))}) {
    auto plan = SelectPlan(pred, ScanPlan(0));
    auto exists = EvaluateExists(*plan, {&db});
    ASSERT_TRUE(exists.ok());
    ASSERT_TRUE(exists->prob.exact());
    EXPECT_NEAR(exists->prob.lo, TrueExists(*plan, db), 1e-12);
  }
}

TEST(QueryTest, CountDistributionMatchesWorldEnumeration) {
  ProbDatabase db = SmallDb();
  auto plan = SelectPlan(Predicate::Eq(1, 1), ScanPlan(0));
  auto count = EvaluateCount(*plan, {&db});
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(count->has_distribution);

  std::vector<double> brute = TrueCountDistribution(*plan, db);
  const size_t n = std::max(count->distribution.size(), brute.size());
  EXPECT_EQ(n, db.num_blocks());  // block 1 never has nw=500K
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(CountAt(count->distribution, k), CountAt(brute, k), 1e-12)
        << "count=" << k;
  }
  // It is a distribution.
  double sum = 0.0;
  for (double p : count->distribution) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(QueryTest, CountDistributionMatchesMonteCarlo) {
  ProbDatabase db = SmallDb();
  auto plan = SelectPlan(Predicate::Eq(0, 1), ScanPlan(0));
  auto exact = EvaluateCount(*plan, {&db});
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(exact->has_distribution);
  OracleOptions oracle;
  oracle.trials = 200000;
  oracle.seed = 4711;
  auto mc = MonteCarloPlanOracle(*plan, {&db}, oracle);
  ASSERT_TRUE(mc.ok());
  const size_t n =
      std::max(exact->distribution.size(), mc->count_distribution.size());
  EXPECT_EQ(n, db.num_blocks() + 1);
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(CountAt(exact->distribution, k),
                CountAt(mc->count_distribution, k), 0.01)
        << "count=" << k;
  }
}

TEST(QueryTest, ProjectDistinctDisjointWithinBlock) {
  // One block with two alternatives projecting to the same value: their
  // probabilities add (mutually exclusive).
  ProbDatabase db(TwoAttrSchema());
  Block b;
  b.alternatives.push_back({Tuple({0, 0}), 0.3});
  b.alternatives.push_back({Tuple({0, 1}), 0.4});
  ASSERT_TRUE(db.AddBlock(b).ok());
  auto proj = EvaluatePlan(*ProjectPlan({0}, ScanPlan(0)), {&db});
  ASSERT_TRUE(proj.ok());
  ASSERT_EQ(proj->rows.size(), 1u);
  EXPECT_NEAR(proj->rows[0].prob.lo, 0.7, 1e-12);
}

TEST(QueryTest, ProjectDistinctIndependentAcrossBlocks) {
  // Two blocks each projecting to inc=50K with prob 0.5:
  // P(appears) = 1 - 0.5 * 0.5 = 0.75.
  ProbDatabase db(TwoAttrSchema());
  for (int i = 0; i < 2; ++i) {
    Block b;
    b.alternatives.push_back({Tuple({0, 0}), 0.5});
    b.alternatives.push_back({Tuple({1, 0}), 0.5});
    ASSERT_TRUE(db.AddBlock(b).ok());
  }
  auto proj = EvaluatePlan(*ProjectPlan({0}, ScanPlan(0)), {&db});
  ASSERT_TRUE(proj.ok());
  std::map<ValueId, double> by_value;
  for (const PlanRow& row : proj->rows) {
    by_value[row.tuple.value(0)] = row.prob.lo;
  }
  EXPECT_NEAR(by_value[0], 0.75, 1e-12);
  EXPECT_NEAR(by_value[1], 0.75, 1e-12);
}

TEST(QueryTest, ProjectDistinctMatchesWorldEnumeration) {
  ProbDatabase db = SmallDb();
  auto plan = ProjectPlan({1}, ScanPlan(0));  // project onto nw
  auto proj = EvaluatePlan(*plan, {&db});
  ASSERT_TRUE(proj.ok());
  for (const PlanRow& row : proj->rows) {
    ASSERT_TRUE(row.prob.exact());
    EXPECT_NEAR(row.prob.lo, TrueMarginal(*plan, db, row.tuple), 1e-12);
  }
}

TEST(QueryTest, EquiJoinProbabilitiesMultiply) {
  ProbDatabase left(TwoAttrSchema());
  Block lb;
  lb.alternatives.push_back({Tuple({0, 0}), 0.4});
  lb.alternatives.push_back({Tuple({1, 1}), 0.6});
  ASSERT_TRUE(left.AddBlock(lb).ok());

  ProbDatabase right(TwoAttrSchema());
  Block rb;
  rb.alternatives.push_back({Tuple({0, 1}), 0.5});
  ASSERT_TRUE(right.AddBlock(rb).ok());

  // Join on inc == inc: only (0,0) x (0,1) matches.
  auto joined = EvaluatePlan(*JoinPlan(ScanPlan(0), ScanPlan(1), 0, 0),
                             {&left, &right});
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->rows.size(), 1u);
  EXPECT_NEAR(joined->rows[0].prob.lo, 0.4 * 0.5, 1e-12);
  EXPECT_EQ(joined->schema.num_attrs(), 4u);
  EXPECT_EQ(joined->rows[0].tuple.num_attrs(), 4u);
  // Right-hand attributes are renamed.
  AttrId id = 0;
  EXPECT_TRUE(joined->schema.FindAttr("inc_r", &id));
}

TEST(QueryTest, EquiJoinValidatesAttrs) {
  ProbDatabase db = SmallDb();
  EXPECT_FALSE(
      EvaluatePlan(*JoinPlan(ScanPlan(0), ScanPlan(0), 7, 0), {&db}).ok());
}

TEST(QueryTest, SelectThenCountComposes) {
  ProbDatabase db = SmallDb();
  Predicate inc100 = Predicate::Eq(0, 1);
  Predicate nw500 = Predicate::Eq(1, 1);
  // COUNT over select(inc=100K) with pred nw=500K equals COUNT with the
  // conjunction on the original database.
  auto direct =
      EvaluateCount(*SelectPlan(inc100.And(nw500), ScanPlan(0)), {&db});
  auto composed = EvaluateCount(
      *SelectPlan(nw500, SelectPlan(inc100, ScanPlan(0))), {&db});
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(composed.ok());
  EXPECT_NEAR(direct->expected.lo, composed->expected.lo, 1e-12);
}

}  // namespace
}  // namespace mrsl
