// Shared fixtures for suites that check the plan algebra against a
// ground-truth oracle: the small hand-built BID databases, exhaustive
// possible-world enumeration, and the randomized BID/plan generators
// the differential sweeps draw from. Extracted from pdb_plan_test.cc
// and cross_module_property_test.cc so the compiler conformance suite
// pins its bounds against the exact same corpus.

#ifndef MRSL_TESTS_ORACLE_HARNESS_H_
#define MRSL_TESTS_ORACLE_HARNESS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "pdb/plan.h"
#include "pdb/prob_database.h"
#include "pdb/query.h"
#include "util/rng.h"

namespace mrsl {
namespace oracle_harness {

inline Schema TwoAttrSchema() {
  auto s = Schema::Create(
      {Attribute("inc", {"50K", "100K"}), Attribute("nw", {"100K", "500K"})});
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

// A 3-block database: one certain block, one full block, one with mass
// 0.9 (a possibly-absent tuple).
inline ProbDatabase SmallDb() {
  ProbDatabase db(TwoAttrSchema());
  Block b1;
  b1.alternatives.push_back({Tuple({1, 1}), 1.0});
  EXPECT_TRUE(db.AddBlock(b1).ok());
  Block b2;
  b2.alternatives.push_back({Tuple({0, 0}), 0.3});
  b2.alternatives.push_back({Tuple({1, 0}), 0.7});
  EXPECT_TRUE(db.AddBlock(b2).ok());
  Block b3;
  b3.alternatives.push_back({Tuple({0, 1}), 0.5});
  b3.alternatives.push_back({Tuple({1, 1}), 0.4});  // mass 0.9
  EXPECT_TRUE(db.AddBlock(b3).ok());
  return db;
}

// Enumerates every possible world as a choice vector (alternative index
// per block, kNoAlternative for absence) with its probability.
inline void ForEachWorldChoices(
    const ProbDatabase& db,
    const std::function<void(const std::vector<int32_t>&, double)>& fn) {
  std::vector<int32_t> choices(db.num_blocks(), kNoAlternative);
  std::function<void(size_t, double)> rec = [&](size_t i, double p) {
    if (i == db.num_blocks()) {
      fn(choices, p);
      return;
    }
    const Block& b = db.block(i);
    for (size_t j = 0; j < b.alternatives.size(); ++j) {
      choices[i] = static_cast<int32_t>(j);
      rec(i + 1, p * b.alternatives[j].prob);
    }
    double absent = b.AbsentMass();
    if (absent > 1e-12) {
      choices[i] = kNoAlternative;
      rec(i + 1, p * absent);
    }
    choices[i] = kNoAlternative;
  };
  rec(0, 1.0);
}

// Ground-truth marginal of `target` in the plan result, by enumeration.
inline double TrueMarginal(const PlanNode& plan, const ProbDatabase& db,
                           const Tuple& target) {
  double truth = 0.0;
  ForEachWorldChoices(db, [&](const std::vector<int32_t>& choices, double p) {
    auto bag = EvaluatePlanInWorld(plan, {&db}, {choices});
    ASSERT_TRUE(bag.ok());
    for (const Tuple& t : *bag) {
      if (t == target) {
        truth += p;
        return;
      }
    }
  });
  return truth;
}

// Ground-truth distribution of the plan's bag count, by enumeration:
// entry k = P(count = k), sized to the largest count any world yields.
inline std::vector<double> TrueCountDistribution(const PlanNode& plan,
                                                 const ProbDatabase& db) {
  std::vector<double> dist;
  ForEachWorldChoices(db, [&](const std::vector<int32_t>& choices, double p) {
    auto bag = EvaluatePlanInWorld(plan, {&db}, {choices});
    ASSERT_TRUE(bag.ok());
    if (dist.size() <= bag->size()) dist.resize(bag->size() + 1, 0.0);
    dist[bag->size()] += p;
  });
  return dist;
}

// Ground-truth P(plan result is non-empty), by enumeration.
inline double TrueExists(const PlanNode& plan, const ProbDatabase& db) {
  std::vector<double> dist = TrueCountDistribution(plan, db);
  double truth = 0.0;
  for (size_t k = 1; k < dist.size(); ++k) truth += dist[k];
  return truth;
}

// Entry k of a count distribution, zero past its end. The plan DP only
// emits Bernoullis for blocks that still have rows, so distributions of
// the same count can differ in length.
inline double CountAt(const std::vector<double>& dist, size_t k) {
  return k < dist.size() ? dist[k] : 0.0;
}

inline Schema ThreeAttrSchema() {
  auto s = Schema::Create({Attribute("a", {"a0", "a1"}),
                           Attribute("b", {"b0", "b1", "b2"}),
                           Attribute("c", {"c0", "c1"})});
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

// A random BID database: 4-7 blocks of 1-3 complete alternatives; about
// half the blocks keep some absent mass (total < 1).
inline ProbDatabase RandomBid(const Schema& schema, Rng* rng) {
  ProbDatabase db(schema);
  size_t blocks = 4 + rng->UniformInt(4);
  for (size_t i = 0; i < blocks; ++i) {
    Block block;
    size_t alts = 1 + rng->UniformInt(3);
    double remaining =
        rng->Bernoulli(0.5) ? 1.0 : 0.4 + 0.5 * rng->NextDouble();
    for (size_t j = 0; j < alts; ++j) {
      Tuple t(schema.num_attrs());
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        t.set_value(a, static_cast<ValueId>(
                           rng->UniformInt(schema.attr(a).cardinality())));
      }
      double p = j + 1 == alts ? remaining
                               : remaining * (0.2 + 0.6 * rng->NextDouble());
      remaining -= p;
      block.alternatives.push_back({std::move(t), p});
    }
    // Distinct alternatives only (duplicates are legal but make the
    // fixture's hand bookkeeping murky).
    EXPECT_TRUE(db.AddBlock(std::move(block)).ok());
  }
  return db;
}

inline Predicate RandomPred(const Schema& schema, Rng* rng) {
  Predicate pred;
  size_t atoms = 1 + rng->UniformInt(2);
  for (size_t k = 0; k < atoms; ++k) {
    AttrId a = static_cast<AttrId>(rng->UniformInt(schema.num_attrs()));
    ValueId v = static_cast<ValueId>(
        rng->UniformInt(schema.attr(a).cardinality()));
    pred = pred.And(rng->Bernoulli(0.3) ? Predicate::Ne(a, v)
                                        : Predicate::Eq(a, v));
  }
  return pred;
}

// A random plan over `sources`: optionally-selected scans, optionally
// joined (possibly with the SAME source — the unsafe shape), optionally
// projected. Exercises every operator.
inline PlanPtr RandomPlan(const std::vector<const ProbDatabase*>& sources,
                          Rng* rng, size_t* out_arity) {
  size_t s1 = rng->UniformInt(sources.size());
  PlanPtr plan = ScanPlan(s1);
  const Schema& schema1 = sources[s1]->schema();
  if (rng->Bernoulli(0.7)) {
    plan = SelectPlan(RandomPred(schema1, rng), std::move(plan));
  }
  size_t arity = schema1.num_attrs();
  if (rng->Bernoulli(0.5)) {
    size_t s2 = rng->UniformInt(sources.size());
    PlanPtr rhs = ScanPlan(s2);
    const Schema& schema2 = sources[s2]->schema();
    if (rng->Bernoulli(0.5)) {
      rhs = SelectPlan(RandomPred(schema2, rng), std::move(rhs));
    }
    plan = JoinPlan(std::move(plan), std::move(rhs),
                    static_cast<AttrId>(rng->UniformInt(arity)),
                    static_cast<AttrId>(
                        rng->UniformInt(schema2.num_attrs())));
    arity += schema2.num_attrs();
  }
  if (rng->Bernoulli(0.6)) {
    size_t keep = 1 + rng->UniformInt(2);
    std::vector<AttrId> attrs;
    for (size_t k = 0; k < keep; ++k) {
      attrs.push_back(static_cast<AttrId>(rng->UniformInt(arity)));
    }
    plan = ProjectPlan(attrs, std::move(plan));
    arity = attrs.size();
  }
  *out_arity = arity;
  return plan;
}

}  // namespace oracle_harness
}  // namespace mrsl

#endif  // MRSL_TESTS_ORACLE_HARNESS_H_
