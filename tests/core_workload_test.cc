// Tests for Algorithm 3 and the workload sampling strategies: result
// alignment, tuple-DAG vs tuple-at-a-time cost and accuracy parity, and
// the independent-product baseline.

#include "core/workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bn/bayes_net.h"
#include "bn/exact.h"
#include "core/engine.h"
#include "core/learner.h"
#include "expfw/metrics.h"
#include "util/wire.h"

namespace mrsl {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1212);
    bn_ = BayesNet::RandomInstance(Topology::Crown(4, 2), &rng);
    train_ = bn_.SampleRelation(15000, &rng);
    LearnOptions lo;
    lo.support_threshold = 0.001;
    auto model = LearnModel(train_, lo);
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();

    // A workload with overlapping subsumption structure: some tuples with
    // 2 missing, their subsumers with 3 missing, plus duplicates.
    Rng wl_rng(77);
    for (int i = 0; i < 25; ++i) {
      Tuple t = bn_.ForwardSample(&wl_rng);
      t.set_value(1, kMissingValue);
      t.set_value(2, kMissingValue);
      workload_.push_back(t);
      if (i % 3 == 0) {
        Tuple g = t;
        g.set_value(3, kMissingValue);
        workload_.push_back(g);  // subsumes t
      }
      if (i % 5 == 0) workload_.push_back(t);  // duplicate
    }
  }

  WorkloadOptions WOpts(size_t samples, uint64_t seed = 5) {
    WorkloadOptions o;
    o.gibbs.burn_in = 30;
    o.gibbs.samples = samples;
    o.gibbs.seed = seed;
    return o;
  }

  BayesNet bn_;
  Relation train_;
  MrslModel model_;
  std::vector<Tuple> workload_;
};

TEST_F(WorkloadTest, RejectsCompleteTuples) {
  std::vector<Tuple> bad = {Tuple({0, 0, 0, 0})};
  EXPECT_FALSE(
      RunWorkload(model_, bad, SamplingMode::kTupleDag, WOpts(100)).ok());
}

TEST_F(WorkloadTest, ResultsAlignedWithWorkload) {
  for (SamplingMode mode :
       {SamplingMode::kTupleAtATime, SamplingMode::kTupleDag,
        SamplingMode::kIndependentProduct}) {
    auto dists = RunWorkload(model_, workload_, mode, WOpts(200));
    ASSERT_TRUE(dists.ok()) << SamplingModeName(mode);
    ASSERT_EQ(dists->size(), workload_.size());
    for (size_t i = 0; i < workload_.size(); ++i) {
      EXPECT_EQ((*dists)[i].vars(), workload_[i].MissingAttrs());
      EXPECT_NEAR((*dists)[i].Sum(), 1.0, 1e-9);
    }
  }
}

TEST_F(WorkloadTest, DuplicateTuplesGetIdenticalDistributions) {
  auto dists =
      RunWorkload(model_, workload_, SamplingMode::kTupleDag, WOpts(200));
  ASSERT_TRUE(dists.ok());
  for (size_t i = 0; i < workload_.size(); ++i) {
    for (size_t j = i + 1; j < workload_.size(); ++j) {
      if (workload_[i] == workload_[j]) {
        EXPECT_EQ((*dists)[i].probs(), (*dists)[j].probs());
      }
    }
  }
}

TEST_F(WorkloadTest, TupleDagDrawsFewerPoints) {
  WorkloadStats baseline;
  WorkloadStats dag;
  ASSERT_TRUE(RunWorkload(model_, workload_, SamplingMode::kTupleAtATime,
                          WOpts(300), &baseline)
                  .ok());
  ASSERT_TRUE(RunWorkload(model_, workload_, SamplingMode::kTupleDag,
                          WOpts(300), &dag)
                  .ok());
  EXPECT_EQ(baseline.distinct_tuples, dag.distinct_tuples);
  // The DAG shares samples with subsumees, so it must draw strictly
  // fewer points on this subsumption-rich workload.
  EXPECT_LT(dag.points_sampled, baseline.points_sampled);
  EXPECT_GT(dag.shared_samples, 0u);
  EXPECT_EQ(baseline.shared_samples, 0u);
}

TEST_F(WorkloadTest, TupleDagAccuracyMatchesTupleAtATime) {
  // Paper: "we compared the accuracy of tuple-DAG to tuple-at-a-time and
  // found no difference". Check mean KL against ground truth.
  auto base = RunWorkload(model_, workload_, SamplingMode::kTupleAtATime,
                          WOpts(2000, 3));
  auto dag =
      RunWorkload(model_, workload_, SamplingMode::kTupleDag, WOpts(2000, 3));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(dag.ok());
  AccuracyAccumulator acc_base;
  AccuracyAccumulator acc_dag;
  for (size_t i = 0; i < workload_.size(); ++i) {
    auto truth = TrueDistribution(bn_, workload_[i]);
    ASSERT_TRUE(truth.ok());
    acc_base.Add(KlDivergence(*truth, (*base)[i]), false);
    acc_dag.Add(KlDivergence(*truth, (*dag)[i]), false);
  }
  EXPECT_NEAR(acc_base.MeanKl(), acc_dag.MeanKl(), 0.05);
}

TEST_F(WorkloadTest, AllAtATimeProducesEstimates) {
  // Use a small workload (all-at-a-time wastes most samples).
  std::vector<Tuple> small(workload_.begin(), workload_.begin() + 6);
  WorkloadOptions opts = WOpts(100);
  opts.max_total_cycles = 200000;
  WorkloadStats stats;
  auto dists = RunWorkload(model_, small, SamplingMode::kAllAtATime, opts,
                           &stats);
  ASSERT_TRUE(dists.ok());
  for (const auto& d : *dists) {
    EXPECT_NEAR(d.Sum(), 1.0, 1e-9);
  }
  // All-at-a-time draws from the full space; with 4 binary attributes the
  // evidence of these tuples is common enough that the chain terminates
  // well before the cycle cap (the paper's 6%-support example is where it
  // degrades — bench_ablation covers that regime).
  EXPECT_GT(stats.points_sampled, 100u);
  EXPECT_LT(stats.points_sampled, opts.max_total_cycles);
}

TEST_F(WorkloadTest, IndependentProductMatchesGibbsOnIndependentData) {
  // On an independent network the product approximation is exact, so the
  // two strategies should agree closely.
  Rng rng(999);
  BayesNet ind_bn =
      BayesNet::RandomInstance(Topology::Independent(4, 3), &rng);
  Relation train = ind_bn.SampleRelation(20000, &rng);
  LearnOptions lo;
  lo.support_threshold = 0.001;
  auto model = LearnModel(train, lo);
  ASSERT_TRUE(model.ok());

  std::vector<Tuple> workload;
  for (int i = 0; i < 10; ++i) {
    Tuple t = ind_bn.ForwardSample(&rng);
    t.set_value(0, kMissingValue);
    t.set_value(2, kMissingValue);
    workload.push_back(std::move(t));
  }
  auto prod = RunWorkload(*model, workload,
                          SamplingMode::kIndependentProduct, WOpts(2000));
  auto gibbs =
      RunWorkload(*model, workload, SamplingMode::kTupleDag, WOpts(2000));
  ASSERT_TRUE(prod.ok());
  ASSERT_TRUE(gibbs.ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto truth = TrueDistribution(ind_bn, workload[i]);
    ASSERT_TRUE(truth.ok());
    double kl_prod = KlDivergence(*truth, (*prod)[i]);
    double kl_gibbs = KlDivergence(*truth, (*gibbs)[i]);
    EXPECT_LT(kl_prod, 0.05);
    EXPECT_LT(kl_gibbs, 0.15);
  }
}

TEST_F(WorkloadTest, StatsAccounting) {
  WorkloadStats stats;
  ASSERT_TRUE(RunWorkload(model_, workload_, SamplingMode::kTupleAtATime,
                          WOpts(100), &stats)
                  .ok());
  // tuple-at-a-time: distinct * (burn_in + samples) sweeps exactly.
  EXPECT_EQ(stats.points_sampled, stats.distinct_tuples * (30 + 100));
  EXPECT_EQ(stats.burn_in_points, stats.distinct_tuples * 30);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

// FNV-1a 64 over the raw bytes of every distribution's probabilities, in
// workload order, as hex.
std::string ProbDigest(const std::vector<JointDist>& dists) {
  std::string bytes;
  for (const JointDist& d : dists) {
    bytes.append(reinterpret_cast<const char*>(d.probs().data()),
                 d.probs().size() * sizeof(double));
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(wire::Fnv1a64(bytes)));
  return hex;
}

// Pins the exact Δt of both Gibbs strategies, through RunWorkload and
// through the engine, on a workload whose subsumption DAG has several
// levels, several parents per node and duplicates. Sample sharing, the
// order in which nodes complete and the accumulation order are all inside
// the digest: any change to them that is not bit-identical fails here.
TEST(WorkloadGoldenTest, DigestsOfDerivedDistributions) {
  Rng rng(4242);
  const BayesNet bn = BayesNet::RandomInstance(
      Topology::Crown(4, 2).WithCards({3, 4, 5, 5}), &rng);
  const Relation train = bn.SampleRelation(4000, &rng);
  LearnOptions lo;
  lo.support_threshold = 0.005;
  auto model = LearnModel(train, lo);
  ASSERT_TRUE(model.ok());

  Relation rel(model->schema());
  std::vector<Tuple> workload;
  Rng wl_rng(31);
  for (int i = 0; i < 60; ++i) {
    Tuple t = bn.ForwardSample(&wl_rng);
    ASSERT_TRUE(rel.Append(t).ok());  // complete rows are skipped
    // 1..4 missing cells; every third tuple also yields a more general
    // copy with one more cell missing, so chains of subsumers form.
    const uint64_t mask = 1 + wl_rng.UniformInt(15);
    for (AttrId a = 0; a < 4; ++a) {
      if ((mask >> a) & 1) t.set_value(a, kMissingValue);
    }
    workload.push_back(t);
    if (i % 3 == 0) {
      t.set_value(static_cast<AttrId>(wl_rng.UniformInt(4)), kMissingValue);
      if (!t.IsComplete()) workload.push_back(t);
    }
  }
  for (const Tuple& t : workload) ASSERT_TRUE(rel.Append(t).ok());

  struct Case {
    SamplingMode mode;
    size_t samples;
    const char* run_workload;
    const char* derive_batch;
    uint64_t points_sampled;
    uint64_t shared_samples;
  };
  const Case cases[] = {
      {SamplingMode::kTupleDag, 60, "fae6f196da34d51b", "df590075b2da826a",
       2374, 1246},
      {SamplingMode::kTupleDag, 300, "aeff689308b711bb", "401d7a622cc3b9a1",
       8497, 6203},
      {SamplingMode::kTupleAtATime, 60, "5c64b5b32813e4d5",
       "71eef32581445077", 3680, 0},
      {SamplingMode::kTupleAtATime, 300, "3dfc122feea98964",
       "0e244e90faa2f23a", 14720, 0},
  };
  for (const Case& c : cases) {
    WorkloadOptions opts;
    opts.gibbs.burn_in = 20;
    opts.gibbs.samples = c.samples;
    opts.gibbs.seed = 9;
    WorkloadStats stats;
    auto direct = RunWorkload(*model, workload, c.mode, opts, &stats);
    ASSERT_TRUE(direct.ok());
    Engine engine(&*model);
    auto derived = engine.DeriveBatch(rel, c.mode, opts);
    ASSERT_TRUE(derived.ok());
    SCOPED_TRACE(std::string(SamplingModeName(c.mode)) + " N=" +
                 std::to_string(c.samples));
    EXPECT_EQ(ProbDigest(*direct), c.run_workload);
    EXPECT_EQ(ProbDigest(*derived), c.derive_batch);
    EXPECT_EQ(stats.points_sampled, c.points_sampled);
    EXPECT_EQ(stats.shared_samples, c.shared_samples);
  }
}

}  // namespace
}  // namespace mrsl
