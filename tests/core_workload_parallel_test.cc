// Tests for parallel workload inference through Engine::InferBatch:
// results independent of the concurrency cap, equivalence with the
// sequential runner, deduplication, and validation.

#include "core/engine.h"

#include <gtest/gtest.h>

#include "bn/bayes_net.h"
#include "bn/exact.h"
#include "core/learner.h"
#include "core/tuple_dag.h"
#include "core/workload.h"
#include "expfw/metrics.h"

namespace mrsl {
namespace {

class WorkloadParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(616);
    bn_ = BayesNet::RandomInstance(Topology::Crown(5, 2), &rng);
    Relation train = bn_.SampleRelation(12000, &rng);
    LearnOptions lo;
    lo.support_threshold = 0.002;
    auto model = LearnModel(train, lo);
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();

    Rng wl_rng(617);
    for (int i = 0; i < 60; ++i) {
      Tuple t = bn_.ForwardSample(&wl_rng);
      size_t k = 1 + wl_rng.UniformInt(3);
      for (size_t j = 0; j < k; ++j) {
        t.set_value(static_cast<AttrId>(wl_rng.UniformInt(5)),
                    kMissingValue);
      }
      workload_.push_back(std::move(t));
    }
  }

  WorkloadOptions WOpts() {
    WorkloadOptions o;
    o.gibbs.samples = 400;
    o.gibbs.burn_in = 50;
    o.gibbs.seed = 11;
    return o;
  }

  Result<std::vector<JointDist>> InferParallel(
      const std::vector<Tuple>& workload, SamplingMode mode,
      size_t max_parallelism, WorkloadStats* stats = nullptr) {
    EngineOptions eo;
    eo.max_parallelism = max_parallelism;
    Engine engine(&model_, eo);
    return engine.InferBatch(workload, mode, WOpts(), stats);
  }

  BayesNet bn_;
  MrslModel model_;
  std::vector<Tuple> workload_;
};

TEST_F(WorkloadParallelTest, EmptyWorkload) {
  auto result = InferParallel({}, SamplingMode::kTupleDag, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

// The concurrency cap (max_parallelism on the shared pool) never changes
// results, in the tuple-at-a-time mode as well as the DAG mode.
TEST_F(WorkloadParallelTest, ThreadCountDoesNotChangeResults) {
  for (SamplingMode mode :
       {SamplingMode::kTupleAtATime, SamplingMode::kTupleDag}) {
    auto one = InferParallel(workload_, mode, 1);
    auto many = InferParallel(workload_, mode, 8);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(many.ok());
    ASSERT_EQ(one->size(), many->size());
    for (size_t i = 0; i < one->size(); ++i) {
      EXPECT_EQ((*one)[i].probs(), (*many)[i].probs())
          << "mode=" << SamplingModeName(mode) << " i=" << i;
    }
  }
}

TEST_F(WorkloadParallelTest, ResultsAlignedAndNormalized) {
  WorkloadStats stats;
  auto dists = InferParallel(workload_, SamplingMode::kTupleDag, 4, &stats);
  ASSERT_TRUE(dists.ok());
  ASSERT_EQ(dists->size(), workload_.size());
  for (size_t i = 0; i < workload_.size(); ++i) {
    EXPECT_EQ((*dists)[i].vars(), workload_[i].MissingAttrs());
    EXPECT_NEAR((*dists)[i].Sum(), 1.0, 1e-9);
  }
  EXPECT_GT(stats.points_sampled, 0u);
  // Distinct tuples add up across components to the global dedup count.
  TupleDag dag(workload_);
  EXPECT_EQ(stats.distinct_tuples, dag.num_nodes());
}

TEST_F(WorkloadParallelTest, AccuracyComparableToSequential) {
  auto par = InferParallel(workload_, SamplingMode::kTupleDag, 8);
  auto seq =
      RunWorkload(model_, workload_, SamplingMode::kTupleDag, WOpts());
  ASSERT_TRUE(par.ok());
  ASSERT_TRUE(seq.ok());
  AccuracyAccumulator par_acc;
  AccuracyAccumulator seq_acc;
  for (size_t i = 0; i < workload_.size(); ++i) {
    auto truth = TrueDistribution(bn_, workload_[i]);
    ASSERT_TRUE(truth.ok());
    par_acc.Add(KlDivergence(*truth, (*par)[i]), false);
    seq_acc.Add(KlDivergence(*truth, (*seq)[i]), false);
  }
  EXPECT_NEAR(par_acc.MeanKl(), seq_acc.MeanKl(), 0.05);
}

TEST_F(WorkloadParallelTest, DuplicateTuplesShareResults) {
  std::vector<Tuple> dup_workload = {workload_[0], workload_[1],
                                     workload_[0], workload_[0]};
  auto dists = InferParallel(dup_workload, SamplingMode::kTupleDag, 4);
  ASSERT_TRUE(dists.ok());
  EXPECT_EQ((*dists)[0].probs(), (*dists)[2].probs());
  EXPECT_EQ((*dists)[0].probs(), (*dists)[3].probs());
}

}  // namespace
}  // namespace mrsl
