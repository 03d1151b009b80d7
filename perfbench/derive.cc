// The derive workload: the paper's offline pipeline with no HTTP and no
// store. One pass learns the MRSL model from the complete training rows
// (Apriori mining + meta-rules), derives Δt for every incomplete test
// tuple in tuple-DAG mode with production Gibbs defaults (CPD cache on),
// and materializes the BID database. Passes repeat on identical inputs
// until the time budget is spent; every pass must derive the identical
// database. Accuracy against the exact posterior is scored outside the
// timed passes.

#include <cmath>
#include <cstdio>

#include "bn/exact.h"
#include "core/engine.h"
#include "core/learner.h"
#include "expfw/metrics.h"
#include "inputs.h"
#include "pdb/prob_database.h"
#include "util/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Exact posteriors of `tuples`; false when one cannot be computed.
bool ExactPosteriors(const mrsl::BayesNet& bn,
                     const std::vector<mrsl::Tuple>& tuples,
                     std::vector<mrsl::JointDist>* truths) {
  truths->clear();
  for (const mrsl::Tuple& t : tuples) {
    auto truth = mrsl::TrueDistribution(bn, t);
    if (!truth.ok()) return false;
    truths->push_back(std::move(truth).value());
  }
  return true;
}

Accuracy Score(const std::vector<mrsl::JointDist>& truths,
               const std::vector<const mrsl::JointDist*>& dists) {
  Accuracy out;
  mrsl::AccuracyAccumulator acc;
  for (size_t i = 0; i < dists.size(); ++i) {
    if (std::abs(dists[i]->Sum() - 1.0) > 1e-9) out.sums_ok = false;
    acc.Add(mrsl::KlDivergence(truths[i], *dists[i]),
            mrsl::Top1Match(truths[i], *dists[i]));
  }
  out.kl = acc.MeanKl();
  out.top1 = acc.Top1Rate();
  out.scored = acc.count();
  return out;
}

}  // namespace

void ReportAccuracy(const Accuracy& acc, Measured* out) {
  out->e2e["derive_kl"] = acc.kl;
  out->e2e["derive_top1"] = acc.top1;
  out->report.Note("derive_kl and derive_top1 score " +
                   std::to_string(acc.scored) + " derived distributions");
  out->report.Check("derived_distributions_sum_to_1", acc.sums_ok,
                    std::to_string(acc.scored) + " distributions");
}

Accuracy ScoreAgainstExact(const mrsl::BayesNet& bn,
                           const std::vector<mrsl::Tuple>& tuples,
                           const std::vector<const mrsl::JointDist*>& dists) {
  std::vector<mrsl::JointDist> truths;
  if (!ExactPosteriors(bn, tuples, &truths)) {
    Accuracy failed;
    failed.sums_ok = false;
    return failed;
  }
  return Score(truths, dists);
}

namespace {

constexpr int kSetupRepeats = 15;
constexpr size_t kMinPasses = 3;

struct Pass {
  double wall = 0.0;
  double learn_s = 0.0;
  double infer_s = 0.0;
  double materialize_s = 0.0;
  mrsl::LearnStats learn;
  mrsl::WorkloadStats work;
  uint64_t digest = 0;
  std::vector<mrsl::JointDist> dists;
};

template <typename T>
void AppendBytes(const std::vector<T>& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

// Learn + derive + materialize, each call timed from the outside.
bool RunPass(const DeriveInputs& in, Pass* p, std::string* err) {
  const double t0 = Now();
  auto model = mrsl::LearnModel(in.train, mrsl::LearnOptions(), &p->learn);
  const double t1 = Now();
  if (!model.ok()) {
    *err = "learn: " + model.status().ToString();
    return false;
  }
  mrsl::Engine engine(&*model);
  const mrsl::WorkloadOptions options;  // production Gibbs defaults
  const double t2 = Now();
  auto dists = engine.DeriveBatch(in.test, mrsl::SamplingMode::kTupleDag,
                                  options, 0, &p->work);
  const double t3 = Now();
  if (!dists.ok()) {
    *err = "derive: " + dists.status().ToString();
    return false;
  }
  auto db = mrsl::ProbDatabase::FromInference(in.test, *dists);
  const double t4 = Now();
  if (!db.ok()) {
    *err = "materialize: " + db.status().ToString();
    return false;
  }
  p->wall = t4 - t0;
  p->learn_s = t1 - t0;
  p->infer_s = t3 - t2;
  p->materialize_s = t4 - t3;

  std::string bytes;
  for (const mrsl::JointDist& d : *dists) AppendBytes(d.probs(), &bytes);
  for (size_t b = 0; b < db->num_blocks(); ++b) {
    for (const mrsl::Alternative& alt : db->block(b).alternatives) {
      AppendBytes(alt.tuple.values(), &bytes);
      AppendBytes(std::vector<double>{alt.prob}, &bytes);
    }
  }
  p->digest = mrsl::wire::Fnv1a64(bytes);
  p->dists = std::move(dists).value();
  return true;
}

// The extra tuples' Δt, from a model learned as in a pass.
bool DeriveExtra(const DeriveInputs& in, std::vector<mrsl::JointDist>* out,
                 std::string* err) {
  auto model = mrsl::LearnModel(in.train, mrsl::LearnOptions());
  if (!model.ok()) {
    *err = "learn: " + model.status().ToString();
    return false;
  }
  mrsl::Engine engine(&*model);
  auto dists = engine.DeriveBatch(in.extra, mrsl::SamplingMode::kTupleDag,
                                  mrsl::WorkloadOptions(), 0, nullptr);
  if (!dists.ok()) {
    *err = "derive: " + dists.status().ToString();
    return false;
  }
  *out = std::move(dists).value();
  return true;
}

}  // namespace

void RunDerive(const RunConfig& config, Measured* out) {
  Report& rep = out->report;
  const Universe u = DeriveUniverse();
  DeriveInputs in;
  std::vector<mrsl::JointDist> truths;
  bool truths_ok = false;
  // Set-up: the seeded inputs and the exact posteriors they are scored
  // against (the timed tuples', then the extra ones').
  out->e2e["setup_s"] = MedianSetupSeconds(kSetupRepeats, [&]() {
    in = MakeDeriveInputs(u, config.seed);
    std::vector<mrsl::Tuple> scored = in.test.rows();
    scored.insert(scored.end(), in.extra.rows().begin(), in.extra.rows().end());
    truths_ok = ExactPosteriors(u.bn, scored, &truths);
  });
  rep.Check("exact_posteriors", truths_ok, "");
  if (!truths_ok) return;

  std::vector<Pass> passes;
  double spent = 0.0;
  while (spent < config.seconds || passes.size() < kMinPasses) {
    Pass p;
    std::string err;
    rep.CountOps(kDeriveTuples, 0);
    if (!RunPass(in, &p, &err)) {
      rep.CountOps(0, kDeriveTuples);
      rep.Check("derive_pass", false, err);
      return;
    }
    spent += p.wall;
    if (!passes.empty()) p.dists.clear();  // only the first is scored
    passes.push_back(std::move(p));
  }

  size_t differing = 0;
  for (const Pass& p : passes) differing += p.digest != passes[0].digest;
  rep.Check("every_pass_derives_identical_database", differing == 0,
            std::to_string(passes.size()) + " passes");
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(passes[0].digest));
  rep.Note(std::string("derived database digest = ") + digest +
           " (FNV-1a 64 of every Δt and block; equal on traced and "
           "untraced runs of one seed)");
  rep.CountOps(0, differing * kDeriveTuples);

  // DeriveBatch answers the whole test set at once, so the latency
  // distribution is over passes: a pass's wall time per derived tuple.
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall);
  const double n = static_cast<double>(kDeriveTuples);
  out->e2e["ops_per_s"] = n / Median(walls);
  out->e2e["op_p50_ms"] = Median(walls) / n * 1e3;
  out->e2e["op_p95_ms"] = Quantile(walls, 0.95) / n * 1e3;
  rep.Note("passes: " + std::to_string(walls.size()) + ", wall min " +
           Num(Quantile(walls, 0.0)) + " s, median " + Num(Median(walls)) +
           " s, p95 " + Num(Quantile(walls, 0.95)) + " s, max " +
           Num(Quantile(walls, 1.0)) +
           " s; op latency is pass wall time per derived tuple");

  // derive_kl scores the first pass's Δt and, to narrow its seed-to-seed
  // spread, those of the extra tuples, derived after the timed passes by
  // the same pipeline.
  std::vector<mrsl::JointDist> extra;
  std::string err;
  if (!DeriveExtra(in, &extra, &err)) {
    rep.Check("derive_extra", false, err);
    return;
  }
  std::vector<const mrsl::JointDist*> dists;
  for (const mrsl::JointDist& d : passes[0].dists) dists.push_back(&d);
  for (const mrsl::JointDist& d : extra) dists.push_back(&d);
  const Accuracy acc = Score(truths, dists);
  ReportAccuracy(acc, out);

  std::vector<size_t> histogram(u.schema.num_attrs(), 0);
  for (const mrsl::Tuple& t : in.test.rows()) ++histogram[t.NumMissing()];
  for (size_t k = 1; k < histogram.size(); ++k) {
    rep.Traffic("missing_" + std::to_string(k) + "_share",
                static_cast<double>(histogram[k]) / n);
  }
  const mrsl::WorkloadStats& w = passes[0].work;
  const double samples = static_cast<double>(w.shared_samples + w.points_sampled);
  const double shared_ratio = samples > 0 ? w.shared_samples / samples : 0.0;
  rep.Traffic("shared_sample_ratio", shared_ratio);
  rep.Traffic("distinct_tuples", static_cast<double>(w.distinct_tuples));

  if (!config.trace) return;
  std::vector<double> learn, mining, infer, mat;
  for (const Pass& p : passes) {
    learn.push_back(p.learn_s);
    mining.push_back(p.learn.mining_seconds);
    infer.push_back(p.infer_s);
    mat.push_back(p.materialize_s);
  }
  out->layers["learner.learn_s"] = Median(learn);
  out->layers["mining.apriori_s"] = Median(mining);
  out->layers["learner.meta_rules"] =
      static_cast<double>(passes[0].learn.num_meta_rules);
  out->layers["engine.infer_s"] = Median(infer);
  out->layers["engine.sweeps_per_tuple"] =
      w.distinct_tuples > 0
          ? static_cast<double>(w.points_sampled) / w.distinct_tuples
          : 0.0;
  out->layers["engine.shared_sample_ratio"] = shared_ratio;
  const double lookups = static_cast<double>(w.cache_hits + w.cpd_evaluations);
  out->layers["engine.cpd_cache_hit_ratio"] =
      lookups > 0 ? w.cache_hits / lookups : 0.0;
  out->layers["prob_database.materialize_s"] = Median(mat);
  const double learn_m = Mean(learn);
  const double mining_m = Mean(mining);
  out->layers["trace.unattributed_share"] = rep.Reconcile(
      "derive pass", Mean(walls),
      {{"mining.apriori", mining_m},
       {"learner.rules", learn_m - mining_m},
       {"engine.infer", Mean(infer)},
       {"prob_database.materialize", Mean(mat)}},
      "s/pass");
  rep.Note(kNoTracingOverhead);
}

}  // namespace perfbench
