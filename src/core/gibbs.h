// Ordered Gibbs sampling over MRSL models (Sec V-A).
//
// The per-attribute lattices play the role of the local conditionals of a
// dependency network (Heckerman et al., JMLR 2000): a chain repeatedly
// cycles through the missing attributes of a tuple, resampling each from
// the voted CPD estimate conditioned on every other attribute's current
// value. After a burn-in of B cycles, N recorded cycles estimate the
// joint distribution Δt over the missing attributes.
//
// Because Gibbs revisits the same evidence states over and over, the
// sampler memoizes conditionals in a CPD cache keyed by
// (attribute, full-state-with-that-attribute-zeroed); see bench_ablation
// for its effect.

#ifndef MRSL_CORE_GIBBS_H_
#define MRSL_CORE_GIBBS_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/infer_single.h"
#include "core/model.h"
#include "core/options.h"
#include "relational/joint_dist.h"
#include "util/result.h"

namespace mrsl {

/// Memo table for conditional CPD estimates.
class CpdCache {
 public:
  /// Builds a cache for `schema`; disabled automatically when the packed
  /// state space exceeds 2^64 (cannot happen at the paper's scales).
  explicit CpdCache(const Schema& schema, size_t max_entries_per_attr = 1
                                                                        << 20);

  bool enabled() const { return enabled_; }

  /// Cache key for resampling `attr` in `state` (all cells assigned).
  uint64_t Key(const std::vector<ValueId>& state, AttrId attr) const {
    return codec_.EncodeWithZero(state, attr);
  }

  /// Returns the cached CPD or nullptr.
  const Cpd* Lookup(AttrId attr, uint64_t key);

  /// Inserts unless the per-attribute cap is reached.
  void Insert(AttrId attr, uint64_t key, Cpd cpd);

  /// Drops every entry, optionally changing the per-attribute cap
  /// (kKeepCap leaves it unchanged). Statistics survive.
  static constexpr size_t kKeepCap = static_cast<size_t>(-1);
  void Clear(size_t new_max_entries_per_attr = kKeepCap);

  size_t max_entries_per_attr() const { return max_entries_; }

  /// Entries currently cached for `attr` / across all attributes.
  size_t entries(AttrId attr) const { return maps_[attr].size(); }
  size_t total_entries() const;

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  void ResetStats() { hits_ = misses_ = 0; }

 private:
  bool enabled_ = false;
  size_t max_entries_;
  MixedRadix codec_;
  std::vector<std::unordered_map<uint64_t, Cpd>> maps_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Cumulative sampler statistics.
struct GibbsStats {
  uint64_t cycles = 0;          // full resampling sweeps executed
  uint64_t cpd_evaluations = 0; // conditional estimates computed (misses)
  uint64_t cache_hits = 0;      // conditional estimates served from cache
};

/// The ordered Gibbs sampler. Not thread-safe; create one per thread.
/// Designed for reuse: a long-lived sampler (see core/engine.h) keeps its
/// CPD cache and scratch across requests and is re-aimed at a new request
/// stream with Reconfigure().
class GibbsSampler {
 public:
  /// `model` must outlive the sampler.
  GibbsSampler(const MrslModel* model, const GibbsOptions& options);

  /// Re-points a persistent sampler at a new option set: reseeds the RNG
  /// from `options.seed`, resets the statistics, and keeps the CPD cache
  /// warm unless a cache-relevant option (voting method, cache cap)
  /// changed — cached conditionals are pure functions of the model and
  /// those options, so reuse never alters results.
  void Reconfigure(const GibbsOptions& options);

  /// A single tuple's Markov chain.
  struct Chain {
    std::vector<AttrId> missing;   // attributes being resampled
    std::vector<ValueId> state;    // current full assignment (observed
                                   // cells fixed, missing cells evolving)
    bool initialized = false;      // becomes true after the first sweep
  };

  /// Creates a chain for `t`; fails if `t` is complete or has the wrong
  /// arity.
  Result<Chain> MakeChain(const Tuple& t) const;

  /// One ordered-Gibbs sweep: resamples every missing attribute in
  /// ascending order, conditioning on all current values.
  void Step(Chain* chain);

  /// Full single-tuple inference: burn-in + N recorded sweeps, returning
  /// the (smoothed, normalized) empirical joint Δt.
  Result<JointDist> Infer(const Tuple& t);

  /// Builds an empty accumulator distribution for a chain.
  JointDist MakeAccumulator(const Chain& chain) const;

  /// Adds the chain's current missing-value combination to `acc`.
  void Record(const Chain& chain, JointDist* acc) const;

  const GibbsStats& stats() const { return stats_; }
  void ResetStats() { stats_ = GibbsStats(); }
  Rng* rng() { return &rng_; }
  const MrslModel* model() const { return model_; }
  const GibbsOptions& options() const { return options_; }
  const CpdCache& cache() const { return cache_; }

  /// Per-attribute matcher scratch, shared with the workload driver's
  /// non-sampling paths so one context owns all matching state.
  std::vector<Mrsl::MatchScratch>* lattice_scratch() {
    return &lattice_scratch_;
  }

 private:
  /// Conditional estimate for `attr` given every other value in `state`
  /// (consults the cache when the state is fully assigned). The reference
  /// is valid until the next call.
  const Cpd& EstimateConditional(AttrId attr,
                                 const std::vector<ValueId>& state,
                                 bool cacheable);

  const MrslModel* model_;
  GibbsOptions options_;
  Rng rng_;
  CpdCache cache_;
  GibbsStats stats_;
  std::vector<uint32_t> match_scratch_;
  Cpd computed_;  // the last cache miss's estimate
  // Per-attribute matcher scratch, owned here so concurrent samplers over
  // a shared model never touch shared mutable state.
  std::vector<Mrsl::MatchScratch> lattice_scratch_;
};

}  // namespace mrsl

#endif  // MRSL_CORE_GIBBS_H_
