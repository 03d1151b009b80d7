// The sweep resamples each missing attribute from the ensemble CPD for
// the current state (EstimateConditional = lattice match + vote combine).
// Because at most 64 attributes exist, a full state packs into one
// mixed-radix uint64, which keys the per-attribute CpdCache: identical
// sweep states (common once the chain mixes) skip the match entirely.
// The cache is insert-only with a per-attribute entry cap — no eviction —
// and is bypassed during the first sweep while missing cells are still
// unassigned. A hit is used in place (no copy of its probabilities), and
// Record encodes the chain's missing cells straight from the state, so a
// recorded sweep allocates nothing. Estimates are empirical sample
// counts, normalized (or additively smoothed) at the end; the tuple-DAG
// mode (workload.cc) counts shared samples into the same kind of
// accumulator, decoding each once.

#include "core/gibbs.h"

#include <cassert>

namespace mrsl {
namespace {

std::vector<uint32_t> SchemaCards(const Schema& schema) {
  std::vector<uint32_t> cards;
  cards.reserve(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    cards.push_back(static_cast<uint32_t>(schema.attr(a).cardinality()));
  }
  return cards;
}

}  // namespace

CpdCache::CpdCache(const Schema& schema, size_t max_entries_per_attr)
    : max_entries_(max_entries_per_attr),
      codec_(SchemaCards(schema)),
      maps_(schema.num_attrs()) {
  enabled_ = !codec_.Saturated();
}

const Cpd* CpdCache::Lookup(AttrId attr, uint64_t key) {
  auto& map = maps_[attr];
  auto it = map.find(key);
  if (it == map.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void CpdCache::Insert(AttrId attr, uint64_t key, Cpd cpd) {
  auto& map = maps_[attr];
  if (map.size() >= max_entries_) return;
  map.emplace(key, std::move(cpd));
}

void CpdCache::Clear(size_t new_max_entries_per_attr) {
  if (new_max_entries_per_attr != kKeepCap) {
    max_entries_ = new_max_entries_per_attr;
  }
  for (auto& map : maps_) map.clear();
}

size_t CpdCache::total_entries() const {
  size_t total = 0;
  for (const auto& map : maps_) total += map.size();
  return total;
}

GibbsSampler::GibbsSampler(const MrslModel* model, const GibbsOptions& options)
    : model_(model),
      options_(options),
      rng_(options.seed),
      cache_(model->schema(), options.cpd_cache_max_entries),
      lattice_scratch_(model->num_attrs()) {}

void GibbsSampler::Reconfigure(const GibbsOptions& options) {
  const bool cache_compatible =
      options_.voting.choice == options.voting.choice &&
      options_.voting.scheme == options.voting.scheme &&
      options_.cpd_cache_max_entries == options.cpd_cache_max_entries;
  options_ = options;
  rng_ = Rng(options.seed);
  if (!cache_compatible) cache_.Clear(options.cpd_cache_max_entries);
  ResetStats();
}

Result<GibbsSampler::Chain> GibbsSampler::MakeChain(const Tuple& t) const {
  if (t.num_attrs() != model_->num_attrs()) {
    return Status::InvalidArgument("tuple arity does not match model");
  }
  Chain chain;
  chain.missing = t.MissingAttrs();
  if (chain.missing.empty()) {
    return Status::InvalidArgument("tuple is complete; nothing to sample");
  }
  chain.state = t.values();
  return chain;
}

const Cpd& GibbsSampler::EstimateConditional(
    AttrId attr, const std::vector<ValueId>& state, bool cacheable) {
  const bool use_cache =
      cacheable && options_.enable_cpd_cache && cache_.enabled();
  uint64_t key = 0;
  if (use_cache) {
    key = cache_.Key(state, attr);
    if (const Cpd* hit = cache_.Lookup(attr, key)) {
      ++stats_.cache_hits;
      return *hit;
    }
  }
  ++stats_.cpd_evaluations;
  const Mrsl& lattice = model_->mrsl(attr);
  lattice.MatchValues(state, options_.voting.choice,
                      &lattice_scratch_[attr], &match_scratch_);
  computed_ = match_scratch_.empty()
                  ? Cpd(lattice.head_card())
                  : CombineVotes(lattice, match_scratch_,
                                 options_.voting.scheme);
  if (use_cache) cache_.Insert(attr, key, computed_);
  return computed_;
}

void GibbsSampler::Step(Chain* chain) {
  // During the very first sweep some missing cells are still unassigned,
  // so states are not cacheable until the chain is initialized.
  const bool cacheable = chain->initialized;
  for (AttrId attr : chain->missing) {
    const Cpd& cpd = EstimateConditional(attr, chain->state, cacheable);
    chain->state[attr] = cpd.Sample(&rng_);
  }
  chain->initialized = true;
  ++stats_.cycles;
}

JointDist GibbsSampler::MakeAccumulator(const Chain& chain) const {
  std::vector<uint32_t> cards;
  cards.reserve(chain.missing.size());
  for (AttrId a : chain.missing) {
    cards.push_back(
        static_cast<uint32_t>(model_->schema().attr(a).cardinality()));
  }
  return JointDist(chain.missing, std::move(cards));
}

void GibbsSampler::Record(const Chain& chain, JointDist* acc) const {
  acc->add_prob(acc->codec().EncodeAt(chain.state.data(), chain.missing),
                1.0);
}

Result<JointDist> GibbsSampler::Infer(const Tuple& t) {
  auto chain_or = MakeChain(t);
  if (!chain_or.ok()) return chain_or.status();
  Chain chain = std::move(chain_or).value();

  for (size_t b = 0; b < options_.burn_in; ++b) Step(&chain);
  JointDist dist = MakeAccumulator(chain);
  for (size_t s = 0; s < options_.samples; ++s) {
    Step(&chain);
    Record(chain, &dist);
  }
  if (options_.smoothing_epsilon > 0.0) {
    dist.SmoothAdditive(options_.smoothing_epsilon);
  } else {
    dist.Normalize();
  }
  return dist;
}

}  // namespace mrsl
