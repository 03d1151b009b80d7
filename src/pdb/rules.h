// The probability rules of the BID model, written once and shared by
// every evaluator in src/pdb/: the row and columnar plan evaluators
// (plan.cc), the safe-plan compiler (compiler.cc) and the lazy deriver
// (lazy.cc). Alternatives of one block are disjoint (their masses add),
// distinct blocks are independent (AND multiplies, OR complement-
// multiplies), and events that share a block without being alternative
// sets of it dissociate to Frechet bounds. Every rule is monotone in its
// operands, so interval endpoints map through directly.
//
// Internal to src/pdb/ (not exported by mrsl.h). The one-line helpers
// are inline so no hot call crosses a file boundary; the rest is
// defined in plan.cc.

#ifndef MRSL_PDB_RULES_H_
#define MRSL_PDB_RULES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "pdb/plan.h"

namespace mrsl {
namespace rules {

inline double Clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }

/// Sorted-unique merge of two block-key sets.
inline std::vector<uint64_t> UnionKeys(const std::vector<uint64_t>& a,
                                       const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

inline bool KeysIntersect(const std::vector<uint64_t>& a,
                          const std::vector<uint64_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

inline void SortUnique(std::vector<uint32_t>* alts) {
  std::sort(alts->begin(), alts->end());
  alts->erase(std::unique(alts->begin(), alts->end()), alts->end());
}

/// Clamped mass of an alternative set of one block (alts sorted, unique).
inline double AltSetMass(const ProbDatabase& db, size_t block,
                         const std::vector<uint32_t>& alts) {
  double mass = 0.0;
  for (uint32_t j : alts) mass += db.block(block).alternatives[j].prob;
  return Clamp01(mass);
}

/// InvalidArgument unless `source` names a non-null database.
Status ValidateSource(size_t source,
                      const std::vector<const ProbDatabase*>& sources);

/// OR of independent events: 1 - prod(1 - p), endpoint-wise.
struct IndependentOr {
  double none_lo = 1.0;
  double none_hi = 1.0;
  void Add(const ProbInterval& p) {
    none_lo *= (1.0 - p.lo);
    none_hi *= (1.0 - p.hi);
  }
  ProbInterval Result() const {
    return ProbInterval::Bounds(Clamp01(1.0 - none_lo),
                                Clamp01(1.0 - none_hi));
  }
};

/// OR of correlated events, dissociated: Frechet bounds
/// [max p, min(1, sum p)].
struct FrechetOr {
  double lo = 0.0;
  double hi = 0.0;
  void Add(const ProbInterval& p) {
    lo = std::max(lo, p.lo);
    hi += p.hi;
  }
  ProbInterval Result() const {
    return ProbInterval::Bounds(lo, std::min(1.0, hi));
  }
};

/// An owned row event (the output of a combination rule).
struct Event {
  ProbInterval prob;
  Lineage lineage;
};

/// A borrowed row event: the interval by value, the lineage by pointer
/// into whoever stores the row, so combining rows copies no lineage.
struct EventRef {
  ProbInterval prob;
  const Lineage* lineage;
};

/// Connected components of the shared-key graph over items 0..n-1,
/// each listed by ascending item index and ordered by first item
/// (deterministic). `for_each_key(i, emit)` calls `emit(key)` for every
/// block key item i reads.
template <typename ForEachKey>
std::vector<std::vector<size_t>> SharedKeyComponents(size_t n,
                                                     ForEachKey for_each_key) {
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::unordered_map<uint64_t, size_t> owner;  // key -> first reader
  for (size_t i = 0; i < n; ++i) {
    for_each_key(i, [&](uint64_t key) {
      auto [it, inserted] = owner.emplace(key, i);
      if (!inserted) parent[find(i)] = find(it->second);
    });
  }
  std::vector<size_t> slot(n, SIZE_MAX);  // root -> component position
  std::vector<std::vector<size_t>> components;
  for (size_t i = 0; i < n; ++i) {
    size_t& s = slot[find(i)];
    if (s == SIZE_MAX) {
      s = components.size();
      components.emplace_back();
    }
    components[s].push_back(i);
  }
  return components;
}

/// SharedKeyComponents over the events' lineage block sets: the
/// correlation structure of a disjunction.
std::vector<std::vector<size_t>> CorrelationComponents(
    const std::vector<EventRef>& events);

/// OR of the events of one correlation component: the event itself for
/// a singleton, the exact disjoint union when every member is an
/// alternative set of one shared block, Frechet bounds otherwise (which
/// clears *exact).
Event DisjoinComponent(const std::vector<EventRef>& events,
                       const std::vector<size_t>& comp,
                       const std::vector<const ProbDatabase*>& sources,
                       bool* exact);

/// OR of block-disjoint (hence independent) component events.
Event IndependentUnion(std::vector<Event> components);

/// OR of all `events` (non-empty): CorrelationComponents, then
/// DisjoinComponent per component, then IndependentUnion.
Event DisjoinEvents(const std::vector<EventRef>& events,
                    const std::vector<const ProbDatabase*>& sources,
                    bool* exact);

/// AND of two events. Same-block alternative sets intersect exactly
/// (*impossible when the intersection is empty), block-disjoint events
/// multiply, and anything else gets Frechet conjunction bounds (which
/// clears *exact).
Event ConjoinEvents(const EventRef& a, const EventRef& b,
                    const std::vector<const ProbDatabase*>& sources,
                    bool* exact, bool* impossible);

/// Distribution of a sum of independent Bernoullis (Poisson-binomial
/// DP): entry k = P(sum = k).
std::vector<double> PoissonBinomial(const std::vector<double>& bernoullis);

}  // namespace rules
}  // namespace mrsl

#endif  // MRSL_PDB_RULES_H_
