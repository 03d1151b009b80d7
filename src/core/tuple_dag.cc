// Duplicate workload tuples collapse to one node (rows_ remembers which
// workload positions map back to it) before the O(n^2) pairwise
// subsumption pass; the full ancestor sets are kept (descendants_) for
// sample routing, while parent/child edges come from a Hasse reduction
// that drops any ancestor with another ancestor strictly between. Fine
// for workloads of distinct-tuple counts in the thousands; revisit the
// quadratic pass before scaling past that.

#include "core/tuple_dag.h"

#include <unordered_map>

namespace mrsl {

TupleDag::TupleDag(const std::vector<Tuple>& workload) {
  // De-duplicate.
  std::unordered_map<Tuple, uint32_t, TupleHash> index;
  workload_to_node_.reserve(workload.size());
  for (const Tuple& t : workload) {
    auto [it, inserted] =
        index.emplace(t, static_cast<uint32_t>(nodes_.size()));
    if (inserted) {
      nodes_.push_back(t);
      rows_.emplace_back();
    }
    rows_[it->second].push_back(
        static_cast<uint32_t>(workload_to_node_.size()));
    workload_to_node_.push_back(it->second);
  }

  const size_t n = nodes_.size();
  masks_.reserve(n);
  for (const Tuple& t : nodes_) masks_.push_back(t.CompleteMask());
  parents_.assign(n, {});
  children_.assign(n, {});
  descendants_.assign(n, {});

  // ancestors[v] = every node subsuming v (transitively): Tuple::Subsumes
  // over the cached masks.
  std::vector<std::vector<uint32_t>> ancestors(n);
  for (size_t u = 0; u < n; ++u) {
    const AttrMask mu = masks_[u];
    for (size_t v = 0; v < n; ++v) {
      const AttrMask mv = masks_[v];
      if (mu == mv || (mu & ~mv) != 0) continue;
      if (nodes_[u].AgreesOn(nodes_[v], mu)) {
        ancestors[v].push_back(static_cast<uint32_t>(u));
        descendants_[u].push_back(static_cast<uint32_t>(v));
      }
    }
  }

  // Hasse reduction: u is an immediate parent of v iff no other ancestor w
  // of v lies strictly between them (u subsumes w). Both agree with v on
  // their own cells, so u subsumes w exactly when u's mask is a proper
  // subset of w's.
  for (size_t v = 0; v < n; ++v) {
    for (uint32_t u : ancestors[v]) {
      const AttrMask mu = masks_[u];
      bool immediate = true;
      for (uint32_t w : ancestors[v]) {
        const AttrMask mw = masks_[w];
        if (mu != mw && (mu & ~mw) == 0) {
          immediate = false;
          break;
        }
      }
      if (immediate) {
        parents_[v].push_back(u);
        children_[u].push_back(static_cast<uint32_t>(v));
      }
    }
  }
}

std::vector<uint32_t> TupleDag::Roots() const {
  std::vector<uint32_t> roots;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (parents_[i].empty()) roots.push_back(static_cast<uint32_t>(i));
  }
  return roots;
}

std::vector<std::vector<uint32_t>> TupleDag::Components() const {
  // Path-halving union-find over the Hasse edges.
  std::vector<uint32_t> parent(nodes_.size());
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<uint32_t>(i);
  }
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t v = 0; v < nodes_.size(); ++v) {
    for (uint32_t p : parents_[v]) {
      parent[find(static_cast<uint32_t>(v))] = find(p);
    }
  }

  // Group nodes by root; ascending node ids within each component, and
  // components ordered by their smallest node id.
  std::vector<std::vector<uint32_t>> components;
  std::vector<int32_t> comp_of_root(nodes_.size(), -1);
  for (size_t v = 0; v < nodes_.size(); ++v) {
    uint32_t root = find(static_cast<uint32_t>(v));
    if (comp_of_root[root] < 0) {
      comp_of_root[root] = static_cast<int32_t>(components.size());
      components.emplace_back();
    }
    components[static_cast<size_t>(comp_of_root[root])].push_back(
        static_cast<uint32_t>(v));
  }
  return components;
}

}  // namespace mrsl
