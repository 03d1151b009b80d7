// TupleDag: the subsumption DAG over a workload of incomplete tuples
// (Sec V-B, Fig 3). Nodes are the distinct incomplete tuples; tuple u is
// an ancestor of v when u subsumes v (u's complete portion is a proper,
// agreeing subset of v's), so samples drawn for u can be reused for v.

#ifndef MRSL_CORE_TUPLE_DAG_H_
#define MRSL_CORE_TUPLE_DAG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relational/tuple.h"

namespace mrsl {

/// Subsumption DAG with both Hasse (immediate) edges and transitive
/// descendant lists.
class TupleDag {
 public:
  /// Builds the DAG over `workload`, de-duplicating identical tuples.
  explicit TupleDag(const std::vector<Tuple>& workload);

  size_t num_nodes() const { return nodes_.size(); }
  const Tuple& node(size_t i) const { return nodes_[i]; }

  /// node(i).CompleteMask(), computed once at construction.
  AttrMask complete_mask(size_t i) const { return masks_[i]; }

  /// Workload positions that collapsed into node `i`.
  const std::vector<uint32_t>& workload_rows(size_t i) const {
    return rows_[i];
  }

  /// For each workload position, the node it maps to.
  const std::vector<uint32_t>& workload_to_node() const {
    return workload_to_node_;
  }

  /// Immediate (Hasse) subsumers of node `i` — one step more general.
  const std::vector<uint32_t>& parents(size_t i) const { return parents_[i]; }

  /// Immediate subsumees of node `i` — one step more specific.
  const std::vector<uint32_t>& children(size_t i) const {
    return children_[i];
  }

  /// All transitive subsumees of node `i` (every node it subsumes).
  const std::vector<uint32_t>& descendants(size_t i) const {
    return descendants_[i];
  }

  /// Nodes with no parents — Algorithm 3's initial root set.
  std::vector<uint32_t> Roots() const;

  /// Connected components of the (undirected view of the) subsumption
  /// DAG, each a sorted list of node ids. Sample sharing never crosses a
  /// component boundary, so components are the engine's independent
  /// units of parallel work.
  std::vector<std::vector<uint32_t>> Components() const;

 private:
  std::vector<Tuple> nodes_;
  std::vector<AttrMask> masks_;
  std::vector<std::vector<uint32_t>> rows_;
  std::vector<uint32_t> workload_to_node_;
  std::vector<std::vector<uint32_t>> parents_;
  std::vector<std::vector<uint32_t>> children_;
  std::vector<std::vector<uint32_t>> descendants_;
};

}  // namespace mrsl

#endif  // MRSL_CORE_TUPLE_DAG_H_
