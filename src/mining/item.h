// Item: an attribute-value pair, the unit of frequent-itemset mining.
// An itemset in this setting is the complete portion of a tuple (one value
// per attribute at most), as in Sec. II of the paper.

#ifndef MRSL_MINING_ITEM_H_
#define MRSL_MINING_ITEM_H_

#include <cstdint>
#include <vector>

#include "relational/value.h"

namespace mrsl {

/// One attribute-value assignment.
struct Item {
  AttrId attr = 0;
  ValueId value = 0;

  /// Packs into a single ordering/hashing key (attr major, value minor).
  uint64_t Pack() const {
    return (static_cast<uint64_t>(attr) << 32) |
           static_cast<uint32_t>(value);
  }

  friend bool operator==(const Item& a, const Item& b) {
    return a.attr == b.attr && a.value == b.value;
  }
  friend bool operator<(const Item& a, const Item& b) {
    return a.Pack() < b.Pack();
  }
};

/// A sorted set of items over pairwise-distinct attributes.
using ItemVec = std::vector<Item>;

/// FNV-1a-style hash over the packed items of a *sorted* item vector
/// (non-standard offset; see item.cc).
uint64_t HashItems(const ItemVec& items);

/// Bitmask of the attributes mentioned by `items`.
AttrMask ItemsMask(const ItemVec& items);

}  // namespace mrsl

#endif  // MRSL_MINING_ITEM_H_
