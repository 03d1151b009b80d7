#include "mining/item.h"

namespace mrsl {

uint64_t HashItems(const ItemVec& items) {
  // FNV-1a's loop and prime, but not its offset basis: this is
  // TupleHash's one-digit-short constant, whose value is load-bearing
  // there (relational/tuple.cc). Here it only buckets the itemset index,
  // whose lookups compare items exactly; it is kept equal on purpose.
  uint64_t h = 1469598103934665603ULL;
  for (const Item& it : items) {
    uint64_t p = it.Pack();
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (p >> shift) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

AttrMask ItemsMask(const ItemVec& items) {
  AttrMask mask = 0;
  for (const Item& it : items) mask |= AttrMask{1} << it.attr;
  return mask;
}

}  // namespace mrsl
