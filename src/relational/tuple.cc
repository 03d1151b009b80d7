// The matching/subsumption predicates reduce to bit arithmetic on
// CompleteMask() (one bit per assigned attribute, hence the 64-attribute
// schema cap): proper-subset tests are mask compares and AgreesOn walks
// only the set bits via ctz. TupleHash hashes the raw cell ids;
// kMissingValue hashes like any other value, so incomplete tuples can key
// hash maps (the tuple-DAG dedup relies on this).

#include "relational/tuple.h"

#include <cassert>
#include <cstddef>

namespace mrsl {

AttrMask Tuple::CompleteMask() const {
  AttrMask mask = 0;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != kMissingValue) mask |= AttrMask{1} << i;
  }
  return mask;
}

bool Tuple::IsComplete() const {
  for (ValueId v : values_) {
    if (v == kMissingValue) return false;
  }
  return true;
}

size_t Tuple::NumMissing() const {
  size_t n = 0;
  for (ValueId v : values_) n += (v == kMissingValue);
  return n;
}

std::vector<AttrId> Tuple::MissingAttrs() const {
  std::vector<AttrId> out;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] == kMissingValue) out.push_back(static_cast<AttrId>(i));
  }
  return out;
}

std::vector<AttrId> Tuple::AssignedAttrs() const {
  std::vector<AttrId> out;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != kMissingValue) out.push_back(static_cast<AttrId>(i));
  }
  return out;
}

bool Tuple::MatchedBy(const Tuple& point) const {
  assert(point.num_attrs() == num_attrs());
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != kMissingValue && values_[i] != point.values_[i]) {
      return false;
    }
  }
  return true;
}

bool Tuple::AgreesOn(const Tuple& other, AttrMask mask) const {
  assert(other.num_attrs() == num_attrs());
  while (mask != 0) {
    AttrId i = static_cast<AttrId>(__builtin_ctzll(mask));
    if (values_[i] != other.values_[i]) return false;
    mask &= mask - 1;
  }
  return true;
}

bool Tuple::Subsumes(const Tuple& other) const {
  AttrMask mine = CompleteMask();
  AttrMask theirs = other.CompleteMask();
  // Proper subset: mine strictly inside theirs.
  if (mine == theirs || (mine & ~theirs) != 0) return false;
  return AgreesOn(other, mine);
}

bool Tuple::SubsumesOrEquals(const Tuple& other) const {
  AttrMask mine = CompleteMask();
  AttrMask theirs = other.CompleteMask();
  if ((mine & ~theirs) != 0) return false;
  return AgreesOn(other, mine);
}

std::string Tuple::ToString(const Schema& schema) const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i != 0) out += ", ";
    out += schema.attr(static_cast<AttrId>(i)).name();
    out += '=';
    if (values_[i] == kMissingValue) {
      out += '?';
    } else {
      out += schema.attr(static_cast<AttrId>(i)).label(values_[i]);
    }
  }
  out += ')';
  return out;
}

size_t TupleHash::operator()(const Tuple& t) const {
  // FNV-1a's xor-multiply loop and prime, but NOT its offset basis
  // (14695981039346656037): this constant is one digit short. It is
  // load-bearing: WorkloadComponentSeed (core/engine.h) seeds every Gibbs
  // chain from TupleHash, so changing it moves every derived Δt. Golden
  // values in relational_tuple_test and core_engine_test pin it.
  uint64_t h = 1469598103934665603ULL;
  for (ValueId v : t.values()) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

}  // namespace mrsl
