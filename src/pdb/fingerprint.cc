#include "pdb/fingerprint.h"

#include <cstdio>

#include "util/string_util.h"
#include "util/wire.h"

namespace mrsl {

namespace {

// Predicate::ToString with every literal replaced by "?". Atom order is
// preserved: "a=X AND b=Y" and "b=Y AND a=X" are different shapes (the
// columnar evaluator sweeps atoms in order), matching the canonical
// plan-text identity the plan cache already uses.
std::string NormalizePredicate(const Predicate& pred, const Schema& schema) {
  const auto& atoms = pred.atoms();
  if (atoms.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i != 0) out += " AND ";
    out += schema.attr(atoms[i].attr).name();
    out += atoms[i].negated ? "!=" : "=";
    out += '?';
  }
  return out;
}

// Mirrors PlanToString (plan.cc) node for node; only the Select case
// differs (placeholder literals). Join carries no literals — its
// attribute names are part of the shape.
Result<std::string> NormalizePlan(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources) {
  switch (plan.op) {
    case PlanNode::Op::kScan: {
      if (plan.source >= sources.size() || sources[plan.source] == nullptr) {
        return Status::InvalidArgument("plan references invalid source");
      }
      return "scan(" + std::to_string(plan.source) + ")";
    }
    case PlanNode::Op::kSelect: {
      auto schema = PlanOutputSchema(*plan.left, sources);
      if (!schema.ok()) return schema.status();
      auto child = NormalizePlan(*plan.left, sources);
      if (!child.ok()) return child.status();
      return "select(" + NormalizePredicate(plan.pred, *schema) + "; " +
             *child + ")";
    }
    case PlanNode::Op::kProject: {
      auto schema = PlanOutputSchema(*plan.left, sources);
      if (!schema.ok()) return schema.status();
      auto child = NormalizePlan(*plan.left, sources);
      if (!child.ok()) return child.status();
      std::vector<std::string> names;
      for (AttrId a : plan.attrs) {
        if (a >= schema->num_attrs()) {
          return Status::InvalidArgument("project attr out of range");
        }
        names.push_back(schema->attr(a).name());
      }
      return "project(" + Join(names, ",") + "; " + *child + ")";
    }
    case PlanNode::Op::kJoin: {
      auto lschema = PlanOutputSchema(*plan.left, sources);
      if (!lschema.ok()) return lschema.status();
      auto rschema = PlanOutputSchema(*plan.right, sources);
      if (!rschema.ok()) return rschema.status();
      if (plan.left_attr >= lschema->num_attrs() ||
          plan.right_attr >= rschema->num_attrs()) {
        return Status::InvalidArgument("join attribute out of range");
      }
      auto left = NormalizePlan(*plan.left, sources);
      if (!left.ok()) return left.status();
      auto right = NormalizePlan(*plan.right, sources);
      if (!right.ok()) return right.status();
      return "join(" + *left + "; " + *right + "; " +
             lschema->attr(plan.left_attr).name() + "=" +
             rschema->attr(plan.right_attr).name() + ")";
    }
  }
  return Status::Internal("unknown plan operator");
}

}  // namespace

std::string FingerprintHex(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf, 16);
}

const char* QueryKindName(ParsedQuery::Kind kind) {
  switch (kind) {
    case ParsedQuery::Kind::kRelation:
      return "relation";
    case ParsedQuery::Kind::kExists:
      return "exists";
    case ParsedQuery::Kind::kCount:
      return "count";
  }
  return "unknown";
}

Result<QueryFingerprint> FingerprintPlan(
    const PlanNode& plan, ParsedQuery::Kind kind,
    const std::vector<const ProbDatabase*>& sources) {
  auto body = NormalizePlan(plan, sources);
  if (!body.ok()) return body.status();
  QueryFingerprint out;
  switch (kind) {
    case ParsedQuery::Kind::kRelation:
      out.normalized = std::move(*body);
      break;
    case ParsedQuery::Kind::kExists:
      out.normalized = "exists(" + *body + ")";
      break;
    case ParsedQuery::Kind::kCount:
      out.normalized = "count(" + *body + ")";
      break;
  }
  out.hash = wire::Fnv1a64(out.normalized);
  return out;
}

Result<QueryFingerprint> FingerprintQuery(
    const ParsedQuery& query,
    const std::vector<const ProbDatabase*>& sources) {
  if (query.plan == nullptr) {
    return Status::InvalidArgument("parsed query has no plan");
  }
  return FingerprintPlan(*query.plan, query.kind, sources);
}

}  // namespace mrsl
