#include "inputs.h"

#include <functional>
#include <set>

#include "expfw/networks.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using mrsl::AttrId;
using mrsl::Relation;
using mrsl::Rng;
using mrsl::Schema;
using mrsl::Tuple;

// Fixed network instances and training / base samples: part of the
// workload definition, not the run seed.
constexpr uint64_t kServingNetworkSeed = 0x5E4B10;
constexpr uint64_t kDeriveNetworkSeed = 0xF11;
constexpr uint64_t kDatasetSeed = 0xDA7A5E7;
constexpr uint64_t kPlanSetSeed = 0x9E5E7;

// Independent streams per input kind, so adding one kind of input never
// shifts another's draws.
enum Stream : uint64_t {
  kTrainStream = 1,
  kBaseStream,
  kPlanStream,
  kRequestStream,
  kInsertStream,
  kLogStream,
  kTestStream,
};

Rng StreamRng(uint64_t seed, Stream stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL);
}

Universe MakeUniverse(const char* network, uint64_t network_seed) {
  auto spec = mrsl::NetworkByName(network);
  Rng rng(network_seed);
  Universe u;
  u.bn = mrsl::BayesNet::RandomInstance(spec->topology, &rng);
  Rng schema_rng(network_seed);
  u.schema = u.bn.SampleRelation(1, &schema_rng).schema();
  return u;
}

// Masks `count` distinct random attributes of `t`.
void Mask(Tuple* t, size_t count, Rng* rng) {
  std::vector<AttrId> attrs(t->num_attrs());
  for (size_t i = 0; i < attrs.size(); ++i) attrs[i] = static_cast<AttrId>(i);
  rng->Shuffle(&attrs);
  for (size_t k = 0; k < count; ++k) t->set_value(attrs[k], mrsl::kMissingValue);
}

// Missing-cell counts for `n` rows in shuffled order: `incomplete` of
// them cycle through lo..hi, the rest are 0. Every seed gets the same
// histogram, so the seed does not change how much inference the rows
// need.
std::vector<size_t> MissingCounts(size_t n, size_t incomplete, size_t lo,
                                  size_t hi, Rng* rng) {
  std::vector<size_t> counts(n, 0);
  for (size_t i = 0; i < incomplete; ++i) counts[i] = lo + i % (hi - lo + 1);
  rng->Shuffle(&counts);
  return counts;
}

// A forward sample with 1-2 missing cells with probability `share`.
Tuple MaybeIncomplete(const mrsl::BayesNet& bn, double share, Rng* rng) {
  Tuple t = bn.ForwardSample(rng);
  if (rng->Bernoulli(share)) Mask(&t, 1 + rng->UniformInt(2), rng);
  return t;
}

// Rows of `base` whose cells all equal the atoms' values.
size_t Matches(const Relation& base,
               const std::vector<std::pair<AttrId, mrsl::ValueId>>& atoms) {
  size_t n = 0;
  for (const Tuple& t : base.rows()) {
    bool all = true;
    for (const auto& [a, v] : atoms) all = all && t.value(a) == v;
    n += all ? 1 : 0;
  }
  return n;
}

// Random conjunction of `atoms` equality atoms over distinct attributes
// whose selectivity on the base relation falls in a fixed band per atom
// count (parameter substitution with controlled selectivity, so that no
// seed draws a plan many times costlier than its shape's typical one).
std::string Pred(const Schema& s, const Relation& base, size_t atoms,
                 Rng* rng) {
  static constexpr size_t kBand[4][2] = {
      {0, 0}, {40, 160}, {8, 40}, {2, 16}};  // matching rows of 400
  std::vector<std::pair<AttrId, mrsl::ValueId>> chosen;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::vector<AttrId> attrs(s.num_attrs());
    for (size_t i = 0; i < attrs.size(); ++i) attrs[i] = static_cast<AttrId>(i);
    rng->Shuffle(&attrs);
    chosen.clear();
    for (size_t k = 0; k < atoms; ++k) {
      chosen.emplace_back(attrs[k], static_cast<mrsl::ValueId>(rng->UniformInt(
                                        s.attr(attrs[k]).cardinality())));
    }
    const size_t n = Matches(base, chosen);
    if (n >= kBand[atoms][0] && n <= kBand[atoms][1]) break;
  }
  std::string out;
  for (size_t k = 0; k < chosen.size(); ++k) {
    const auto& [a, v] = chosen[k];
    if (k > 0) out += " & ";
    out += s.attr(a).name() + "=" + s.attr(a).label(v);
  }
  return out;
}

std::string RandomAttr(const Schema& s, Rng* rng) {
  return s.attr(static_cast<AttrId>(rng->UniformInt(s.num_attrs()))).name();
}

// Generates plan texts over one schema and base relation.
struct PlanGen {
  const Schema& s;
  const Relation& base;
  Rng* rng;

  std::string Select(size_t atoms) {
    return "select(" + Pred(s, base, atoms, rng) + "; scan)";
  }
  std::string Project(size_t atoms) {
    return "project(" + RandomAttr(s, rng) + "; " + Select(atoms) + ")";
  }
  // Self-join of two selective selections on one attribute.
  std::string Join() {
    const std::string left = Select(2);
    const std::string right = Select(2);
    const std::string on = RandomAttr(s, rng);
    return "join(" + left + "; " + right + "; " + on + "=" + on + ")";
  }

  QueryRequest Hot(size_t i) {
    switch (i % 4) {
      case 0:
        return {"/query", "count(" + Select(2) + ")", "count"};
      case 1:
        return {"/query", "exists(" + Select(3) + ")", "exists"};
      case 2:
        return {"/query", Project(2), "project"};
      default:
        return {"/query", Select(3), "select"};
    }
  }

  // The cold mix, by share of the distinct plan space (requests draw
  // uniformly from the space, so request shares match).
  QueryRequest Cold() {
    const double r = rng->NextDouble();
    if (r < 0.20) return {"/query", Select(2), "select"};
    if (r < 0.35) return {"/query", Project(2), "project"};
    if (r < 0.45) {
      return {"/query", "count(" + Select(1 + rng->UniformInt(2)) + ")",
              "count"};
    }
    if (r < 0.55) return {"/query", "exists(" + Select(2) + ")", "exists"};
    if (r < 0.75) return {"/query", Join(), "join"};
    // Unsafe: duplicate-eliminating projection over a self-join correlates
    // the disjuncts of each group through the shared left blocks.
    const std::string plan = "project(" + RandomAttr(s, rng) + "; " + Join() + ")";
    const bool compiled = rng->Bernoulli(kCompiledShareOfUnsafe);
    return {compiled ? "/query?width=0" : "/query", plan, "unsafe"};
  }
};

std::vector<QueryRequest> DistinctPlans(
    size_t n, const std::function<QueryRequest(size_t)>& make) {
  std::vector<QueryRequest> plans;
  std::set<std::string> seen;
  while (plans.size() < n) {
    QueryRequest q = make(plans.size());
    if (seen.insert(q.target + " " + q.plan).second) plans.push_back(q);
  }
  return plans;
}

std::string TupleText(const Schema& s, const Tuple& t) {
  std::string out;
  for (AttrId a = 0; a < s.num_attrs(); ++a) {
    if (a > 0) out += ",";
    const mrsl::ValueId v = t.value(a);
    out += v == mrsl::kMissingValue ? "?" : s.attr(a).label(v);
  }
  return out;
}

}  // namespace

Universe ServingUniverse() { return MakeUniverse("BN10", kServingNetworkSeed); }
Universe DeriveUniverse() { return MakeUniverse("BN17", kDeriveNetworkSeed); }

ServingInputs MakeServingInputs(const Universe& u, const std::string& workload,
                                uint64_t seed) {
  ServingInputs in;
  Rng train_rng = StreamRng(kDatasetSeed, kTrainStream);
  in.train = u.bn.SampleRelation(kServingTrainRows, &train_rng);

  Rng base_rng = StreamRng(kDatasetSeed, kBaseStream);
  in.base = Relation(u.schema);
  for (size_t i = 0; i < kBaseRows; ++i) {
    (void)in.base.Append(MaybeIncomplete(u.bn, kBaseIncompleteShare, &base_rng));
  }

  Rng plan_rng = StreamRng(kPlanSetSeed, kPlanStream);
  PlanGen gen{u.schema, in.base, &plan_rng};
  const bool cold = workload == "query_cold";
  in.plans = DistinctPlans(cold ? kColdPlans : kHotPlans, [&](size_t i) {
    return cold ? gen.Cold() : gen.Hot(i);
  });

  Rng req_rng = StreamRng(seed, kRequestStream);
  const size_t readers =
      workload == "write_mix" ? kMixReaders : kReadConnections;
  in.streams.resize(readers);
  for (auto& stream : in.streams) {
    stream.resize(kStreamLength);
    for (uint32_t& idx : stream) {
      idx = static_cast<uint32_t>(req_rng.UniformInt(in.plans.size()));
    }
  }

  if (workload == "write_mix") {
    Rng ins_rng = StreamRng(seed, kInsertStream);
    in.inserts.resize(kMixWriters);
    const std::vector<size_t> missing = MissingCounts(
        kRoundInserts,
        static_cast<size_t>(kInsertMissingShare * kRoundInserts + 0.5), 1, 2,
        &ins_rng);
    for (size_t i = 0; i < kRoundInserts; ++i) {
      Tuple t = u.bn.ForwardSample(&ins_rng);
      Mask(&t, missing[i], &ins_rng);
      in.inserts[i % kMixWriters].push_back(std::move(t));
    }
    Rng log_rng = StreamRng(seed, kLogStream);
    for (size_t i = 0; i < 4 * kLogRecords; ++i) {
      in.log_records.push_back(
          MaybeIncomplete(u.bn, kInsertMissingShare, &log_rng));
    }
  }
  return in;
}

DeriveInputs MakeDeriveInputs(const Universe& u, uint64_t seed) {
  DeriveInputs in;
  Rng train_rng = StreamRng(kDatasetSeed, kTrainStream);
  in.train = u.bn.SampleRelation(kDeriveTrainRows, &train_rng);
  Rng test_rng = StreamRng(seed, kTestStream);
  in.test = Relation(u.schema);
  in.extra = Relation(u.schema);
  const size_t n = u.schema.num_attrs();
  // The Fig 11 shape: 1..n-1 missing, each count equally often.
  for (Relation* rel : {&in.test, &in.extra}) {
    const size_t rows = rel == &in.test ? kDeriveTuples : kDeriveExtraScored;
    for (size_t missing : MissingCounts(rows, rows, 1, n - 1, &test_rng)) {
      Tuple t = u.bn.ForwardSample(&test_rng);
      Mask(&t, missing, &test_rng);
      (void)rel->Append(std::move(t));
    }
  }
  return in;
}

std::string InsertCsv(const Schema& schema, const Tuple& row) {
  std::string csv = "op,row";
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    csv += "," + schema.attr(a).name();
  }
  return csv + "\ninsert,," + TupleText(schema, row) + "\n";
}

std::string DumpInputs(const std::string& workload, uint64_t seed) {
  std::string out = "workload " + workload + "\n";
  auto rows = [&out](const char* tag, const Schema& s, const Relation& r) {
    for (const Tuple& t : r.rows()) {
      out += std::string(tag) + " " + TupleText(s, t) + "\n";
    }
  };
  if (workload == "derive") {
    const Universe u = DeriveUniverse();
    const DeriveInputs in = MakeDeriveInputs(u, seed);
    rows("train", u.schema, in.train);
    rows("test", u.schema, in.test);
    rows("extra", u.schema, in.extra);
    return out;
  }
  if (workload != "query_hot" && workload != "query_cold" &&
      workload != "write_mix") {
    return "";
  }
  const Universe u = ServingUniverse();
  const ServingInputs in = MakeServingInputs(u, workload, seed);
  rows("train", u.schema, in.train);
  rows("base", u.schema, in.base);
  for (const QueryRequest& q : in.plans) {
    out += "plan " + q.shape + " " + q.target + " " + q.plan + "\n";
  }
  for (size_t c = 0; c < in.streams.size(); ++c) {
    out += "stream " + std::to_string(c);
    for (uint32_t idx : in.streams[c]) out += " " + std::to_string(idx);
    out += "\n";
  }
  for (size_t w = 0; w < in.inserts.size(); ++w) {
    for (const Tuple& t : in.inserts[w]) {
      out += "insert " + std::to_string(w) + " " + TupleText(u.schema, t) + "\n";
    }
  }
  for (const Tuple& t : in.log_records) {
    out += "log " + TupleText(u.schema, t) + "\n";
  }
  return out;
}

}  // namespace perfbench
