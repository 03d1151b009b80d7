// Seeded input generators. Each workload's inputs are a pure function
// of (workload, seed): the same seed yields a byte-identical request
// stream, a different seed a different one (tests/seed_selftest.py).
// The program under test only ever sees what these functions produce.
//
// The Bayesian network, the training sample the model is learned from,
// the store's base relation, and each query workload's plan set are
// fixed (constant seeds), like a benchmark's named dataset and query
// set: the run seed varies the request order, the inserted rows and the
// recovery log, and the derive workload's test tuples. Fixing them keeps
// seed-to-seed spread down to what the machine itself adds.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bn/bayes_net.h"
#include "relational/relation.h"

namespace perfbench {

// ---- Sizes (stated in README.md) ----------------------------------------
constexpr size_t kServingTrainRows = 6000;  // complete rows the model learns
constexpr size_t kBaseRows = 400;           // store base relation
constexpr double kBaseIncompleteShare = 0.3;
constexpr size_t kPlanCacheCapacity = 64;   // StoreOptions default
constexpr size_t kHotPlans = 12;
constexpr size_t kColdPlans = 6 * kPlanCacheCapacity;
constexpr double kCompiledShareOfUnsafe = 0.5;
constexpr size_t kStreamLength = 1 << 15;   // per connection, cycled
// query_hot, query_cold. Two, not one per vCPU: with 4 connections on a
// 4-vCPU host the server is saturated, and a single busy-looping thread
// beside it cut query_cold throughput 12% and raised its p50 20%; with 2,
// by 4.5% and 5%. Host vCPU steal hits the same way.
constexpr size_t kReadConnections = 2;
constexpr size_t kMixReaders = 2;           // write_mix
// One writer, not two: with two closed-loop writers, whether their deltas
// meet in one group commit depends on thread timing, and throughput swung
// 342-477 updates/s between runs of one build on a quiet host.
constexpr size_t kMixWriters = 1;
// A write_mix reader waits this long between replies and requests, so
// reads (mostly misses after each commit's invalidation) take a small,
// steady share of the one vCPU the workload runs on.
constexpr int kMixReadPauseMs = 20;
constexpr size_t kRoundInserts = 160;       // per write_mix round, total
constexpr double kInsertMissingShare = 0.25;
constexpr size_t kLogRecords = 100;         // recovery log length (1x)
constexpr size_t kDeriveTrainRows = 50000;
constexpr size_t kDeriveTuples = 400;
constexpr size_t kDeriveExtraScored = 1600;  // scored, never timed

/// A fixed network instance and the schema its samples carry.
struct Universe {
  mrsl::BayesNet bn;
  mrsl::Schema schema;
};

/// BN10 (6 attributes of cardinality 4): the served database.
Universe ServingUniverse();
/// BN17 (8 binary attributes, the Fig 11 network): the derive pipeline.
Universe DeriveUniverse();

/// One distinct /query request: target ("/query" or "/query?width=0"),
/// plan text, and shape kind (select / project / count / exists / join /
/// unsafe).
struct QueryRequest {
  std::string target;
  std::string plan;
  std::string shape;
  bool compiled() const { return target != "/query"; }
};

struct ServingInputs {
  mrsl::Relation train;                       // complete rows (fixed)
  mrsl::Relation base;                        // first epoch (fixed)
  std::vector<QueryRequest> plans;            // the distinct request set
  std::vector<std::vector<uint32_t>> streams; // per reader: plan indices
  std::vector<std::vector<mrsl::Tuple>> inserts;  // per writer, one round
  std::vector<mrsl::Tuple> log_records;       // 4 * kLogRecords rows
};

/// Inputs of query_hot, query_cold, or write_mix.
ServingInputs MakeServingInputs(const Universe& u, const std::string& workload,
                                uint64_t seed);

struct DeriveInputs {
  mrsl::Relation train;  // complete rows the model is learned from (fixed)
  mrsl::Relation test;   // incomplete tuples, 1..n-1 missing each
  mrsl::Relation extra;  // more of the same, derived only to score KL
};

DeriveInputs MakeDeriveInputs(const Universe& u, uint64_t seed);

/// One-row insert delta in the /update CSV format.
std::string InsertCsv(const mrsl::Schema& schema, const mrsl::Tuple& row);

/// Canonical text rendering of a workload's generated inputs (the seed
/// self-test compares these byte for byte). Empty for an unknown name.
std::string DumpInputs(const std::string& workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
