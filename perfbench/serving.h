// Pieces shared by the serving workloads (query_workloads.cc and
// write_mix.cc): the served stack and its HTTP front, the closed-loop
// reader, per-second timing, and in-process query attribution.
//
// All load is closed-loop: every connection waits for its reply before
// sending again, and a writer waits for its acknowledgment. Traced runs
// replay the same operations in-process against an independent store
// restored from the same snapshot: the HTTP round trip minus the
// in-process call is the server's share, and the store's
// QueryStageTimes / CommitStats split the rest.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "pdb/store.h"
#include "server/server.h"
#include "server/service.h"
#include "workloads.h"

namespace perfbench {

constexpr int kServingSetupRepeats = 11;

// model -> engine -> store, destroyed in reverse.
struct Stack {
  std::unique_ptr<mrsl::MrslModel> model;
  std::unique_ptr<mrsl::Engine> engine;
  std::unique_ptr<mrsl::BidStore> store;
};

// The HTTP front of one store; the server stops before the service dies.
struct Front {
  std::unique_ptr<mrsl::StoreService> service;
  std::unique_ptr<mrsl::HttpServer> server;
  ~Front() {
    if (server) server->Stop();
  }
  Front() = default;
  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;
};

// First body seen per plan, for the byte-identity and agreement checks;
// `sent` marks every plan a request was sent for.
struct BodyBook {
  std::vector<uint8_t> sent;
  std::vector<uint64_t> hash;
  std::vector<std::string> body;
  uint64_t mismatches = 0;
};

// Outcomes of a phase's operations: one latency histogram for the whole
// phase, and the completions in each second from `t_begin`.
struct OpLog {
  double t_begin = 0.0;
  Histogram latency;
  std::vector<uint64_t> per_second;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t hits = 0;
  std::map<std::string, uint64_t> by_shape;
  uint64_t compiled = 0;

  void Record(double done_at, double latency_ms) {
    latency.Add(latency_ms);
    const auto k = static_cast<size_t>(std::max(0.0, done_at - t_begin));
    if (k >= per_second.size()) per_second.resize(k + 1);
    ++per_second[k];
  }

  uint64_t completed() const { return latency.count(); }

  // Second-by-second counts only add up between logs that share t_begin.
  void Append(const OpLog& o) {
    latency.Merge(o.latency);
    if (o.per_second.size() > per_second.size()) {
      per_second.resize(o.per_second.size());
    }
    for (size_t k = 0; k < o.per_second.size(); ++k) {
      per_second[k] += o.per_second[k];
    }
    attempted += o.attempted;
    failed += o.failed;
    hits += o.hits;
    for (const auto& [k, v] : o.by_shape) by_shape[k] += v;
    compiled += o.compiled;
  }
};

// Stage and resource sums over in-process QueryOn calls.
struct QueryLayers {
  std::vector<double> call_us;
  double parse_s = 0.0;
  double evaluate_s = 0.0;  // plain-evaluator misses
  double compile_s = 0.0;   // compiled misses (evaluate stage)
  double combine_s = 0.0;
  std::vector<double> evaluate_miss_ms;
  std::vector<double> compile_call_ms;
  uint64_t misses = 0;
  uint64_t lineage_events = 0;
  uint64_t peak_lineage_bytes = 0;
  uint64_t worlds = 0;
  uint64_t failed = 0;

  void Add(const mrsl::Result<mrsl::StoreQueryResult>& r, bool compiled,
           double seconds) {
    if (!r.ok()) {
      ++failed;
      return;
    }
    call_us.push_back(seconds * 1e6);
    parse_s += r->stages.parse_seconds;
    combine_s += r->stages.combine_seconds;
    if (r->from_cache) return;
    ++misses;
    lineage_events += r->resources.lineage_events;
    peak_lineage_bytes =
        std::max(peak_lineage_bytes, r->resources.peak_lineage_bytes);
    if (compiled) {
      compile_s += r->stages.evaluate_seconds;
      compile_call_ms.push_back(seconds * 1e3);
      worlds += r->resources.worlds_sampled;
    } else {
      evaluate_s += r->stages.evaluate_seconds;
      evaluate_miss_ms.push_back(r->stages.evaluate_seconds * 1e3);
    }
  }

  void Append(const QueryLayers& o) {
    call_us.insert(call_us.end(), o.call_us.begin(), o.call_us.end());
    parse_s += o.parse_s;
    evaluate_s += o.evaluate_s;
    compile_s += o.compile_s;
    combine_s += o.combine_s;
    evaluate_miss_ms.insert(evaluate_miss_ms.end(), o.evaluate_miss_ms.begin(),
                            o.evaluate_miss_ms.end());
    compile_call_ms.insert(compile_call_ms.end(), o.compile_call_ms.begin(),
                           o.compile_call_ms.end());
    misses += o.misses;
    lineage_events += o.lineage_events;
    peak_lineage_bytes = std::max(peak_lineage_bytes, o.peak_lineage_bytes);
    worlds += o.worlds;
    failed += o.failed;
  }
};

/// Production store options (tuple-DAG, CPD cache on) with the plan
/// cache at kPlanCacheCapacity.
mrsl::StoreOptions ServingStoreOptions();

/// Attaches a StoreService for `store` to a started loopback server.
std::unique_ptr<Front> StartFront(mrsl::BidStore* store, std::string* err);

/// Learns the model from `in.train` and commits `in.base` as epoch 1.
bool BuildStack(const ServingInputs& in, Stack* s, std::string* err);

/// A fresh store restored from `snapshot`; `seconds` (optional) receives
/// the Restore time.
std::unique_ptr<mrsl::BidStore> RestoredStore(mrsl::Engine* engine,
                                              const std::string& snapshot,
                                              double* seconds,
                                              std::string* err);

bool SaveSnapshot(const mrsl::BidStore& store, const std::string& path,
                  std::string* err);

mrsl::RelationDelta InsertDelta(const mrsl::Tuple& row);

/// Closed-loop reader: one keep-alive connection, the next request only
/// after the reply, while `go_on()`. `book` is null when bodies
/// legitimately change (write_mix).
void ReadLoop(uint16_t port, const std::vector<QueryRequest>& plans,
              const std::vector<uint32_t>& stream, size_t* cursor,
              const std::function<bool()>& go_on, OpLog* log,
              BodyBook* book);

/// The median over the first `seconds` whole seconds of `log` of the
/// operations completed in each.
double MedianPerSecond(const OpLog& log, double seconds);

/// `q` evaluated in-process the way POST `q.target` evaluates it.
mrsl::Result<mrsl::StoreQueryResult> QueryInProcess(mrsl::BidStore* store,
                                                    const QueryRequest& q);

/// Query-side per-layer metrics from one in-process replay.
void QueryLayerMetrics(const QueryLayers& q, Measured* out);

/// Accuracy of every Δt the store derived, against the exact posterior.
Accuracy ScoreStore(const mrsl::BayesNet& bn, const mrsl::StoreSnapshot& snap);

/// Sets ops_per_s to `rate` (`rate_of` says over what it is a median),
/// op_p50_ms and op_p95_ms to the quantiles of `latency`, the whole timed
/// phase, and prints its p99 with the sample count.
void ReportLatency(double rate, const std::string& rate_of,
                   const Histogram& latency, Measured* out);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
