#include "serving.h"

#include <algorithm>

#include "core/learner.h"
#include "server/http.h"
#include "util/wire.h"

namespace perfbench {

using mrsl::BidStore;
using mrsl::Tuple;

mrsl::StoreOptions ServingStoreOptions() {
  mrsl::StoreOptions so;  // production defaults: tuple-DAG, CPD cache on
  so.plan_cache_capacity = kPlanCacheCapacity;
  return so;
}

std::unique_ptr<Front> StartFront(BidStore* store, std::string* err) {
  auto f = std::make_unique<Front>();
  f->service = std::make_unique<mrsl::StoreService>(store);
  f->server = std::make_unique<mrsl::HttpServer>(mrsl::ServerOptions());
  f->service->Attach(f->server.get());
  mrsl::Status st = f->server->Start();
  if (!st.ok()) {
    *err = "server start: " + st.ToString();
    return nullptr;
  }
  return f;
}

bool BuildStack(const ServingInputs& in, Stack* s, std::string* err) {
  auto model = mrsl::LearnModel(in.train, mrsl::LearnOptions());
  if (!model.ok()) {
    *err = "learn: " + model.status().ToString();
    return false;
  }
  s->store.reset();
  s->engine.reset();
  s->model = std::make_unique<mrsl::MrslModel>(std::move(model).value());
  s->engine = std::make_unique<mrsl::Engine>(s->model.get());
  s->store = std::make_unique<BidStore>(s->engine.get(), ServingStoreOptions());
  auto committed = s->store->Commit(in.base);
  if (!committed.ok()) {
    *err = "commit: " + committed.status().ToString();
    return false;
  }
  return true;
}

std::unique_ptr<BidStore> RestoredStore(mrsl::Engine* engine,
                                        const std::string& snapshot,
                                        double* seconds, std::string* err) {
  auto store = std::make_unique<BidStore>(engine, ServingStoreOptions());
  const double t0 = Now();
  mrsl::Status st = store->Restore(snapshot);
  if (seconds != nullptr) *seconds = Now() - t0;
  if (!st.ok()) {
    *err = "restore: " + st.ToString();
    return nullptr;
  }
  return store;
}

bool SaveSnapshot(const BidStore& store, const std::string& path,
                  std::string* err) {
  mrsl::Status st = store.SaveSnapshot(path);
  if (!st.ok()) *err = "snapshot: " + st.ToString();
  return st.ok();
}

mrsl::RelationDelta InsertDelta(const Tuple& row) {
  mrsl::RelationDelta d;
  d.inserts.push_back(row);
  return d;
}

void ReadLoop(uint16_t port, const std::vector<QueryRequest>& plans,
              const std::vector<uint32_t>& stream, size_t* cursor,
              const std::function<bool()>& go_on, OpLog* log,
              BodyBook* book) {
  mrsl::HttpClient client;
  bool connected = client.Connect("127.0.0.1", port).ok();
  while (go_on()) {
    if (!connected) {
      ++log->attempted;
      ++log->failed;
      return;
    }
    const uint32_t idx = stream[(*cursor)++ % stream.size()];
    const QueryRequest& q = plans[idx];
    if (book != nullptr) book->sent[idx] = 1;
    const double t0 = Now();
    auto resp = client.RoundTrip("POST", q.target, q.plan);
    const double t1 = Now();
    ++log->attempted;
    if (!resp.ok()) {
      ++log->failed;
      client.Close();
      connected = client.Connect("127.0.0.1", port).ok();
      continue;
    }
    if (resp->status != 200) {
      ++log->failed;
      continue;
    }
    log->Record(t1, (t1 - t0) * 1e3);
    ++log->by_shape[q.shape];
    if (q.compiled()) ++log->compiled;
    if (resp->Header("x-mrsl-cache", "") == "hit") ++log->hits;
    if (book != nullptr) {
      const uint64_t h = mrsl::wire::Fnv1a64(resp->body);
      if (book->hash[idx] == 0) {
        book->hash[idx] = h;
        book->body[idx] = std::move(resp->body);
      } else if (book->hash[idx] != h) {
        ++book->mismatches;
        ++log->failed;
      }
    }
  }
}

double MedianPerSecond(const OpLog& log, double seconds) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(seconds));
  std::vector<double> counts(n, 0.0);
  for (size_t k = 0; k < n && k < log.per_second.size(); ++k) {
    counts[k] = static_cast<double>(log.per_second[k]);
  }
  return Median(counts);
}

mrsl::Result<mrsl::StoreQueryResult> QueryInProcess(BidStore* store,
                                                    const QueryRequest& q) {
  static const mrsl::CompileOptions kWidthZero;  // what ?width=0 selects
  return store->QueryOn(store->snapshot(), q.plan,
                        q.compiled() ? &kWidthZero : nullptr);
}

void QueryLayerMetrics(const QueryLayers& q, Measured* out) {
  const double ops = std::max<double>(1.0, static_cast<double>(q.call_us.size()));
  const double misses = std::max<double>(1.0, static_cast<double>(q.misses));
  const double compiled_misses =
      std::max<double>(1.0, static_cast<double>(q.compile_call_ms.size()));
  out->layers["plan.parse_us"] = q.parse_s / ops * 1e6;
  out->layers["plan.evaluate_p50_ms"] = Quantile(q.evaluate_miss_ms, 0.5);
  out->layers["plan.evaluate_p99_ms"] = Quantile(q.evaluate_miss_ms, 0.99);
  out->layers["plan.combine_ms"] = q.combine_s / misses * 1e3;
  out->layers["plan.lineage_events"] =
      static_cast<double>(q.lineage_events) / misses;
  out->layers["plan.peak_lineage_kb"] =
      static_cast<double>(q.peak_lineage_bytes) / 1024.0;
  out->layers["compiler.compile_ms"] = Mean(q.compile_call_ms);
  out->layers["compiler.worlds_sampled"] =
      static_cast<double>(q.worlds) / compiled_misses;
}

Accuracy ScoreStore(const mrsl::BayesNet& bn, const mrsl::StoreSnapshot& snap) {
  std::vector<Tuple> tuples;
  std::vector<const mrsl::JointDist*> dists;
  for (const auto& comp : snap.components()) {
    for (size_t i = 0; i < comp.tuples.size(); ++i) {
      tuples.push_back(comp.tuples[i]);
      dists.push_back(comp.dists[i].get());
    }
  }
  return ScoreAgainstExact(bn, tuples, dists);
}

// p95 is the gated tail: over runs of one code version p99 moved ~30%
// on query_cold and write_mix (a handful of heavy requests colliding),
// p95 ~5%. p99 over the whole phase is printed.
void ReportLatency(double rate, const std::string& rate_of,
                   const Histogram& latency, Measured* out) {
  out->e2e["ops_per_s"] = rate;
  out->e2e["op_p50_ms"] = latency.Quantile(0.50);
  out->e2e["op_p95_ms"] = latency.Quantile(0.95);
  out->report.Note("op_p99_ms = " + Num(latency.Quantile(0.99)) +
                   " ms; p50, p95, p99 over all " +
                   std::to_string(latency.count()) +
                   " operations of the timed phase; ops_per_s is the median " +
                   rate_of);
}

}  // namespace perfbench
