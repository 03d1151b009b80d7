// query_hot and query_cold: read-only POST /query over kReadConnections
// keep-alive connections against one served store.

#include <algorithm>
#include <thread>

#include "serving.h"
#include "server/http.h"

namespace perfbench {
namespace {

using mrsl::BidStore;

constexpr double kWarmupSeconds = 0.5;

struct ReadPhase {
  OpLog log;
  std::vector<std::pair<size_t, size_t>> ranges;  // stream positions used
};

ReadPhase RunReaders(uint16_t port, const ServingInputs& in,
                     std::vector<size_t>* cursors,
                     std::vector<BodyBook>* books, double seconds) {
  ReadPhase phase;
  const size_t n = in.streams.size();
  std::vector<OpLog> logs(n);
  phase.ranges.resize(n);
  for (size_t c = 0; c < n; ++c) phase.ranges[c].first = (*cursors)[c];
  phase.log.t_begin = Now();
  for (OpLog& l : logs) l.t_begin = phase.log.t_begin;
  const double deadline = phase.log.t_begin + seconds;
  auto go_on = [deadline]() { return Now() < deadline; };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c]() {
      ReadLoop(port, in.plans, in.streams[c], &(*cursors)[c], go_on, &logs[c],
               books == nullptr ? nullptr : &(*books)[c]);
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < n; ++c) {
    phase.log.Append(logs[c]);
    phase.ranges[c].second = (*cursors)[c];
  }
  return phase;
}

void ReplayInProcess(BidStore* store, const ServingInputs& in,
                     const std::vector<std::pair<size_t, size_t>>& ranges,
                     QueryLayers* out) {
  std::vector<QueryLayers> per(ranges.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < ranges.size(); ++c) {
    threads.emplace_back([&, c]() {
      const auto& stream = in.streams[c];
      for (size_t pos = ranges[c].first; pos < ranges[c].second; ++pos) {
        const QueryRequest& q = in.plans[stream[pos % stream.size()]];
        const double t0 = Now();
        auto r = QueryInProcess(store, q);
        per[c].Add(r, q.compiled(), Now() - t0);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const QueryLayers& p : per) out->Append(p);
}

std::vector<std::pair<std::string, std::string>> ExpectedIntervals(
    const mrsl::PlanEvaluation& eval) {
  std::vector<std::pair<std::string, std::string>> out;
  auto add = [&out](const mrsl::ProbInterval& p) {
    out.emplace_back(Num(p.lo), Num(p.hi));
  };
  switch (eval.kind) {
    case mrsl::ParsedQuery::Kind::kRelation:
      for (const auto& m : eval.marginals) add(m.prob);
      break;
    case mrsl::ParsedQuery::Kind::kExists:
      add(eval.exists.prob);
      break;
    case mrsl::ParsedQuery::Kind::kCount:
      add(eval.count.expected);
      break;
  }
  return out;
}

// A served body against an independent in-process evaluation: same
// epoch, canonical plan, and every interval to the last printed digit;
// compiled probability bounds must satisfy 0 <= lo <= hi <= 1.
bool BodyAgrees(const std::string& body, const QueryRequest& q,
                const mrsl::StoreQueryResult& r, std::string* why) {
  const std::string head = "{\"epoch\":" + std::to_string(r.epoch) +
                           ",\"plan\":\"" + r.canonical_text + "\"";
  if (body.compare(0, head.size(), head) != 0) {
    *why = "header differs for " + q.plan;
    return false;
  }
  const auto got = BodyIntervals(body);
  if (got != ExpectedIntervals(*r.eval)) {
    *why = "intervals differ for " + q.plan;
    return false;
  }
  if (q.compiled() && r.eval->kind != mrsl::ParsedQuery::Kind::kCount) {
    for (const auto& [lo_text, hi_text] : got) {
      const double lo = std::stod(lo_text);
      const double hi = std::stod(hi_text);
      if (!(0.0 <= lo && lo <= hi && hi <= 1.0)) {
        *why = "compiled bounds out of order for " + q.plan;
        return false;
      }
    }
  }
  return true;
}

// Every recorded body: identical across connections, and equal to what
// an independent store restored from the same snapshot answers. A plan
// that was sent but never answered with a 200 body fails the check.
void CheckBodies(const std::vector<BodyBook>& books,
                 const ServingInputs& in, BidStore* verify, Measured* out) {
  uint64_t cross = 0;  // first bodies that differ between connections
  uint64_t disagreements = 0;
  uint64_t unanswered = 0;
  size_t compared = 0;
  std::string first_why;
  for (size_t p = 0; p < in.plans.size(); ++p) {
    const BodyBook* owner = nullptr;
    bool sent = false;
    for (const BodyBook& b : books) {
      sent = sent || b.sent[p] != 0;
      if (b.hash[p] == 0) continue;
      if (owner == nullptr) {
        owner = &b;
      } else if (b.hash[p] != owner->hash[p]) {
        ++cross;
      }
    }
    if (owner == nullptr) {
      unanswered += sent ? 1 : 0;
      continue;
    }
    auto r = QueryInProcess(verify, in.plans[p]);
    std::string why;
    ++compared;
    if (!r.ok()) {
      why = "in-process query failed: " + r.status().ToString();
    } else if (BodyAgrees(owner->body[p], in.plans[p], *r, &why)) {
      continue;
    }
    ++disagreements;
    if (first_why.empty()) first_why = why;
  }
  uint64_t within = 0;  // already counted as failed replies by ReadLoop
  for (const BodyBook& b : books) within += b.mismatches;
  out->report.Check("bodies_byte_identical", cross + within == 0,
                    std::to_string(cross + within) + " differing bodies");
  out->report.Check("bodies_match_in_process", disagreements == 0,
                    std::to_string(compared) + " plans compared" +
                        (first_why.empty() ? "" : "; " + first_why));
  out->report.Check("every_sent_plan_answered", unanswered == 0,
                    std::to_string(unanswered) + " plans never got a 200");
  out->report.CountOps(0, cross + disagreements);
}

double HitRatio(const mrsl::PlanCache::Stats& a, const mrsl::PlanCache::Stats& b) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

void RunQueryWorkload(const RunConfig& config, Measured* out) {
  Report& rep = out->report;
  const Universe u = ServingUniverse();
  const std::string snapshot = config.scratch + "/setup.snapshot";
  ServingInputs in;
  Stack stack;
  std::unique_ptr<Front> front;
  std::string err;
  bool ok = true;
  out->e2e["setup_s"] = MedianSetupSeconds(kServingSetupRepeats, [&]() {
    front.reset();
    in = MakeServingInputs(u, config.workload, config.seed);
    ok = ok && BuildStack(in, &stack, &err);
    if (ok) front = StartFront(stack.store.get(), &err);
    ok = ok && front != nullptr;
  });
  // The snapshot the verification store restores is the harness's, not
  // part of bringing the service up.
  ok = ok && SaveSnapshot(*stack.store, snapshot, &err);
  rep.Check("setup", ok, err);
  if (!ok) return;
  const uint16_t port = front->server->port();

  std::vector<size_t> cursors(in.streams.size(), 0);
  std::vector<BodyBook> books(in.streams.size());
  for (BodyBook& b : books) {
    b.sent.assign(in.plans.size(), 0);
    b.hash.assign(in.plans.size(), 0);
    b.body.assign(in.plans.size(), std::string());
  }
  // Warm-up: fill the plan cache to its steady state before timing.
  ReadPhase warm = RunReaders(port, in, &cursors, &books, kWarmupSeconds);
  rep.CountOps(warm.log.attempted, warm.log.failed);

  BidStore& store = *stack.store;
  const auto cache0 = store.plan_cache().stats();
  const ReadPhase timed = RunReaders(port, in, &cursors, &books, config.seconds);
  const OpLog& all = timed.log;
  const auto cache1 = store.plan_cache().stats();
  front.reset();
  rep.CountOps(all.attempted, all.failed);

  ReportLatency(MedianPerSecond(all, config.seconds), "of the per-second counts",
                all.latency, out);

  const double queries = static_cast<double>(all.completed());
  const double hit_ratio = HitRatio(cache0, cache1);
  rep.Traffic("distinct_plans", static_cast<double>(in.plans.size()));
  rep.Traffic("plan_cache_capacity", static_cast<double>(kPlanCacheCapacity));
  rep.Traffic("hit_ratio", hit_ratio);
  for (const auto& [shape, n] : all.by_shape) {
    rep.Traffic("share_" + shape, static_cast<double>(n) / queries);
  }
  rep.Traffic("compiled_share", static_cast<double>(all.compiled) / queries);

  double restore_s = 0.0;
  std::unique_ptr<BidStore> verify =
      RestoredStore(stack.engine.get(), snapshot, &restore_s, &err);
  rep.Check("verify_store_restored", verify != nullptr, err);
  if (verify == nullptr) return;

  if (config.trace) {
    // The timed phase ran untouched; its operations are replayed here
    // in-process, each call timed from the outside.
    QueryLayers layers;
    ReplayInProcess(verify.get(), in, timed.ranges, &layers);
    rep.CountOps(layers.call_us.size() + layers.failed, layers.failed);
    QueryLayerMetrics(layers, out);
    const double e2e_us = all.latency.Mean() * 1e3;
    const double inproc_us = Mean(layers.call_us);
    const double ops = std::max<double>(1.0, static_cast<double>(layers.call_us.size()));
    out->layers["server.query_self_us"] = e2e_us - inproc_us;
    out->layers["store.restore_s"] = restore_s;
    out->layers["plan_cache.hit_ratio"] = hit_ratio;
    out->layers["plan_cache.evictions"] =
        static_cast<double>(cache1.evicted - cache0.evicted) / queries;
    out->layers["reads.query_qps"] = MedianPerSecond(all, config.seconds);
    out->layers["reads.query_p50_ms"] = all.latency.Quantile(0.5);
    out->layers["reads.query_p99_ms"] = all.latency.Quantile(0.99);
    out->layers["trace.unattributed_share"] = rep.Reconcile(
        config.workload + " /query", e2e_us,
        {{"server", e2e_us - inproc_us},
         {"plan.parse", layers.parse_s / ops * 1e6},
         {"plan.evaluate", layers.evaluate_s / ops * 1e6},
         {"compiler.compile", layers.compile_s / ops * 1e6},
         {"plan.combine", layers.combine_s / ops * 1e6}},
        "us/op");
    rep.Note(kNoTracingOverhead);
    rep.Note("in-process replay hit ratio: " +
             Num(1.0 - static_cast<double>(layers.misses) / ops));
  }

  CheckBodies(books, in, verify.get(), out);
  ReportAccuracy(ScoreStore(u.bn, *stack.store->snapshot()), out);
}

}  // namespace perfbench
