// write_mix: one writer POSTing fixed insert deltas to /update beside 2
// paced readers, the WAL in group sync mode, then WAL recovery. Everything
// after set-up runs on one vCPU (PinToOneCpu).

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <thread>

#include "serving.h"
#include "server/http.h"

namespace perfbench {

namespace fs = std::filesystem;
using mrsl::BidStore;
using mrsl::Tuple;

namespace {

constexpr int kRecoveryTrials = 3;

// Confines the calling thread, and so every thread started after it (each
// round's server threads and clients), to the highest vCPU it may run on.
// The engine's pool, started during set-up, stays where it is; a commit
// whose dirty tuples form one component, the usual case for a one-row
// insert, runs inline on its caller. Spread over vCPUs, each update hands
// off between threads on different vCPUs, and waking a thread on a vCPU
// the host has descheduled stalls the whole commit path: host steal of
// about one vCPU halved unpinned throughput, and the WAL fsync read 2.3 ms
// against 0.28 ms pinned (README.md).
void PinToOneCpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

// A reader's pause before each request (kMixReadPauseMs).
void ReadPause() {
  std::this_thread::sleep_for(std::chrono::milliseconds(kMixReadPauseMs));
}

struct Round {
  double wall = 0.0;
  OpLog updates;
  OpLog reads;
  std::vector<Tuple> acked;
  mrsl::WalStats wal;
  mrsl::PlanCache::Stats cache0;
  mrsl::PlanCache::Stats cache1;
  uint64_t commits = 0;
  double restore_s = 0.0;
  mrsl::SnapshotPtr final_snapshot;  // kept for the first round only
  bool rows_ok = false;         // final relation = base + every acked insert
  bool recovery_same = true;    // restart reproduced the snapshot bytes
};

std::vector<std::vector<mrsl::ValueId>> SortedRows(
    const std::vector<Tuple>& rows) {
  std::vector<std::vector<mrsl::ValueId>> out;
  for (const Tuple& t : rows) out.push_back(t.values());
  std::sort(out.begin(), out.end());
  return out;
}

// One write_mix round from the setup snapshot: a fresh store with its own
// WAL, the writer sending its fixed inserts, 2 paced readers until it
// finishes. `verify_recovery` also restarts the store from snapshot + WAL
// and compares snapshot bytes.
bool RunRound(const Universe& u, const ServingInputs& in, mrsl::Engine* engine,
              const std::string& snapshot, const std::string& wal_dir,
              bool verify_recovery, Measured* out, Round* round) {
  Report& rep = out->report;
  std::string err;
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  auto store = RestoredStore(engine, snapshot, &round->restore_s, &err);
  if (store != nullptr) {
    auto opened = store->OpenWal(wal_dir, mrsl::WalSyncMode::kGroup);
    if (!opened.ok()) err = "open wal: " + opened.status().ToString();
    if (!opened.ok()) store.reset();
  }
  std::unique_ptr<Front> front;
  if (store != nullptr) front = StartFront(store.get(), &err);
  if (front == nullptr) {
    rep.Check("write_mix_round_setup", false, err);
    return false;
  }
  const uint16_t port = front->server->port();
  const uint64_t epoch0 = store->epoch();
  round->cache0 = store->plan_cache().stats();

  const double t_begin = Now();
  std::vector<OpLog> wlogs(kMixWriters);
  std::vector<OpLog> rlogs(kMixReaders);
  for (OpLog& l : wlogs) l.t_begin = t_begin;
  for (OpLog& l : rlogs) l.t_begin = t_begin;
  std::vector<std::vector<Tuple>> acked(kMixWriters);
  std::vector<double> finished(kMixWriters, 0.0);
  std::vector<size_t> cursors(kMixReaders, 0);
  std::atomic<size_t> writers_left{kMixWriters};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kMixWriters; ++w) {
    threads.emplace_back([&, w]() {
      mrsl::HttpClient client;
      bool connected = client.Connect("127.0.0.1", port).ok();
      for (const Tuple& row : in.inserts[w]) {
        ++wlogs[w].attempted;
        if (!connected) {
          ++wlogs[w].failed;
          continue;
        }
        const std::string csv = InsertCsv(u.schema, row);
        const double t0 = Now();
        auto resp = client.RoundTrip("POST", "/update", csv);
        const double t1 = Now();
        if (resp.ok() && resp->status == 200) {
          wlogs[w].Record(t1, (t1 - t0) * 1e3);
          acked[w].push_back(row);
        } else {
          ++wlogs[w].failed;
          if (!resp.ok()) {
            client.Close();
            connected = client.Connect("127.0.0.1", port).ok();
          }
        }
      }
      finished[w] = Now();
      writers_left.fetch_sub(1);
    });
  }
  auto go_on = [&writers_left]() {
    ReadPause();
    return writers_left.load() > 0;
  };
  for (size_t r = 0; r < kMixReaders; ++r) {
    threads.emplace_back([&, r]() {
      ReadLoop(port, in.plans, in.streams[r], &cursors[r], go_on, &rlogs[r],
               nullptr);
    });
  }
  for (auto& t : threads) t.join();
  round->wall = *std::max_element(finished.begin(), finished.end()) - t_begin;
  for (size_t w = 0; w < kMixWriters; ++w) {
    round->updates.Append(wlogs[w]);
    round->acked.insert(round->acked.end(), acked[w].begin(), acked[w].end());
  }
  for (const OpLog& l : rlogs) round->reads.Append(l);
  round->wal = store->wal_stats();
  round->cache1 = store->plan_cache().stats();
  round->commits = store->epoch() - epoch0;
  front.reset();

  const mrsl::SnapshotPtr final_snapshot = store->snapshot();
  std::vector<Tuple> expected = in.base.rows();
  expected.insert(expected.end(), round->acked.begin(), round->acked.end());
  round->rows_ok =
      SortedRows(final_snapshot->base().rows()) == SortedRows(expected);

  if (verify_recovery) {
    round->final_snapshot = final_snapshot;
    auto before = store->SerializeCurrentSnapshot();
    store.reset();  // closes the WAL
    auto recovered = RestoredStore(engine, snapshot, nullptr, &err);
    round->recovery_same = false;
    if (recovered != nullptr && before.ok()) {
      auto opened = recovered->OpenWal(wal_dir, mrsl::WalSyncMode::kGroup);
      auto after = recovered->SerializeCurrentSnapshot();
      round->recovery_same = opened.ok() && after.ok() && *after == *before;
    }
  }
  return true;
}

// Serial ApplyDelta of `n` records on a store restored from the snapshot:
// the fixed-length log recovery replays.
bool BuildLog(mrsl::Engine* engine, const std::string& snapshot,
              const std::string& dir, const std::vector<Tuple>& rows,
              size_t n, std::string* err) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto store = RestoredStore(engine, snapshot, nullptr, err);
  if (store == nullptr) return false;
  auto opened = store->OpenWal(dir, mrsl::WalSyncMode::kGroup);
  if (!opened.ok()) {
    *err = "open wal: " + opened.status().ToString();
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    auto applied = store->ApplyDelta(InsertDelta(rows[i]));
    if (!applied.ok()) {
      *err = "log apply: " + applied.status().ToString();
      return false;
    }
  }
  mrsl::Status synced = store->SyncWal();
  if (!synced.ok()) *err = "log sync: " + synced.ToString();
  return synced.ok();
}

// Median OpenWal replay time of a copy of `log_dir` into a fresh store
// restored from the setup snapshot.
double RecoverySeconds(mrsl::Engine* engine, const std::string& snapshot,
                       const std::string& log_dir, const std::string& trial_dir,
                       size_t records, bool* ok) {
  std::vector<double> times;
  for (int i = 0; i < kRecoveryTrials; ++i) {
    std::error_code ec;
    fs::remove_all(trial_dir, ec);
    std::string err;
    auto store = RestoredStore(engine, snapshot, nullptr, &err);
    fs::copy(log_dir, trial_dir, ec);
    if (store == nullptr || ec) {
      *ok = false;
      return 0.0;
    }
    const uint64_t epoch0 = store->epoch();
    const double t0 = Now();
    auto rec = store->OpenWal(trial_dir, mrsl::WalSyncMode::kGroup);
    times.push_back(Now() - t0);
    *ok = *ok && rec.ok() && rec->replayed_records == records &&
          store->epoch() == epoch0 + records;
  }
  return Median(times);
}

// In-process twin of the HTTP rounds: StoreService::BatchedUpdate from the
// writer thread beside 2 paced QueryOn readers, on a store with its own WAL.
struct WriteLayers {
  std::vector<double> batched_us;
  std::vector<double> commit_of_update_ms;
  std::map<uint64_t, mrsl::CommitStats> commits;  // by epoch
  QueryLayers reads;
  mrsl::WalStats wal;
  uint64_t failed = 0;
};

bool ReplayWritesInProcess(const ServingInputs& in, mrsl::Engine* engine,
                           const std::string& snapshot,
                           const std::string& wal_dir, WriteLayers* out) {
  std::string err;
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  auto store = RestoredStore(engine, snapshot, nullptr, &err);
  if (store == nullptr ||
      !store->OpenWal(wal_dir, mrsl::WalSyncMode::kGroup).ok()) {
    return false;
  }
  mrsl::StoreService service(store.get());
  std::mutex mu;
  std::atomic<size_t> writers_left{kMixWriters};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kMixWriters; ++w) {
    threads.emplace_back([&, w]() {
      for (const Tuple& row : in.inserts[w]) {
        const double t0 = Now();
        auto r = service.BatchedUpdate(InsertDelta(row), 0);
        const double dt = Now() - t0;
        std::lock_guard<std::mutex> lock(mu);
        if (!r.ok()) {
          ++out->failed;
          continue;
        }
        out->batched_us.push_back(dt * 1e6);
        out->commit_of_update_ms.push_back(r->wall_seconds * 1e3);
        out->commits[r->epoch] = *r;
      }
      writers_left.fetch_sub(1);
    });
  }
  std::vector<QueryLayers> readers(kMixReaders);
  for (size_t r = 0; r < kMixReaders; ++r) {
    threads.emplace_back([&, r]() {
      size_t pos = 0;
      const auto& stream = in.streams[r];
      for (ReadPause(); writers_left.load() > 0; ReadPause()) {
        const QueryRequest& q = in.plans[stream[pos++ % stream.size()]];
        const double t0 = Now();
        auto res = QueryInProcess(store.get(), q);
        readers[r].Add(res, q.compiled(), Now() - t0);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const QueryLayers& r : readers) out->reads.Append(r);
  out->wal = store->wal_stats();
  return true;
}

}  // namespace

void RunWriteMix(const RunConfig& config, Measured* out) {
  Report& rep = out->report;
  const Universe u = ServingUniverse();
  const std::string snapshot = config.scratch + "/setup.snapshot";
  const std::string log_dir = config.scratch + "/log1x";
  ServingInputs in;
  Stack stack;
  std::string err;
  bool ok = true;
  out->e2e["setup_s"] = MedianSetupSeconds(kServingSetupRepeats, [&]() {
    in = MakeServingInputs(u, config.workload, config.seed);
    ok = ok && BuildStack(in, &stack, &err);
  });
  // Every round restores this snapshot; recovery replays this log. Both
  // are inputs the harness prepares, outside the set-up time.
  ok = ok && SaveSnapshot(*stack.store, snapshot, &err) &&
       BuildLog(stack.engine.get(), snapshot, log_dir, in.log_records,
                kLogRecords, &err);
  rep.Check("setup", ok, err);
  if (!ok) return;
  // Set-up stays on every vCPU, like the other serving workloads': pinned,
  // its median over a run flipped between ~0.05 and ~0.08 s with the
  // speed the host gave that one vCPU.
  PinToOneCpu();
  mrsl::Engine* engine = stack.engine.get();

  // Timed rounds until the budget is spent; every round is the same
  // fixed work from the same snapshot.
  std::vector<Round> rounds;
  double spent = 0.0;
  while (spent < config.seconds || rounds.size() < 2) {
    Round round;
    if (!RunRound(u, in, engine, snapshot, config.scratch + "/round_wal",
                  rounds.empty(), out, &round)) {
      return;
    }
    spent += round.wall;
    rounds.push_back(std::move(round));
  }

  OpLog updates, reads;
  std::vector<double> round_rates, restores;
  uint64_t acked = 0, syncs = 0, bytes = 0, commits = 0, invalidated = 0;
  uint64_t hits = 0, misses = 0, evicted = 0;
  double sync_s = 0.0;
  for (const Round& r : rounds) {
    rep.CountOps(r.updates.attempted + r.reads.attempted,
                 r.updates.failed + r.reads.failed);
    updates.Append(r.updates);
    reads.Append(r.reads);
    round_rates.push_back(static_cast<double>(r.acked.size()) / r.wall);
    restores.push_back(r.restore_s);
    acked += r.acked.size();
    syncs += r.wal.syncs;
    sync_s += r.wal.sync_seconds;
    bytes += r.wal.bytes_appended;
    commits += r.commits;
    invalidated += r.cache1.invalidated - r.cache0.invalidated;
    hits += r.cache1.hits - r.cache0.hits;
    misses += r.cache1.misses - r.cache0.misses;
    evicted += r.cache1.evicted - r.cache0.evicted;
  }
  ReportLatency(Median(round_rates), "of the per-round acknowledged rates",
                updates.latency, out);
  size_t bad_rows = 0;
  for (const Round& r : rounds) bad_rows += r.rows_ok ? 0 : 1;
  rep.Check("final_relation_holds_every_acked_insert", bad_rows == 0,
            std::to_string(bad_rows) + " of " + std::to_string(rounds.size()) +
                " rounds differ");
  rep.Check("recovered_snapshot_bytes_equal", rounds.front().recovery_same,
            "first round: restore setup snapshot + replay its WAL");
  rep.CountOps(0, bad_rows + (rounds.front().recovery_same ? 0 : 1));
  rep.Note("rounds: " + std::to_string(rounds.size()) + ", each of " +
           std::to_string(kRoundInserts) + " inserts");
  const Histogram& read_latency = reads.latency;
  rep.Note("reads beside writes: " +
           Num(static_cast<double>(read_latency.count()) / spent) +
           " query/s, p50 " + Num(read_latency.Quantile(0.5)) + " ms, p99 " +
           Num(read_latency.Quantile(0.99)) + " ms");

  bool recovered_ok = true;
  const double recovery_s = RecoverySeconds(
      engine, snapshot, log_dir, config.scratch + "/recover", kLogRecords,
      &recovered_ok);
  rep.Check("wal_replay_restores_every_record", recovered_ok,
            std::to_string(kLogRecords) + " records");
  rep.Note("recovery_s = " + Num(recovery_s) + " s (OpenWal replay of " +
           std::to_string(kLogRecords) + " records, median of " +
           std::to_string(kRecoveryTrials) + ")");

  size_t missing_rows = 0;
  for (const auto& w : in.inserts) {
    for (const Tuple& t : w) missing_rows += t.IsComplete() ? 0 : 1;
  }
  const double group = syncs > 0 ? static_cast<double>(acked) / syncs : 0.0;
  const double hit_ratio = hits + misses > 0
                               ? static_cast<double>(hits) / (hits + misses)
                               : 0.0;
  rep.Traffic("inserts_per_round", static_cast<double>(kRoundInserts));
  rep.Traffic("insert_missing_share",
              static_cast<double>(missing_rows) / kRoundInserts);
  rep.Traffic("updates_per_sync", group);
  rep.Traffic("reader_hit_ratio", hit_ratio);
  rep.Traffic("distinct_plans", static_cast<double>(in.plans.size()));

  if (config.trace) {
    WriteLayers wl;
    const bool replayed = ReplayWritesInProcess(
        in, engine, snapshot, config.scratch + "/inproc_wal", &wl);
    rep.Check("in_process_replay", replayed && wl.failed == 0,
              std::to_string(wl.failed) + " failed");
    QueryLayerMetrics(wl.reads, out);
    std::vector<double> commit_ms;
    double reinferred = 0.0, reused = 0.0, blocks = 0.0, infer_s = 0.0;
    mrsl::WorkloadStats inf;
    for (const auto& [epoch, cs] : wl.commits) {
      commit_ms.push_back(cs.wall_seconds * 1e3);
      reinferred += static_cast<double>(cs.tuples_reinferred);
      reused += static_cast<double>(cs.blocks_reused);
      blocks += static_cast<double>(cs.blocks_total);
      infer_s += cs.inference.wall_seconds;
      inf.points_sampled += cs.inference.points_sampled;
      inf.shared_samples += cs.inference.shared_samples;
      inf.distinct_tuples += cs.inference.distinct_tuples;
      inf.cache_hits += cs.inference.cache_hits;
      inf.cpd_evaluations += cs.inference.cpd_evaluations;
    }
    const double n_commits = std::max<double>(1.0, commit_ms.size());
    const double e2e_us = updates.latency.Mean() * 1e3;
    const double batched_us = Mean(wl.batched_us);
    const double sync_us =
        wl.wal.syncs > 0 ? wl.wal.sync_seconds / wl.wal.syncs * 1e6 : 0.0;
    const double commit_us = Mean(wl.commit_of_update_ms) * 1e3;
    out->layers["server.update_self_us"] = e2e_us - batched_us;
    out->layers["service.updates_per_sync"] = group;
    out->layers["plan_cache.hit_ratio"] = hit_ratio;
    out->layers["plan_cache.evictions"] =
        static_cast<double>(evicted) /
        std::max<double>(1.0, static_cast<double>(hits + misses));
    out->layers["plan_cache.invalidated_per_commit"] =
        commits > 0 ? static_cast<double>(invalidated) / commits : 0.0;
    out->layers["store.commit_p50_ms"] = Quantile(commit_ms, 0.5);
    out->layers["store.commit_p99_ms"] = Quantile(commit_ms, 0.99);
    out->layers["store.tuples_reinferred"] = reinferred / n_commits;
    out->layers["store.blocks_reused_ratio"] = blocks > 0 ? reused / blocks : 0.0;
    out->layers["store.restore_s"] = Median(restores);
    out->layers["wal.sync_ms"] = syncs > 0 ? sync_s / syncs * 1e3 : 0.0;
    out->layers["wal.bytes_per_update"] =
        acked > 0 ? static_cast<double>(bytes) / acked : 0.0;
    out->layers["wal.recovery_s"] = recovery_s;
    out->layers["wal.replay_records_per_s"] = kLogRecords / recovery_s;
    out->layers["engine.infer_s"] = infer_s / n_commits;
    out->layers["engine.sweeps_per_tuple"] =
        inf.distinct_tuples > 0
            ? static_cast<double>(inf.points_sampled) / inf.distinct_tuples
            : 0.0;
    const double samples =
        static_cast<double>(inf.shared_samples + inf.points_sampled);
    out->layers["engine.shared_sample_ratio"] =
        samples > 0 ? inf.shared_samples / samples : 0.0;
    const double lookups =
        static_cast<double>(inf.cache_hits + inf.cpd_evaluations);
    out->layers["engine.cpd_cache_hit_ratio"] =
        lookups > 0 ? inf.cache_hits / lookups : 0.0;
    out->layers["reads.query_qps"] =
        static_cast<double>(read_latency.count()) / spent;
    out->layers["reads.query_p50_ms"] = read_latency.Quantile(0.5);
    out->layers["reads.query_p99_ms"] = read_latency.Quantile(0.99);
    out->layers["trace.unattributed_share"] = rep.Reconcile(
        "write_mix /update", e2e_us,
        {{"server", e2e_us - batched_us},
         {"store.commit", commit_us},
         {"wal.sync", sync_us}},
        "us/op");
    rep.Note(kNoTracingOverhead);

    // Replay throughput at 4x the log length against 1x.
    const std::string log4 = config.scratch + "/log4x";
    bool ok4 = BuildLog(engine, snapshot, log4, in.log_records,
                        4 * kLogRecords, &err);
    const double recovery4 =
        ok4 ? RecoverySeconds(engine, snapshot, log4,
                              config.scratch + "/recover", 4 * kLogRecords,
                              &ok4)
            : 0.0;
    rep.Check("wal_replay_4x", ok4, err);
    out->layers["wal.replay_scaling"] =
        ok4 ? (4 * kLogRecords / recovery4) / (kLogRecords / recovery_s) : 0.0;
  }

  ReportAccuracy(ScoreStore(u.bn, *rounds.front().final_snapshot), out);
}

}  // namespace perfbench
