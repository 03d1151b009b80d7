// perfbench: the repository's end-to-end benchmark with per-layer
// attribution. Usually started through run.py, which builds it:
//
//   perfbench --workload <query_hot|query_cold|write_mix|derive>
//             --seed N --seconds S --trace 0|1 --scratch DIR
//   perfbench --dump-inputs --workload W --seed N
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). The exit code is non-zero when any
// correctness check failed. See README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},        {"ops_per_s", "1/s"},  {"op_p50_ms", "ms"},
      {"op_p95_ms", "ms"},     {"peak_rss_mb", "MB"}, {"derive_kl", "nats"},
      {"derive_top1", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"server.query_self_us", "us"},
      {"server.update_self_us", "us"},
      {"service.updates_per_sync", "count"},
      {"plan_cache.hit_ratio", "ratio"},
      {"plan_cache.evictions", "1/query"},
      {"plan_cache.invalidated_per_commit", "1/commit"},
      {"plan.parse_us", "us"},
      {"plan.evaluate_p50_ms", "ms"},
      {"plan.evaluate_p99_ms", "ms"},
      {"plan.combine_ms", "ms"},
      {"plan.lineage_events", "1/miss"},
      {"plan.peak_lineage_kb", "KB"},
      {"compiler.compile_ms", "ms"},
      {"compiler.worlds_sampled", "1/miss"},
      {"store.commit_p50_ms", "ms"},
      {"store.commit_p99_ms", "ms"},
      {"store.tuples_reinferred", "1/commit"},
      {"store.blocks_reused_ratio", "ratio"},
      {"store.restore_s", "s"},
      {"wal.sync_ms", "ms"},
      {"wal.bytes_per_update", "B"},
      {"wal.recovery_s", "s"},
      {"wal.replay_records_per_s", "1/s"},
      {"wal.replay_scaling", "ratio"},
      {"engine.infer_s", "s"},
      {"engine.sweeps_per_tuple", "count"},
      {"engine.shared_sample_ratio", "ratio"},
      {"engine.cpd_cache_hit_ratio", "ratio"},
      {"learner.learn_s", "s"},
      {"mining.apriori_s", "s"},
      {"learner.meta_rules", "count"},
      {"prob_database.materialize_s", "s"},
      {"reads.query_qps", "1/s"},
      {"reads.query_p50_ms", "ms"},
      {"reads.query_p99_ms", "ms"},
      {"trace.unattributed_share", "ratio"},
  };
  return kMetrics;
}

bool RunWorkload(const RunConfig& config, Measured* out) {
  if (config.workload == "query_hot" || config.workload == "query_cold") {
    RunQueryWorkload(config, out);
  } else if (config.workload == "write_mix") {
    RunWriteMix(config, out);
  } else if (config.workload == "derive") {
    RunDerive(config, out);
  } else {
    return false;
  }
  return true;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --scratch DIR\n"
               "       perfbench --dump-inputs --workload W --seed N\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--dump-inputs") {
      dump = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scratch" && has_value) {
      config.scratch = argv[++i];
    } else {
      return Usage();
    }
  }
  if (dump) {
    const std::string text = DumpInputs(config.workload, config.seed);
    if (text.empty()) return Usage();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  if (config.scratch.empty() || config.seconds <= 0.0) return Usage();
  std::error_code ec;
  std::filesystem::remove_all(config.scratch, ec);
  if (!std::filesystem::create_directories(config.scratch, ec)) {
    std::fprintf(stderr, "cannot create %s\n", config.scratch.c_str());
    return 2;
  }

  Measured m;
  if (!RunWorkload(config, &m)) return Usage();
  // A failed or refused operation is an error of the program, whatever
  // the workload: it makes the run incorrect.
  m.report.Check("every_operation_succeeded", m.report.failed() == 0,
                 std::to_string(m.report.failed()) + " of " +
                     std::to_string(m.report.attempted()) + " failed");
  m.e2e["peak_rss_mb"] = PeakRssMb();
  const auto& table = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = config.trace ? m.layers : m.e2e;
  for (const MetricSpec& spec : table) {
    auto it = values.find(spec.name);
    // A layer the workload never calls reports 0 on a traced run; an
    // end-to-end metric must always have been measured.
    if (it == values.end() && !config.trace) {
      m.report.Check(std::string("measured_") + spec.name, false, "missing");
    }
    m.report.Metric(spec.name, it == values.end() ? 0.0 : it->second,
                    spec.unit);
  }
  std::filesystem::remove_all(config.scratch, ec);
  m.report.Print(config.workload);
  return m.report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
