// The four perfbench workloads and the metric tables they report.
//
// Untraced runs (--trace 0) report every end-to-end metric; traced runs
// (--trace 1) report every per-layer metric, with 0 for a layer the
// workload never calls (README.md lists which workload moves which).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bn/bayes_net.h"
#include "relational/joint_dist.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // per-run directory for snapshots and WALs
};

/// What a workload measured: end-to-end values (untraced metrics),
/// per-layer values (traced runs only), checks and traffic properties.
struct Measured {
  Report report;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload on untraced runs.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics, reported by every workload on traced runs.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Printed by traced runs where a tracing-overhead ratio would go.
constexpr char kNoTracingOverhead[] =
    "tracing overhead ratio: 1 by construction (a traced run times the same "
    "code as an untraced one: derive's spans wrap whole library calls in "
    "every pass, the serving workloads' spans are taken in an in-process "
    "replay after the timed phase)";

/// Runs `config.workload`; false when the name is unknown.
bool RunWorkload(const RunConfig& config, Measured* out);

void RunQueryWorkload(const RunConfig& config, Measured* out);
void RunWriteMix(const RunConfig& config, Measured* out);
void RunDerive(const RunConfig& config, Measured* out);

/// Times `setup` `repeats` times and returns the median seconds; the
/// state the last call built is the one the run measures.
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = Now();
    setup();
    times.push_back(Now() - t0);
  }
  return Median(times);
}

/// Mean KL (nats) and top-1 share of derived distributions against the
/// network's exact posteriors; `sums_ok` is false when any Δt's mass
/// differs from 1 by more than 1e-9.
struct Accuracy {
  double kl = 0.0;
  double top1 = 0.0;
  size_t scored = 0;
  bool sums_ok = true;
};

/// Reports derive_kl and derive_top1 and checks the Δt masses.
void ReportAccuracy(const Accuracy& acc, Measured* out);

/// Scores `dists[i]` (the Δt derived for `tuples[i]`) against the exact
/// posterior of `bn`.
Accuracy ScoreAgainstExact(const mrsl::BayesNet& bn,
                           const std::vector<mrsl::Tuple>& tuples,
                           const std::vector<const mrsl::JointDist*>& dists);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
