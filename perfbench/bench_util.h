// Shared scaffolding for the perfbench program: timing, sample
// statistics, and the run report (metrics, checks, traffic properties,
// reconciliation lines).
//
// Every span is timed by the benchmark around a call into a public
// library function; nothing inside the library is instrumented.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (an arbitrary but fixed origin).
double Now();

/// Quantile of `values` by linear interpolation between closest ranks
/// (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Log-spaced latency histogram in milliseconds (1% wide buckets from
/// 1 us to 100 s). Its memory is fixed however many samples it holds, so
/// the benchmark's own bookkeeping does not grow the process's peak RSS
/// with throughput.
class Histogram {
 public:
  void Add(double ms);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ms_ / count_; }
  /// The q-quantile by rank, interpolated geometrically inside its bucket.
  double Quantile(double q) const;

 private:
  std::vector<uint32_t> counts_;  // sized on first use
  uint64_t count_ = 0;
  double sum_ms_ = 0.0;
};

/// "%.17g": every digit a measurement has.
std::string Num(double v);

/// What one run measured and checked. Metrics print in insertion order.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A measured property of the generated traffic (printed, not gated).
  void Traffic(const std::string& key, double value);
  /// A correctness check; a false `ok` marks the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Free-form line printed with the human-readable output.
  void Note(const std::string& line);

  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// Prints a reconciliation line: the end-to-end time per operation
  /// against the named layer parts, with the unattributed residue.
  /// Returns the residue as a share of `e2e`.
  double Reconcile(const std::string& what, double e2e,
                   const std::vector<std::pair<std::string, double>>& parts,
                   const std::string& unit);

  /// Human-readable lines, then the one-line JSON result.
  void Print(const std::string& workload) const;

 private:
  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<MetricValue> metrics_;
  std::vector<std::pair<std::string, std::string>> traffic_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Every `{"lo":A,"hi":B}` interval in a /query body, in order, as
/// (A, B) text pairs — the numbers the service printed with %.17g.
std::vector<std::pair<std::string, std::string>> BodyIntervals(
    const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
