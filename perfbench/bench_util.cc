#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
constexpr double kHistMinMs = 1e-3;
constexpr double kHistGrowth = 1.01;
const double kLogGrowth = std::log(kHistGrowth);
const size_t kHistBuckets =
    static_cast<size_t>(std::ceil(std::log(1e5 / kHistMinMs) / kLogGrowth)) + 1;
}  // namespace

void Histogram::Add(double ms) {
  if (counts_.empty()) counts_.assign(kHistBuckets, 0);
  const double pos = ms > kHistMinMs ? std::log(ms / kHistMinMs) / kLogGrowth : 0.0;
  ++counts_[std::min(static_cast<size_t>(pos), kHistBuckets - 1)];
  ++count_;
  sum_ms_ += ms;
}

void Histogram::Merge(const Histogram& other) {
  if (other.counts_.empty()) return;
  if (counts_.empty()) counts_.assign(kHistBuckets, 0);
  for (size_t i = 0; i < kHistBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ms_ += other.sum_ms_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (size_t i = 0; i < kHistBuckets; ++i) {
    const double c = counts_[i];
    if (c > 0.0 && rank < before + c) {
      const double frac = (rank - before + 0.5) / c;
      return kHistMinMs * std::exp((static_cast<double>(i) + frac) * kLogGrowth);
    }
    before += c;
  }
  return kHistMinMs * std::exp(static_cast<double>(kHistBuckets) * kLogGrowth);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Traffic(const std::string& key, double value) {
  traffic_.emplace_back(key, Num(value));
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  notes_.push_back("check " + name + ": " + (ok ? "PASS" : "FAIL") +
                   (detail.empty() ? "" : " (" + detail + ")"));
  if (!ok) correct_ = false;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

double Report::Reconcile(
    const std::string& what, double e2e,
    const std::vector<std::pair<std::string, double>>& parts,
    const std::string& unit) {
  double attributed = 0.0;
  std::string line = "reconcile " + what + ": end-to-end " + Num(e2e) + " " +
                     unit + " =";
  for (const auto& [name, value] : parts) {
    attributed += value;
    line += " " + name + " " + Num(value) + " +";
  }
  const double residue = e2e - attributed;
  const double share = e2e > 0.0 ? residue / e2e : 0.0;
  line += " unattributed " + Num(residue) + " (" + Num(100.0 * share) + "%)";
  notes_.push_back(line);
  return share;
}

void Report::Print(const std::string& workload) const {
  std::printf("workload %s\n", workload.c_str());
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  std::string traffic = "{";
  for (size_t i = 0; i < traffic_.size(); ++i) {
    if (i > 0) traffic += ",";
    traffic += "\"" + traffic_[i].first + "\":" + traffic_[i].second;
  }
  traffic += "}";
  std::printf("traffic %s\n", traffic.c_str());
  const double error_rate =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("error_rate = %s (failed %llu of %llu attempted)\n",
              Num(error_rate).c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const MetricValue& m : metrics_) {
    std::printf("metric %-34s = %-24s %s\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\":";
  json += correct_ ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted_);
  json += ",\"failed\":" + std::to_string(failed_);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics_[i].name + "\":{\"value\":" +
            Num(metrics_[i].value) + ",\"unit\":\"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<std::pair<std::string, std::string>> BodyIntervals(
    const std::string& body) {
  std::vector<std::pair<std::string, std::string>> out;
  static const std::string kLo = "{\"lo\":";
  static const std::string kHi = ",\"hi\":";
  size_t pos = 0;
  while ((pos = body.find(kLo, pos)) != std::string::npos) {
    const size_t lo_begin = pos + kLo.size();
    const size_t hi_tag = body.find(kHi, lo_begin);
    if (hi_tag == std::string::npos) break;
    const size_t hi_begin = hi_tag + kHi.size();
    const size_t end = body.find('}', hi_begin);
    if (end == std::string::npos) break;
    out.emplace_back(body.substr(lo_begin, hi_tag - lo_begin),
                     body.substr(hi_begin, end - hi_begin));
    pos = end;
  }
  return out;
}

}  // namespace perfbench
