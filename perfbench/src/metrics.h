#pragma once

// Metric derivation for the repository benchmark: latency summaries from
// afc::Histogram, ratios that stay defined on a zero base, the failed-op
// fraction, and an ordered metric set that prints itself both as a human
// report (every ratio with its base) and as one JSON object.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace perfbench {

/// Latency of one op kind in simulated time: median, 99th percentile and the
/// number of samples both are taken from.
struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t samples = 0;
};
LatencySummary summarize(const afc::Histogram& h);

/// num / den, or 0 when the base is 0 (the metric is printed with its base,
/// so a reader can tell "no work" from "no cost").
double ratio(double num, double den);

/// (failed ops + verify failures) / ops begun; 0 when nothing was begun.
double ops_failed_frac(std::uint64_t failed_ops, std::uint64_t verify_failures,
                       std::uint64_t ops_begun);

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// empty.
double median(std::vector<double> v);

/// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Human-readable base for ratios ("1234/5678"); empty for plain values.
  std::string base;
};

class MetricSet {
 public:
  /// Add a metric; rejects (returns false) an invalid or duplicate name or a
  /// non-finite value, so a bad metric can never reach the JSON.
  bool add(std::string name, double value, std::string unit, std::string base = {});
  /// Add ratio(num, den) and record "num/den" as its base.
  bool add_ratio(std::string name, double num, double den, std::string unit);

  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* find(std::string_view name) const;

  /// One line per metric: `name = value unit [base]`.
  std::string report() const;
  /// {"name": {"value": v, "unit": "u"}, ...} in insertion order.
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Shortest round-trip text for a finite double (JSON number syntax).
std::string json_number(double v);
/// `s` as a JSON string literal.
std::string json_string(std::string_view s);

}  // namespace perfbench
