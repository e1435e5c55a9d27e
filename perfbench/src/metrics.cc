#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

LatencySummary summarize(const afc::Histogram& h) {
  return LatencySummary{h.p50_ms(), h.p99_ms(), h.count()};
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double ops_failed_frac(std::uint64_t failed_ops, std::uint64_t verify_failures,
                       std::uint64_t ops_begun) {
  return ratio(double(failed_ops + verify_failures), double(ops_begun));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-';
  });
}

bool MetricSet::add(std::string name, double value, std::string unit, std::string base) {
  if (!valid_metric_name(name) || !std::isfinite(value) || find(name) != nullptr) return false;
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), std::move(base)});
  return true;
}

bool MetricSet::add_ratio(std::string name, double num, double den, std::string unit) {
  const std::string base = json_number(num) + "/" + json_number(den);
  return add(std::move(name), ratio(num, den), std::move(unit), base);
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricSet::report() const {
  std::string out;
  for (const auto& m : metrics_) {
    out += m.name + " = " + json_number(m.value) + " " + m.unit;
    if (!m.base.empty()) out += "  [" + m.base + "]";
    out += "\n";
  }
  return out;
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); i++) {
    const auto& m = metrics_[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  for (int prec = 1; prec <= 17; prec++) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
