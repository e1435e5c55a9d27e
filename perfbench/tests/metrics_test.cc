// Unit tests of the benchmark's metric derivation (perfbench/src/metrics.h).
//
//   cmake -S perfbench -B <dir> -DPERFBENCH_TESTS=ON
//   cmake --build <dir> --target perfbench_tests && ctest --test-dir <dir>

#include "metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/types.h"

namespace perfbench {
namespace {

TEST(Summarize, PercentilesFromHistogramInMilliseconds) {
  afc::Histogram h;
  // 1..1000 us: p50 ~ 0.5 ms, p99 ~ 0.99 ms, within the histogram's ~1.5 %.
  for (std::uint64_t us = 1; us <= 1000; us++) h.record(us * afc::kMicrosecond);
  const LatencySummary s = summarize(h);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_NEAR(s.p50_ms, 0.5, 0.5 * 0.02);
  EXPECT_NEAR(s.p99_ms, 0.99, 0.99 * 0.02);
}

TEST(Summarize, TailSetByTheSlowestPercent) {
  afc::Histogram h;
  h.record_n(1 * afc::kMillisecond, 980);
  h.record_n(100 * afc::kMillisecond, 20);
  const LatencySummary s = summarize(h);
  EXPECT_NEAR(s.p50_ms, 1.0, 0.02);
  EXPECT_NEAR(s.p99_ms, 100.0, 2.0);
}

TEST(Summarize, EmptyHistogramIsZeroWithZeroSamples) {
  const LatencySummary s = summarize(afc::Histogram{});
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.p50_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
}

TEST(Ratio, ZeroBaseGivesZeroNotNan) {
  EXPECT_EQ(ratio(5.0, 0.0), 0.0);
  EXPECT_EQ(ratio(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
}

TEST(OpsFailedFrac, CountsFailuresAndVerifyFailuresAgainstOpsBegun) {
  EXPECT_DOUBLE_EQ(ops_failed_frac(3, 1, 100), 0.04);
  EXPECT_EQ(ops_failed_frac(0, 0, 100), 0.0);
  EXPECT_EQ(ops_failed_frac(2, 0, 0), 0.0);  // nothing begun: defined, printed with base
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(MetricName, MatchesTheAllowedCharacterSet) {
  EXPECT_TRUE(valid_metric_name("sim_p99_ms"));
  EXPECT_TRUE(valid_metric_name("osd.fig3.s1_ms"));
  EXPECT_TRUE(valid_metric_name("a-b.c_9"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name("quote\""));
}

TEST(MetricSet, RejectsInvalidDuplicateAndNonFinite) {
  MetricSet m;
  EXPECT_TRUE(m.add("a.b", 1.0, "ms"));
  EXPECT_FALSE(m.add("a.b", 2.0, "ms"));
  EXPECT_FALSE(m.add("bad name", 1.0, "ms"));
  EXPECT_FALSE(m.add("nan", std::nan(""), "ms"));
  EXPECT_FALSE(m.add("inf", std::numeric_limits<double>::infinity(), "ms"));
  ASSERT_EQ(m.all().size(), 1u);
  EXPECT_EQ(m.find("a.b")->value, 1.0);
  EXPECT_EQ(m.find("missing"), nullptr);
}

TEST(MetricSet, RatioKeepsItsBase) {
  MetricSet m;
  EXPECT_TRUE(m.add_ratio("x_per_op", 6.0, 4.0, "count"));
  EXPECT_TRUE(m.add_ratio("zero_base", 6.0, 0.0, "count"));
  EXPECT_EQ(m.find("x_per_op")->value, 1.5);
  EXPECT_EQ(m.find("x_per_op")->base, "6/4");
  EXPECT_EQ(m.find("zero_base")->value, 0.0);
  EXPECT_EQ(m.find("zero_base")->base, "6/0");
  EXPECT_NE(m.report().find("x_per_op = 1.5 count  [6/4]"), std::string::npos);
}

TEST(MetricSet, JsonHasValueAndUnitPerMetricInOrder) {
  MetricSet m;
  m.add("run_s", 1.25, "s");
  m.add("sim_iops", 93970.5, "1/s");
  EXPECT_EQ(m.to_json(),
            "{\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"sim_iops\": {\"value\": 93970.5, \"unit\": \"1/s\"}}");
}

TEST(Json, NumbersRoundTripAndStringsEscape) {
  for (double v : {0.0, 1.0, 0.1, 1e-9, 12.345678901234567, 4.5e21}) {
    EXPECT_EQ(std::strtod(json_number(v).c_str(), nullptr), v);
  }
  EXPECT_EQ(json_number(std::nan("")), "0");
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

}  // namespace
}  // namespace perfbench
