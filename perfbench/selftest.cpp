// Tests of the benchmark's own arithmetic (stats.h) and span bookkeeping
// (spans.h).  Run with `python3 perfbench/run.py --selftest`; exits 1 on the
// first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sfc/obs/histogram.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); }

void test_nearest_rank() {
  using perfbench::nearest_rank;
  expect(nearest_rank({}, 0.5) == 0.0, "empty sample percentile is 0");
  expect(nearest_rank({7.0}, 0.01) == 7.0, "single sample is every percentile");
  expect(nearest_rank({7.0}, 1.0) == 7.0, "single sample p100");
  // 1..100 in reverse order: the input order must not matter.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(nearest_rank(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(nearest_rank(hundred, 0.90) == 90.0, "p90 of 1..100 is 90");
  expect(nearest_rank(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(nearest_rank(hundred, 0.991) == 100.0, "p99.1 of 1..100 rounds the rank up");
  expect(nearest_rank(hundred, 0.0) == 1.0, "p0 clamps to the smallest sample");
  // Even count: nearest rank takes the lower middle, never an average.
  expect(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.0, "median of 1..4 is 2");
  expect(perfbench::median({5.0, 1.0, 3.0}) == 3.0, "median of odd count");
  // p90 of 10 samples is the 9th; of 6 samples ceil(5.4) = 6th.
  expect(nearest_rank({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9) == 9.0, "p90 of 10");
  expect(nearest_rank({1, 2, 3, 4, 5, 6}, 0.9) == 6.0, "p90 of 6 is the max");
  // Agrees with the library's own nearest-rank helper.
  std::vector<double> copy = hundred;
  expect(nearest_rank(hundred, 0.99) == sfc::nearest_rank_percentile(copy, 0.99),
         "matches sfc::nearest_rank_percentile");
}

void test_blocked_and_windowed() {
  using perfbench::blocked_percentile;
  using perfbench::windowed_rate;
  // Three blocks of 10: block p90s are 9, 109 and 19 -> median 19.  The
  // outlier block moves the result far less than a plain p90 (109).
  std::vector<double> ordered;
  for (int i = 1; i <= 10; ++i) ordered.push_back(i);
  for (int i = 1; i <= 10; ++i) ordered.push_back(100 + i);
  for (int i = 1; i <= 10; ++i) ordered.push_back(10 + i);
  expect(blocked_percentile(ordered, 10, 0.9) == 19.0, "median of block p90s");
  ordered.push_back(1e9);  // partial trailing block is ignored
  expect(blocked_percentile(ordered, 10, 0.9) == 19.0, "partial block dropped");
  expect(blocked_percentile({3.0, 1.0, 2.0}, 10, 0.5) == 2.0,
         "a lone partial block is used as is");
  expect(blocked_percentile({}, 10, 0.5) == 0.0, "empty -> 0");
  // Windows of 0.5 s over 2.2 s -> 4 full windows with 5, 5, 1, 5
  // completions; median window count 5 -> 10 per second.
  std::vector<double> done;
  for (int i = 0; i < 5; ++i) done.push_back(0.05 + 0.09 * i);
  for (int i = 0; i < 5; ++i) done.push_back(0.55 + 0.09 * i);
  done.push_back(1.2);
  for (int i = 0; i < 5; ++i) done.push_back(1.55 + 0.09 * i);
  done.push_back(2.1);  // in the dropped partial window
  expect(near(windowed_rate(done, 2.2, 0.5), 10.0), "median window rate");
  expect(near(windowed_rate({0.1, 0.2}, 0.4, 0.5), 5.0),
         "shorter than one window -> count / wall");
  expect(windowed_rate({0.1}, 0.0, 0.5) == 0.0, "zero wall -> 0");
}

void test_fail_ratio() {
  perfbench::Outcomes o;
  expect(perfbench::fail_ratio(o) == 0.0, "no attempts -> ratio 0");
  expect(o.balanced(), "empty outcomes balance");
  o.attempted = 8;
  o.succeeded = 6;
  o.failed = 2;
  o.wrong = 1;
  expect(near(perfbench::fail_ratio(o), 0.25), "2 of 8 failed -> 0.25");
  expect(o.balanced(), "6 + 2 == 8");
  perfbench::Outcomes more;
  more.attempted = 2;
  more.succeeded = 2;
  o.add(more);
  expect(o.attempted == 10 && o.succeeded == 8 && o.failed == 2 && o.wrong == 1,
         "add sums every counter");
  expect(near(perfbench::fail_ratio(o), 0.2), "2 of 10 failed -> 0.2");
  o.attempted = 11;
  expect(!o.balanced(), "an attempt with no outcome is unbalanced");
}

void test_histogram_mean() {
  // Exact delta mean from a real LatencyHistogram's sum/count.
  sfc::LatencyHistogram h;
  h.record_us(100.0);
  h.record_us(300.0);
  const std::uint64_t sum0 = h.sum_ns;
  const std::uint64_t count0 = h.count;
  h.record_us(10.0);
  h.record_us(20.0);
  h.record_us(60.0);
  expect(near(perfbench::histogram_delta_mean_us(sum0, count0, h.sum_ns, h.count), 30.0),
         "mean of the three samples after the snapshot is 30 us");
  expect(near(perfbench::histogram_delta_mean_us(0, 0, h.sum_ns, h.count), 98.0),
         "mean of all five samples is 98 us");
  expect(perfbench::histogram_delta_mean_us(h.sum_ns, h.count, h.sum_ns, h.count) == 0.0,
         "no samples in between -> 0");
}

void test_reconciliation() {
  perfbench::LatencyBudget b;
  b.client_mean_us = 500.0;
  b.queue_wait_mean_us = 220.0;
  b.execute_mean_us = 230.0;
  expect(near(b.unattributed_us(), 50.0), "500 - 220 - 230 = 50");
  expect(near(b.unattributed_pct(), 10.0), "50 of 500 is 10%");
  b.execute_mean_us = 330.0;
  expect(near(b.unattributed_us(), -50.0), "over-attribution is negative, not clamped");
  perfbench::LatencyBudget empty;
  expect(empty.unattributed_pct() == 0.0, "no client time -> 0%");
  expect(near(perfbench::change_pct(200.0, 210.0), 5.0), "200 -> 210 is +5%");
  expect(near(perfbench::change_pct(200.0, 190.0), -5.0), "200 -> 190 is -5%");
  expect(perfbench::change_pct(0.0, 1.0) == 0.0, "zero base -> 0");
}

void test_span_self_time() {
  perfbench::SpanSink sink;
  {
    perfbench::SpanLog log(sink);
    log.push({"root", 1, 0, 7, 0, 1000000});
    log.push({"child", 2, 1, 7, 100000, 400000});
    log.push({"child", 3, 1, 7, 500000, 700000});
    log.push({"leaf", 4, 3, 7, 550000, 600000});
  }
  const auto summary = sink.summarize();
  expect(sink.size() == 4, "log flushes into the sink");
  expect(near(summary.at("root").total_ms, 1.0), "root total 1 ms");
  expect(near(summary.at("root").self_ms, 0.5), "root self = 1 - 0.3 - 0.2 ms");
  expect(summary.at("child").count == 2, "two child spans");
  expect(near(summary.at("child").self_ms, 0.45), "child self = 0.3 + 0.2 - 0.05 ms");
  expect(near(summary.at("leaf").self_ms, 0.05), "leaf self = its duration");
  perfbench::ScopedSpan inert(nullptr, "x", 0, 0);
  expect(inert.id() == 0, "a span without a log records nothing");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_blocked_and_windowed();
  test_fail_ratio();
  test_histogram_mean();
  test_reconciliation();
  test_span_self_time();
  if (failures != 0) {
    std::printf("%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all expectations passed\n");
  return 0;
}
