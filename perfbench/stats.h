// The benchmark's own arithmetic: percentiles, failure ratios, histogram
// means and the latency-budget reconciliation.  Kept header-only and free of
// library types so selftest.cpp can check every formula in isolation, and
// independent of the library's own helpers (sfc::nearest_rank_percentile)
// so that a change to the measured code cannot move how it is measured.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// `fraction` of all samples are <= it, i.e. sorted[ceil(fraction * n) - 1]
/// (rank clamped to [1, n]).  Returns 0 for an empty sample.
inline double nearest_rank(std::vector<double> samples, double fraction) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(fraction * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// The median as the benchmark reports it: nearest-rank p50.
inline double median(const std::vector<double>& samples) {
  return nearest_rank(samples, 0.5);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// A tail percentile that one burst of outside interference cannot move
/// much: `ordered` (samples in completion order) is cut into consecutive
/// blocks of `block` samples, each block's nearest-rank percentile is taken,
/// and the median of those is returned.  A trailing partial block counts only
/// when it is the only block.
inline double blocked_percentile(const std::vector<double>& ordered,
                                 std::size_t block, double fraction) {
  if (ordered.empty() || block == 0) return 0.0;
  if (ordered.size() < block) return nearest_rank(ordered, fraction);
  std::vector<double> per_block;
  for (std::size_t first = 0; first + block <= ordered.size(); first += block) {
    const auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(first);
    per_block.push_back(nearest_rank(
        std::vector<double>(begin, begin + static_cast<std::ptrdiff_t>(block)),
        fraction));
  }
  return median(per_block);
}

/// Completions per second as the median over fixed windows: `done_s` holds
/// completion times in seconds since the phase began, binned into windows of
/// `window_s` over [0, wall_s).  A trailing partial window is dropped; when
/// the phase is shorter than one window the plain rate count / wall_s is
/// returned.
inline double windowed_rate(const std::vector<double>& done_s, double wall_s,
                            double window_s) {
  if (wall_s <= 0.0 || window_s <= 0.0) return 0.0;
  const auto windows = static_cast<std::size_t>(wall_s / window_s);
  if (windows == 0) return static_cast<double>(done_s.size()) / wall_s;
  std::vector<double> counts(windows, 0.0);
  for (const double t : done_s) {
    if (t < 0.0) continue;
    const auto w = static_cast<std::size_t>(t / window_s);
    if (w < windows) counts[w] += 1.0;
  }
  return median(counts) / window_s;
}

/// Outcome accounting of one phase.  Every operation the benchmark sends is
/// attempted once and ends either succeeded or failed (a typed error, or an
/// answer that did not match its reference).
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  /// Subset of `failed`: answers that arrived but differ from the reference.
  std::uint64_t wrong = 0;

  void add(const Outcomes& other) {
    attempted += other.attempted;
    succeeded += other.succeeded;
    failed += other.failed;
    wrong += other.wrong;
  }
  /// Every attempt is accounted for exactly once.
  bool balanced() const { return attempted == succeeded + failed; }
};

/// failed / attempted; 0 when nothing was attempted.
inline double fail_ratio(const Outcomes& o) {
  if (o.attempted == 0) return 0.0;
  return static_cast<double>(o.failed) / static_cast<double>(o.attempted);
}

/// Exact mean of the samples a histogram recorded between two snapshots,
/// from its running sum (integer nanoseconds) and count:
///   (sum_after - sum_before) / (count_after - count_before), in us.
/// Returns 0 when no sample was recorded in between.
inline double histogram_delta_mean_us(std::uint64_t sum_ns_before,
                                      std::uint64_t count_before,
                                      std::uint64_t sum_ns_after,
                                      std::uint64_t count_after) {
  if (count_after <= count_before) return 0.0;
  const auto sum = static_cast<double>(sum_ns_after - sum_ns_before);
  const auto count = static_cast<double>(count_after - count_before);
  return sum / count / 1000.0;
}

/// The latency budget of one served request, as means over a phase: the
/// client-side mean splits into the server's queue wait, its execution, and
/// whatever neither histogram covers (submission, wake-up, result hand-off).
struct LatencyBudget {
  double client_mean_us = 0.0;
  double queue_wait_mean_us = 0.0;
  double execute_mean_us = 0.0;

  /// client mean - (queue wait mean + execute mean).  Negative when the
  /// server-side parts claim more time than the client saw.
  double unattributed_us() const {
    return client_mean_us - queue_wait_mean_us - execute_mean_us;
  }
  /// unattributed share of the client mean, in percent (0 when no client
  /// time was measured).
  double unattributed_pct() const {
    if (client_mean_us <= 0.0) return 0.0;
    return 100.0 * unattributed_us() / client_mean_us;
  }
};

/// Relative change of `measured` against `base`, in percent; 0 when base is
/// not positive.  Used for the tracing overhead (traced vs untraced).
inline double change_pct(double base, double measured) {
  if (base <= 0.0) return 0.0;
  return 100.0 * (measured - base) / base;
}

}  // namespace perfbench
