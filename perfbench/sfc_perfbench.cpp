// The repository benchmark program (see README.md for the workloads and the
// metric definitions).
//
//   sfc_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// One process, linked against the library, driving each layer only through
// its public functions.  Inputs (points, query traces) are generated here
// from --seed; the library receives only the generated data.  Every served
// answer is compared with a precomputed unsharded reference, every stretch
// report with the paper's bounds, and any mismatch makes the run exit 1.
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the same phases, half untraced and half with spans recorded
// around every call into a layer, adds the per-layer probes, writes the spans
// to DIR, and reports the per-layer metrics plus the tracing overhead.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics of the mode.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sfc/core/bounds.h"
#include "sfc/core/nn_stretch.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/grid/universe.h"
#include "sfc/index/executor.h"
#include "sfc/index/knn.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/serve/generation.h"
#include "sfc/serve/serve_error.h"
#include "sfc/serve/server.h"
#include "sfc/serve/sharded_index.h"
#include "sfc/sort/radix_sort.h"
#include "sfc/store/index_store.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kPointCount = 1000000;
constexpr std::size_t kProbeQueries = 256;
constexpr std::uint32_t kKnnK = 8;
constexpr int kSetupReps = 5;
constexpr int kProbeReps = 3;
constexpr int kStretchBits = 12;
constexpr unsigned kClients = 3;
constexpr double kWarmupSeconds = 0.5;
constexpr double kWarmCpuSeconds = 1.5;
// Tail percentiles are medians over blocks of this many consecutive
// completions, and rates medians over windows of this many seconds (see
// blocked_percentile / windowed_rate in stats.h).
constexpr std::size_t kTailBlock = 1000;
constexpr double kRateWindowSeconds = 0.5;
// Untraced serve runs alternate 1-client and 3-client slices this many times.
constexpr int kSlices = 4;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The JSON metrics of each mode, in output order.  Every workload reports
// every one; README.md defines them per workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"p50_us", "us"},
    {"tail_us", "us"},
    {"throughput_per_s", "1/s"},
};

// 0 means the layer does no work in the workload (e.g. kNN on range_sparse,
// the serving layers on stretch_report).
constexpr MetricSpec kPerLayer[] = {
    {"serve.queue_wait_us.mean", "us"},
    {"serve.execute_us.mean", "us"},
    {"serve.unattributed_us.mean", "us"},
    {"serve.rows_per_batch", "count"},
    {"serve.fanout_us.range", "us"},
    {"serve.fanout_us.knn", "us"},
    {"serve.fanout_x.range", "ratio"},
    {"serve.fanout_x.knn", "ratio"},
    {"serve.cover_nodes_per_range", "count"},
    {"serve.knn_nodes_per_query", "count"},
    {"serve.reload_ms.p50", "ms"},
    {"serve.client_p99_us.c3", "us"},
    {"index.range_exec_us.mean", "us"},
    {"index.scan_us.mean", "us"},
    {"index.knn_us.mean", "us"},
    {"index.rows_returned_per_range", "count"},
    {"index.knn_rows_per_query", "count"},
    {"index.knn_nodes_per_query", "count"},
    {"index.runs_touched_ratio", "ratio"},
    {"index.build_ms", "ms"},
    {"ranges.cover_us.mean", "us"},
    {"ranges.nodes_per_box", "count"},
    {"ranges.runs_per_box", "count"},
    {"store.write_ms", "ms"},
    {"store.open_ms", "ms"},
    {"store.verify_ms", "ms"},
    {"store.bytes_per_row", "bytes"},
    {"curves.encode_ns_per_point", "ns"},
    {"sort.sort_ms", "ms"},
    {"core.stretch_ms.hilbert", "ms"},
    {"core.stretch_ms.z", "ms"},
    {"metrics.lambda_ms.hilbert", "ms"},
    {"metrics.lambda_ms.z", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}
double ms_since(Clock::time_point t0) { return us_since(t0) / 1000.0; }

Clock::time_point after_seconds(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// Run state: metrics, outcome accounting, failure notes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Adds one phase's outcomes (thread-safe: refresh phases finish on two
  /// threads).
  void count(const Outcomes& o) {
    const std::lock_guard<std::mutex> lock(mutex_);
    outcomes_.add(o);
  }
  /// Records a failure description (the first few are printed).
  void note(const std::string& text) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++notes_seen_;
    if (notes_.size() < 8) notes_.push_back(text);
  }
  /// A failed paper-bound or consistency check outside the query path.
  void check(bool ok, const std::string& what) {
    Outcomes o;
    o.attempted = 1;
    (ok ? o.succeeded : o.failed) = 1;
    if (!ok) {
      o.wrong = 1;
      note("check failed: " + what);
    }
    count(o);
  }

  const Outcomes& outcomes() const { return outcomes_; }
  const std::vector<std::string>& notes() const { return notes_; }
  std::uint64_t notes_seen() const { return notes_seen_; }

 private:
  std::map<std::string, double> values_;
  std::mutex mutex_;
  Outcomes outcomes_;
  std::vector<std::string> notes_;
  std::uint64_t notes_seen_ = 0;
};

/// Human-readable metric line (everything above the final JSON line).
void say(const std::string& name, double value, const std::string& unit,
         const std::string& detail = "") {
  std::printf("metric %-30s %14.4f %-8s%s\n", name.c_str(), value, unit.c_str(),
              detail.empty() ? "" : ("  " + detail).c_str());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Keeps every CPU busy for `seconds` before anything is timed.  On a
/// virtual machine that sat idle, the first second or so of work runs up to
/// 3x slower than the steady state; without this the set-up reps, which come
/// first, would measure the host's wake-up rather than the program.
void warm_cpus(double seconds) {
  const unsigned n = std::max(1U, std::thread::hardware_concurrency());
  const auto deadline = after_seconds(seconds);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> sink{0};
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = t + 1;
      while (Clock::now() < deadline) {
        for (int i = 0; i < 100000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sink += x;
    });
  }
  for (auto& th : threads) th.join();
}

/// Runs `body` under a span and a timer; returns the elapsed milliseconds.
template <typename Fn>
double timed_ms(SpanLog* log, const char* name, std::uint64_t parent,
                std::uint64_t request, Fn&& body) {
  const ScopedSpan span(log, name, parent, request);
  const auto t0 = Clock::now();
  body();
  return ms_since(t0);
}

/// Median of kProbeReps timed runs of `body`, in milliseconds.
template <typename Fn>
double median_ms(SpanLog* log, const char* name, Fn&& body) {
  std::vector<double> ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    ms.push_back(timed_ms(log, name, 0, 0, body));
  }
  return median(ms);
}

// ---------------------------------------------------------------------------
// Input generation (all from --seed)
// ---------------------------------------------------------------------------

class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xD1B54A32D192ED03ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

sfc::CurveDescriptor descriptor(const std::string& family, int bits) {
  sfc::CurveDescriptor d;
  d.family = family;
  d.dim = 2;
  d.side = sfc::coord_t{1} << bits;
  return d;
}

sfc::Point random_point(Rng& rng, std::uint64_t side) {
  sfc::Point p = sfc::Point::zero(2);
  p[0] = static_cast<sfc::coord_t>(rng.below(side));
  p[1] = static_cast<sfc::coord_t>(rng.below(side));
  return p;
}

std::vector<sfc::Point> uniform_points(std::uint64_t seed, std::uint64_t stream,
                                       std::uint64_t side, std::uint64_t n) {
  Rng rng(seed, stream);
  std::vector<sfc::Point> points;
  points.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) points.push_back(random_point(rng, side));
  return points;
}

/// A query trace: position q is a kNN query (knn_points[slot[q]]) or a range
/// query (boxes[slot[q]]).
struct Trace {
  std::vector<std::uint8_t> is_knn;
  std::vector<std::uint32_t> slot;
  std::vector<sfc::Box> boxes;
  std::vector<sfc::Point> knn_points;

  std::size_t size() const { return is_knn.size(); }
};

struct ServeSpec {
  int bits;
  std::uint32_t extent;
  std::uint32_t knn_percent;
  /// Trace length: short enough that a replay phase cycles through the
  /// whole trace several times, so every phase answers the same query mix.
  std::size_t queries;
};

constexpr ServeSpec kMixedDense{10, 32, 50, 2048};
constexpr ServeSpec kRangeSparse{16, 256, 0, 1024};

Trace make_trace(std::uint64_t seed, const ServeSpec& spec) {
  const std::uint64_t side = std::uint64_t{1} << spec.bits;
  Rng rng(seed, 100);
  Trace t;
  for (std::size_t q = 0; q < spec.queries; ++q) {
    const bool knn = rng.below(100) < spec.knn_percent;
    t.is_knn.push_back(knn ? 1 : 0);
    if (knn) {
      t.slot.push_back(static_cast<std::uint32_t>(t.knn_points.size()));
      t.knn_points.push_back(random_point(rng, side));
    } else {
      sfc::Point lo = random_point(rng, side - spec.extent + 1);
      sfc::Point hi = lo;
      hi[0] += spec.extent - 1;
      hi[1] += spec.extent - 1;
      t.slot.push_back(static_cast<std::uint32_t>(t.boxes.size()));
      t.boxes.emplace_back(lo, hi);
    }
  }
  return t;
}

/// Reference answers of the unsharded executors on a base view, by slot.
struct Reference {
  std::vector<std::vector<std::uint32_t>> ids;
  std::vector<std::vector<sfc::KnnNeighbor>> neighbors;
};

Reference compute_reference(const sfc::IndexColumnsView& view, const Trace& t) {
  Reference ref;
  for (auto& r : sfc::run_range_queries(view, t.boxes)) {
    ref.ids.push_back(std::move(r.ids));
  }
  for (auto& r : sfc::run_knn_queries(view, t.knn_points, kKnnK)) {
    ref.neighbors.push_back(std::move(r.neighbors));
  }
  return ref;
}

/// Which dataset each served epoch holds.  The refresh writer publishes an
/// epoch right after reload() returns it; a reader that sees an answer from
/// an epoch not yet published waits for it.
class EpochTable {
 public:
  void publish(std::uint64_t epoch, int dataset) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      datasets_[epoch] = dataset;
    }
    published_.notify_all();
  }
  int dataset_of(std::uint64_t epoch) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool known = published_.wait_for(lock, std::chrono::seconds(10), [&] {
      return datasets_.count(epoch) != 0;
    });
    if (!known) throw std::runtime_error("answer from unknown epoch");
    return datasets_[epoch];
  }

 private:
  std::mutex mutex_;
  std::condition_variable published_;
  std::map<std::uint64_t, int> datasets_;
};

// ---------------------------------------------------------------------------
// Closed-loop replay
// ---------------------------------------------------------------------------

/// One closed-loop phase.  lat_us[i] completed done_s[i] seconds after the
/// phase began; after the merge in run_phase both are in completion order.
struct PhaseResult {
  std::vector<double> lat_us;
  std::vector<double> done_s;
  Outcomes outcomes;
  double wall_s = 0.0;

  double p50() const { return median(lat_us); }
  double tail(double fraction) const {
    return blocked_percentile(lat_us, kTailBlock, fraction);
  }
  double qps() const { return windowed_rate(done_s, wall_s, kRateWindowSeconds); }

  /// Appends a later slice of the same client level, as if it ran right
  /// after this one.
  void append(const PhaseResult& later) {
    lat_us.insert(lat_us.end(), later.lat_us.begin(), later.lat_us.end());
    for (const double t : later.done_s) done_s.push_back(wall_s + t);
    outcomes.add(later.outcomes);
    wall_s += later.wall_s;
  }
};

struct Replay {
  sfc::IndexServer& server;
  const Trace& trace;
  std::function<const Reference&(std::uint64_t epoch)> reference_for;
  Report& report;
};

void client_loop(Replay& replay, std::size_t start, Clock::time_point begin,
                 Clock::time_point deadline, SpanSink* sink, PhaseResult& out) {
  std::optional<SpanLog> owned;
  if (sink != nullptr) owned.emplace(*sink);
  SpanLog* log = owned ? &*owned : nullptr;
  const Trace& trace = replay.trace;
  out.lat_us.reserve(1 << 16);
  out.done_s.reserve(1 << 16);
  auto record = [&](Clock::time_point t0) {
    const auto t1 = Clock::now();
    out.lat_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    out.done_s.push_back(std::chrono::duration<double>(t1 - begin).count());
  };
  for (std::size_t i = start; Clock::now() < deadline; ++i) {
    const std::size_t q = i % trace.size();
    const bool knn = trace.is_knn[q] != 0;
    const std::uint32_t slot = trace.slot[q];
    const std::uint64_t request = sink != nullptr ? sink->next_request() : 0;
    const ScopedSpan root(log, knn ? "request.knn" : "request.range", 0, request);
    ++out.outcomes.attempted;
    try {
      bool same = false;
      const auto t0 = Clock::now();
      if (knn) {
        sfc::ServedKnn served;
        {
          const ScopedSpan call(log, "serve.knn_query_served", root.id(), request);
          served = replay.server.knn_query_served(trace.knn_points[slot], kKnnK);
        }
        record(t0);
        const ScopedSpan check(log, "bench.check", root.id(), request);
        same = served.result.neighbors ==
               replay.reference_for(served.epoch).neighbors[slot];
      } else {
        sfc::ServedRange served;
        {
          const ScopedSpan call(log, "serve.range_query_served", root.id(), request);
          served = replay.server.range_query_served(trace.boxes[slot]);
        }
        record(t0);
        const ScopedSpan check(log, "bench.check", root.id(), request);
        same = served.result.ids == replay.reference_for(served.epoch).ids[slot];
      }
      if (same) {
        ++out.outcomes.succeeded;
      } else {
        ++out.outcomes.failed;
        ++out.outcomes.wrong;
        replay.report.note("wrong answer to trace query " + std::to_string(q));
      }
    } catch (const sfc::ServeError& e) {
      // Typed admission failure: counted, never dropped.
      ++out.outcomes.failed;
      replay.report.note(std::string("serve error: ") + e.what());
    } catch (const std::exception& e) {
      // Anything else (an engine error, an answer from an unknown epoch) is
      // a bug, not shed load: it fails the run's correctness too.
      ++out.outcomes.failed;
      ++out.outcomes.wrong;
      replay.report.note(std::string("untyped error: ") + e.what());
    }
  }
}

/// `clients` closed-loop clients, each starting at its own offset into the
/// trace, for `seconds`.
PhaseResult run_phase(Replay& replay, unsigned clients, double seconds,
                      SpanSink* sink) {
  std::vector<PhaseResult> parts(clients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  const auto deadline = after_seconds(seconds);
  for (unsigned c = 0; c < clients; ++c) {
    const std::size_t start = replay.trace.size() * c / clients;
    threads.emplace_back([&, c, start] {
      client_loop(replay, start, t0, deadline, sink, parts[c]);
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult merged;
  merged.wall_s = us_since(t0) / 1e6;
  std::vector<std::pair<double, double>> done_lat;
  for (auto& p : parts) {
    for (std::size_t i = 0; i < p.lat_us.size(); ++i) {
      done_lat.emplace_back(p.done_s[i], p.lat_us[i]);
    }
    merged.outcomes.add(p.outcomes);
  }
  std::sort(done_lat.begin(), done_lat.end());
  for (const auto& [done, lat] : done_lat) {
    merged.done_s.push_back(done);
    merged.lat_us.push_back(lat);
  }
  replay.report.count(merged.outcomes);
  return merged;
}

/// Server health once every admitted query has been recorded (the
/// dispatcher records a batch just after fulfilling its futures).
sfc::ServerHealth drained_health(const sfc::IndexServer& server) {
  for (int i = 0; i < 2000; ++i) {
    sfc::ServerHealth h = server.health();
    if (h.queue_depth == 0 && h.accepted == h.executed + h.timed_out) return h;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return server.health();
}

LatencyBudget budget_between(const PhaseResult& phase,
                             const sfc::ServerHealth& before,
                             const sfc::ServerHealth& after) {
  LatencyBudget b;
  b.client_mean_us = mean(phase.lat_us);
  b.queue_wait_mean_us = histogram_delta_mean_us(
      before.queue_wait_latency.sum_ns, before.queue_wait_latency.count,
      after.queue_wait_latency.sum_ns, after.queue_wait_latency.count);
  b.execute_mean_us = histogram_delta_mean_us(
      before.execute_latency.sum_ns, before.execute_latency.count,
      after.execute_latency.sum_ns, after.execute_latency.count);
  return b;
}

void say_phase(const std::string& prefix, const PhaseResult& p) {
  const std::string n = "n=" + std::to_string(p.lat_us.size());
  say(prefix + "_p50_us", p.p50(), "us", n);
  say(prefix + "_p90_us", p.tail(0.90), "us", n + ", median of per-block p90");
  say(prefix + "_p99_us", p.tail(0.99), "us", n + ", median of per-block p99");
  say(prefix + "_qps", p.qps(), "queries/s");
}

// ---------------------------------------------------------------------------
// Set-up and per-layer probes shared by the serving workloads
// ---------------------------------------------------------------------------

struct ServeSetup {
  std::unique_ptr<sfc::IndexServer> server;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> write_ms;
};

sfc::ServerOptions server_options() {
  sfc::ServerOptions options;
  options.shard_bits = 4;
  return options;
}

/// build -> write -> open/verify/prefault + server start, kSetupReps times;
/// the last server is kept.
ServeSetup set_up_server(const sfc::SpaceFillingCurve& curve,
                         const sfc::CurveDescriptor& desc,
                         const std::vector<sfc::Point>& points,
                         const std::string& path, SpanLog* log) {
  ServeSetup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.server.reset();
    const std::uint64_t request = log != nullptr ? log->sink().next_request() : 0;
    const ScopedSpan root(log, "setup", 0, request);
    const auto t0 = Clock::now();
    std::optional<sfc::PointIndex> index;
    s.build_ms.push_back(timed_ms(log, "index.build", root.id(), request, [&] {
      index.emplace(sfc::PointIndex::build(curve, points));
    }));
    s.write_ms.push_back(timed_ms(log, "store.write", root.id(), request, [&] {
      sfc::write_index_file(path, *index, desc);
    }));
    index.reset();
    timed_ms(log, "serve.open", root.id(), request, [&] {
      s.server = std::make_unique<sfc::IndexServer>(path, server_options());
    });
    s.setup_s.push_back(us_since(t0) / 1e6);
  }
  return s;
}

/// curves / sort / store probes over the workload's points and index file.
void probe_build_layers(const sfc::SpaceFillingCurve& curve,
                        const std::vector<sfc::Point>& points,
                        const std::string& path, Report& r, SpanLog* log) {
  std::vector<sfc::index_t> keys(points.size());
  const double encode_ms = median_ms(log, "curves.index_of_batch", [&] {
    curve.index_of_batch(points, keys);
  });
  r.set("curves.encode_ns_per_point",
        encode_ms * 1e6 / static_cast<double>(points.size()));
  std::vector<sfc::index_t> scratch;
  std::vector<double> sort_ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    scratch = keys;
    sort_ms.push_back(timed_ms(log, "sort.radix_sort_keys", 0, 0, [&] {
      sfc::radix_sort_keys(std::span<sfc::index_t>(scratch));
    }));
  }
  r.set("sort.sort_ms", median(sort_ms));
  r.check(std::is_sorted(scratch.begin(), scratch.end()), "radix sort output sorted");
  if (path.empty()) return;

  std::optional<sfc::MappedIndex> mapped;
  r.set("store.open_ms", median_ms(log, "store.open", [&] {
          mapped.reset();
          mapped.emplace(sfc::MappedIndex::open(path));
        }));
  std::uint32_t bad_columns = 0;
  r.set("store.verify_ms", median_ms(log, "store.verify_column_checksums", [&] {
          bad_columns |= mapped->verify_column_checksums();
        }));
  r.check(bad_columns == 0, "column checksums of " + path);
  r.set("store.bytes_per_row", static_cast<double>(mapped->file_bytes()) /
                                   static_cast<double>(mapped->row_count()));
}

/// Index, cover and fan-out probes: one query at a time through each layer
/// on the generation's base view and its sharded view (executors on a
/// 1-thread pool), over the first kProbeQueries queries of each kind.  Two
/// passes; the second is the one timed.  Every answer is checked.
void probe_query_layers(const sfc::IndexGeneration& gen, const Trace& trace,
                        const Reference& ref, Report& r, SpanLog* log) {
  sfc::ThreadPool one_thread(1);
  sfc::MultiQueryOptions serial;
  serial.pool = &one_thread;
  const sfc::ShardedIndex& sharded = gen.sharded();
  const sfc::IndexColumnsView base = sharded.base();
  const sfc::RangeCoverEngine cover(base.curve());
  sfc::CoverWorkspace ws;
  sfc::RangeScanEngine scan(base);
  sfc::KnnEngine knn(base);
  const std::size_t n_boxes = std::min(kProbeQueries, trace.boxes.size());
  const std::size_t n_knn = std::min(kProbeQueries, trace.knn_points.size());
  auto next_request = [&] {
    return log != nullptr ? log->sink().next_request() : 0;
  };

  struct RangeTotals {
    double cover_us = 0, scan_us = 0, exec_us = 0, fanout_us = 0;
    std::uint64_t nodes = 0, runs = 0, rows = 0, runs_in_cover = 0,
                  runs_touched = 0, sharded_nodes = 0;
  } rt;
  struct KnnTotals {
    double query_us = 0, exec_us = 0, fanout_us = 0;
    std::uint64_t rows = 0, nodes = 0, sharded_nodes = 0;
  } kt;
  for (int pass = 0; pass < 2; ++pass) {
    rt = RangeTotals{};
    kt = KnnTotals{};
    for (std::size_t i = 0; i < n_boxes; ++i) {
      const sfc::Box& box = trace.boxes[i];
      const std::uint64_t request = next_request();
      const ScopedSpan root(log, "probe.range", 0, request);
      sfc::CoverStats cs;
      rt.cover_us += 1000.0 * timed_ms(log, "ranges.cover", root.id(), request, [&] {
        rt.runs += cover.cover(box, ws, &cs).size();
      });
      rt.nodes += cs.nodes_visited;
      std::vector<std::uint32_t> ids;
      sfc::RangeScanStats st;
      rt.scan_us += 1000.0 * timed_ms(log, "index.scan", root.id(), request, [&] {
        scan.scan(box, &ids, &st);
      });
      rt.rows += st.rows_returned;
      rt.runs_in_cover += st.runs_in_cover;
      rt.runs_touched += st.runs_touched;
      std::vector<sfc::RangeQueryResult> plain, fan;
      rt.exec_us += 1000.0 * timed_ms(log, "index.run_range_queries", root.id(), request, [&] {
        plain = sfc::run_range_queries(base, std::span(&box, 1), serial);
      });
      rt.fanout_us += 1000.0 * timed_ms(log, "serve.sharded_range", root.id(), request, [&] {
        fan = sfc::run_range_queries(sharded, std::span(&box, 1), serial);
      });
      rt.sharded_nodes += fan[0].stats.nodes_visited;
      if (pass == 1) {
        r.check(ids == ref.ids[i] && plain[0].ids == ref.ids[i] &&
                    fan[0].ids == ref.ids[i],
                "probe range answers, box " + std::to_string(i));
      }
    }
    for (std::size_t i = 0; i < n_knn; ++i) {
      const sfc::Point& p = trace.knn_points[i];
      const std::uint64_t request = next_request();
      const ScopedSpan root(log, "probe.knn", 0, request);
      sfc::KnnStats st;
      std::vector<sfc::KnnNeighbor> nn;
      kt.query_us += 1000.0 * timed_ms(log, "index.knn", root.id(), request, [&] {
        nn = knn.query(p, kKnnK, &st);
      });
      kt.rows += st.rows_scanned;
      kt.nodes += st.nodes_expanded;
      std::vector<sfc::KnnQueryResult> plain, fan;
      kt.exec_us += 1000.0 * timed_ms(log, "index.run_knn_queries", root.id(), request, [&] {
        plain = sfc::run_knn_queries(base, std::span(&p, 1), kKnnK, serial);
      });
      kt.fanout_us += 1000.0 * timed_ms(log, "serve.sharded_knn", root.id(), request, [&] {
        fan = sfc::run_knn_queries(sharded, std::span(&p, 1), kKnnK, serial);
      });
      kt.sharded_nodes += fan[0].stats.nodes_expanded;
      if (pass == 1) {
        r.check(nn == ref.neighbors[i] && plain[0].neighbors == ref.neighbors[i] &&
                    fan[0].neighbors == ref.neighbors[i],
                "probe knn answers, query " + std::to_string(i));
      }
    }
  }
  auto per = [](double total, std::size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  auto per_count = [&](std::uint64_t total, std::size_t n) {
    return per(static_cast<double>(total), n);
  };
  r.set("ranges.cover_us.mean", per(rt.cover_us, n_boxes));
  r.set("ranges.nodes_per_box", per_count(rt.nodes, n_boxes));
  r.set("ranges.runs_per_box", per_count(rt.runs, n_boxes));
  r.set("index.scan_us.mean", per(rt.scan_us, n_boxes));
  r.set("index.range_exec_us.mean", per(rt.exec_us, n_boxes));
  r.set("index.rows_returned_per_range", per_count(rt.rows, n_boxes));
  r.set("index.runs_touched_ratio",
        rt.runs_in_cover == 0 ? 0.0
                              : static_cast<double>(rt.runs_touched) /
                                    static_cast<double>(rt.runs_in_cover));
  r.set("serve.fanout_us.range", per(rt.fanout_us, n_boxes));
  r.set("serve.fanout_x.range", rt.exec_us > 0 ? rt.fanout_us / rt.exec_us : 0.0);
  r.set("serve.cover_nodes_per_range", per_count(rt.sharded_nodes, n_boxes));
  r.set("index.knn_us.mean", per(kt.query_us, n_knn));
  r.set("index.knn_rows_per_query", per_count(kt.rows, n_knn));
  r.set("index.knn_nodes_per_query", per_count(kt.nodes, n_knn));
  r.set("serve.fanout_us.knn", per(kt.fanout_us, n_knn));
  r.set("serve.fanout_x.knn", kt.exec_us > 0 ? kt.fanout_us / kt.exec_us : 0.0);
  r.set("serve.knn_nodes_per_query", per_count(kt.sharded_nodes, n_knn));
  std::printf("probe unsharded knn executor: %.3f us/query over %zu queries\n",
              per(kt.exec_us, n_knn), n_knn);
}

/// Queries per dispatched batch between two admission-counter snapshots.
double queries_per_batch(const sfc::ServerStats& s0, const sfc::ServerStats& s1) {
  const std::uint64_t batches = s1.batches_dispatched - s0.batches_dispatched;
  if (batches == 0) return 0.0;
  return static_cast<double>(s1.queries_admitted - s0.queries_admitted) /
         static_cast<double>(batches);
}

/// serve.* latency budget of a traced phase from the server's histograms.
void report_serve_budget(const PhaseResult& phase, const sfc::ServerHealth& h0,
                         const sfc::ServerHealth& h1, Report& r) {
  const LatencyBudget b = budget_between(phase, h0, h1);
  r.set("serve.queue_wait_us.mean", b.queue_wait_mean_us);
  r.set("serve.execute_us.mean", b.execute_mean_us);
  r.set("serve.unattributed_us.mean", b.unattributed_us());
  std::printf(
      "budget: client mean %.2f us = queue wait %.2f + execute %.2f + "
      "unattributed %.2f (%.1f%%)\n",
      b.client_mean_us, b.queue_wait_mean_us, b.execute_mean_us,
      b.unattributed_us(), b.unattributed_pct());
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// mixed_dense / range_sparse: closed-loop replay at 1 client and at 3.
void run_serve(const Args& args, const ServeSpec& spec, Report& r, SpanSink* sink) {
  const sfc::CurveDescriptor desc = descriptor("hilbert", spec.bits);
  const sfc::CurvePtr curve = sfc::make_curve(desc);
  const std::vector<sfc::Point> points =
      uniform_points(args.seed, 1, desc.side, kPointCount);
  const Trace trace = make_trace(args.seed, spec);
  const std::string path = args.out_dir + "/" + args.workload + ".idx";

  std::optional<SpanLog> main_log;
  if (sink != nullptr) main_log.emplace(*sink);
  SpanLog* log = main_log ? &*main_log : nullptr;

  ServeSetup setup = set_up_server(*curve, desc, points, path, log);
  sfc::IndexServer& server = *setup.server;
  r.set("setup_s", median(setup.setup_s));
  r.set("index.build_ms", median(setup.build_ms));
  r.set("store.write_ms", median(setup.write_ms));
  const auto gen = server.generation();
  const Reference ref = compute_reference(gen->sharded().base(), trace);
  Replay replay{server, trace, [&](std::uint64_t) -> const Reference& { return ref; }, r};

  run_phase(replay, kClients, kWarmupSeconds, nullptr);
  run_phase(replay, 1, kWarmupSeconds / 2, nullptr);

  PhaseResult c1, c3;
  if (!args.trace) {
    // Alternate the two client levels in slices, so slow drift in the
    // machine's speed over the run reaches both alike.
    for (int slice = 0; slice < kSlices; ++slice) {
      c1.append(run_phase(replay, 1, args.seconds / (2 * kSlices), nullptr));
      c3.append(run_phase(replay, kClients, args.seconds / (2 * kSlices), nullptr));
    }
  } else {
    const PhaseResult c1_plain = run_phase(replay, 1, args.seconds / 4, nullptr);
    const sfc::ServerHealth h0 = drained_health(server);
    c1 = run_phase(replay, 1, args.seconds / 4, sink);
    const sfc::ServerHealth h1 = drained_health(server);
    const sfc::ServerStats s1 = server.stats();
    c3 = run_phase(replay, kClients, args.seconds / 2, sink);
    drained_health(server);
    report_serve_budget(c1, h0, h1, r);
    r.set("serve.rows_per_batch", queries_per_batch(s1, server.stats()));
    r.set("serve.client_p99_us.c3", c3.tail(0.99));
    r.set("bench.trace_overhead_pct", change_pct(mean(c1_plain.lat_us), mean(c1.lat_us)));
    probe_query_layers(*gen, trace, ref, r, log);
    probe_build_layers(*curve, points, path, r, log);
  }
  say_phase("c1", c1);
  say_phase("c3", c3);
  r.set("p50_us", c1.p50());
  r.set("tail_us", c1.tail(0.90));
  r.set("throughput_per_s", c3.qps());
  server.stop();
}

struct RefreshTotals {
  std::vector<double> cycle_ms, build_ms, write_ms, reload_ms;
};

/// refresh: 3 readers replay the mixed_dense trace while one writer cycles
/// build -> write -> reload, alternating datasets A and B.
void run_refresh(const Args& args, Report& r, SpanSink* sink) {
  const ServeSpec& spec = kMixedDense;
  const sfc::CurveDescriptor desc = descriptor("hilbert", spec.bits);
  const sfc::CurvePtr curve = sfc::make_curve(desc);
  const std::array<std::vector<sfc::Point>, 2> points = {
      uniform_points(args.seed, 1, desc.side, kPointCount),
      uniform_points(args.seed, 2, desc.side, kPointCount)};
  const Trace trace = make_trace(args.seed, spec);
  const std::array<std::string, 2> paths = {args.out_dir + "/refresh-a.idx",
                                            args.out_dir + "/refresh-b.idx"};

  std::optional<SpanLog> main_log;
  if (sink != nullptr) main_log.emplace(*sink);
  SpanLog* log = main_log ? &*main_log : nullptr;

  ServeSetup setup = set_up_server(*curve, desc, points[0], paths[0], log);
  sfc::IndexServer& server = *setup.server;
  r.set("setup_s", median(setup.setup_s));
  r.set("index.build_ms", median(setup.build_ms));
  r.set("store.write_ms", median(setup.write_ms));

  std::array<Reference, 2> refs;
  refs[0] = compute_reference(server.generation()->sharded().base(), trace);
  {
    const sfc::PointIndex b = sfc::PointIndex::build(*curve, points[1]);
    refs[1] = compute_reference(b.view(), trace);
  }
  EpochTable epochs;
  epochs.publish(server.generation()->epoch(), 0);
  Replay replay{server, trace,
                [&](std::uint64_t epoch) -> const Reference& {
                  return refs[static_cast<std::size_t>(epochs.dataset_of(epoch))];
                },
                r};
  run_phase(replay, kClients, kWarmupSeconds, nullptr);

  int next_dataset = 1;
  RefreshTotals totals;
  auto refresh_phase = [&](double seconds, SpanSink* phase_sink) {
    const auto deadline = after_seconds(seconds);
    std::thread writer([&] {
      std::optional<SpanLog> owned;
      if (phase_sink != nullptr) owned.emplace(*phase_sink);
      SpanLog* wlog = owned ? &*owned : nullptr;
      Outcomes o;
      while (Clock::now() < deadline) {
        const int ds = next_dataset;
        next_dataset ^= 1;
        const auto idx = static_cast<std::size_t>(ds);
        const std::uint64_t request =
            phase_sink != nullptr ? phase_sink->next_request() : 0;
        const ScopedSpan root(wlog, "refresh.cycle", 0, request);
        ++o.attempted;
        try {
          const auto t0 = Clock::now();
          std::optional<sfc::PointIndex> index;
          const double build = timed_ms(wlog, "index.build", root.id(), request, [&] {
            index.emplace(sfc::PointIndex::build(*curve, points[idx]));
          });
          const double write = timed_ms(wlog, "store.write", root.id(), request, [&] {
            sfc::write_index_file(paths[idx], *index, desc);
          });
          index.reset();
          std::uint64_t epoch = 0;
          const double reload = timed_ms(wlog, "serve.reload", root.id(), request, [&] {
            epoch = server.reload(paths[idx]);
          });
          epochs.publish(epoch, ds);
          totals.cycle_ms.push_back(ms_since(t0));
          totals.build_ms.push_back(build);
          totals.write_ms.push_back(write);
          totals.reload_ms.push_back(reload);
          ++o.succeeded;
        } catch (const std::exception& e) {
          ++o.failed;
          r.note(std::string("refresh cycle failed: ") + e.what());
        }
      }
      r.count(o);
    });
    PhaseResult readers = run_phase(replay, kClients, seconds, phase_sink);
    writer.join();
    return readers;
  };

  PhaseResult c3;
  if (!args.trace) {
    c3 = refresh_phase(args.seconds, nullptr);
  } else {
    const PhaseResult plain = refresh_phase(args.seconds / 2, nullptr);
    const sfc::ServerHealth h0 = drained_health(server);
    const sfc::ServerStats s0 = server.stats();
    c3 = refresh_phase(args.seconds / 2, sink);
    const sfc::ServerHealth h1 = drained_health(server);
    const sfc::ServerStats s1 = server.stats();
    report_serve_budget(c3, h0, h1, r);
    r.set("serve.rows_per_batch", queries_per_batch(s0, s1));
    r.set("serve.client_p99_us.c3", c3.tail(0.99));
    r.set("serve.reload_ms.p50", median(totals.reload_ms));
    r.set("bench.trace_overhead_pct", change_pct(mean(plain.lat_us), mean(c3.lat_us)));
    // Probe dataset A's file, not whichever dataset the writer left active,
    // so the exact counts repeat for a seed.  The writer has stopped; the
    // file holds the same index the set-up wrote.
    const auto a = sfc::IndexGeneration::open(paths[0], server_options().shard_bits,
                                              0, false);
    probe_query_layers(*a, trace, refs[0], r, log);
    probe_build_layers(*curve, points[0], paths[0], r, log);
  }
  r.check(!totals.cycle_ms.empty(), "at least one refresh cycle completed");
  say_phase("c3", c3);
  say("refresh_p50_ms", median(totals.cycle_ms), "ms",
      "cycles=" + std::to_string(totals.cycle_ms.size()) + " build " +
          std::to_string(median(totals.build_ms)) + " write " +
          std::to_string(median(totals.write_ms)) + " reload " +
          std::to_string(median(totals.reload_ms)));
  r.set("p50_us", c3.p50());
  r.set("tail_us", c3.tail(0.90));
  r.set("throughput_per_s", c3.qps());
  server.stop();
}

/// One stretch report: compute_nn_stretch + compute_lambda, checked against
/// each other and the paper's bounds.  Returns {stretch ms, lambda ms}.
std::pair<double, double> stretch_report(const sfc::SpaceFillingCurve& curve,
                                         bool z_anchor, Report& r, SpanLog* log,
                                         std::uint64_t request) {
  const ScopedSpan root(log, z_anchor ? "report.z" : "report.hilbert", 0, request);
  sfc::NNStretchResult s;
  const double stretch_ms = timed_ms(log, "core.compute_nn_stretch", root.id(), request,
                                     [&] { s = sfc::compute_nn_stretch(curve); });
  std::array<sfc::u128, sfc::kMaxDim> lambda{};
  const double lambda_ms = timed_ms(log, "metrics.compute_lambda", root.id(), request,
                                    [&] { lambda = sfc::compute_lambda(curve); });
  const ScopedSpan check(log, "bench.check", root.id(), request);
  const std::string name = curve.name();
  const int dim = curve.universe().dim();
  bool lambda_same = true;
  for (int i = 0; i < dim; ++i) {
    const auto c = static_cast<std::size_t>(i);
    lambda_same = lambda_same && lambda[c] == s.lambda[c];
    if (z_anchor) {
      r.check(lambda[c] == sfc::bounds::lambda_z_exact(dim, kStretchBits, i + 1),
              "Z lambda_" + std::to_string(i + 1) + " == lambda_z_exact");
    }
  }
  r.check(lambda_same, name + ": compute_lambda == NNStretchResult::lambda");
  r.check(s.average_average >= sfc::bounds::davg_lower_bound(curve.universe()),
          name + ": Davg >= Theorem 1 lower bound");
  return {stretch_ms, lambda_ms};
}

/// stretch_report: the paper's computation on a 2-d Hilbert curve at side
/// 2^12, with a 2-d Z curve at the same side as the correctness anchor.
void run_stretch(const Args& args, Report& r, SpanSink* sink) {
  std::optional<SpanLog> main_log;
  if (sink != nullptr) main_log.emplace(*sink);
  SpanLog* log = main_log ? &*main_log : nullptr;
  auto next_request = [&] { return sink != nullptr ? sink->next_request() : 0; };

  // Set-up: construct both curves and pass the Z anchor (exact Lemma 5
  // closed form and the Theorem 1 bound) before any Hilbert number counts.
  sfc::CurvePtr hilbert;
  std::vector<double> setup_s, z_stretch_ms, z_lambda_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    hilbert = sfc::make_curve(descriptor("hilbert", kStretchBits));
    const sfc::CurvePtr z = sfc::make_curve(descriptor("z", kStretchBits));
    const auto [zs, zl] = stretch_report(*z, true, r, log, next_request());
    setup_s.push_back(us_since(t0) / 1e6);
    z_stretch_ms.push_back(zs);
    z_lambda_ms.push_back(zl);
  }
  r.set("setup_s", median(setup_s));

  stretch_report(*hilbert, false, r, nullptr, 0);  // warm-up, untimed

  const double cells = static_cast<double>(hilbert->universe().cell_count());
  auto measure = [&](double seconds, SpanLog* phase_log) {
    std::vector<double> stretch_ms, lambda_ms, report_us;
    const auto deadline = after_seconds(seconds);
    do {
      const auto [s, l] = stretch_report(*hilbert, false, r, phase_log,
                                         phase_log != nullptr ? next_request() : 0);
      stretch_ms.push_back(s);
      lambda_ms.push_back(l);
      report_us.push_back((s + l) * 1000.0);
    } while (Clock::now() < deadline);
    return std::array<std::vector<double>, 3>{stretch_ms, lambda_ms, report_us};
  };
  std::array<std::vector<double>, 3> m;
  if (!args.trace) {
    m = measure(args.seconds, nullptr);
  } else {
    const auto plain = measure(args.seconds / 2, nullptr);
    m = measure(args.seconds / 2, log);
    r.set("bench.trace_overhead_pct", change_pct(mean(plain[2]), mean(m[2])));
    r.set("core.stretch_ms.hilbert", median(m[0]));
    r.set("metrics.lambda_ms.hilbert", median(m[1]));
    r.set("core.stretch_ms.z", median(z_stretch_ms));
    r.set("metrics.lambda_ms.z", median(z_lambda_ms));
    // Encode / sort probes over 1M uniformly sampled grid cells.
    probe_build_layers(*hilbert,
                       uniform_points(args.seed, 3, hilbert->universe().side(),
                                      kPointCount),
                       "", r, log);
  }
  const double stretch_mcells = cells / (median(m[0]) * 1000.0);
  const double lambda_mcells = cells / (median(m[1]) * 1000.0);
  const std::string n = "n=" + std::to_string(m[0].size());
  say("stretch_mcells_per_s", stretch_mcells, "Mcells/s", n);
  say("lambda_mcells_per_s", lambda_mcells, "Mcells/s", n);
  say("z_stretch_ms", median(z_stretch_ms), "ms");
  say("z_lambda_ms", median(z_lambda_ms), "ms");
  r.set("p50_us", median(m[2]));
  r.set("tail_us", nearest_rank(m[2], 0.9));
  double total_us = 0.0;
  for (const double us : m[2]) total_us += us;
  r.set("throughput_per_s", 2.0 * cells * static_cast<double>(m[2].size()) /
                                (total_us / 1e6));
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

int usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: sfc_perfbench --workload "
               "{mixed_dense|range_sparse|refresh|stretch_report} --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               error.c_str());
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv, std::string* error) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else {
        *error = "unknown flag " + flag;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + flag + ": " + value;
      return std::nullopt;
    }
  }
  if (!(a.seconds > 0.0)) {
    *error = "--seconds must be positive";
    return std::nullopt;
  }
  return a;
}

void print_json(const Args& args, const Report& r) {
  const Outcomes& o = r.outcomes();
  const bool correct = o.wrong == 0 && o.balanced();
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
       << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& m) {
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << r.get(m.name) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int run(int argc, char** argv) {
  std::string error;
  const std::optional<Args> parsed = parse_args(argc, argv, &error);
  if (!parsed) return usage(error);
  const Args& args = *parsed;
  std::filesystem::create_directories(args.out_dir);

  Report report;
  std::optional<SpanSink> sink;
  if (args.trace) sink.emplace();
  SpanSink* sink_ptr = sink ? &*sink : nullptr;
  std::printf("workload %s seed %llu seconds %.3f trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  warm_cpus(kWarmCpuSeconds);
  if (args.workload == "mixed_dense") {
    run_serve(args, kMixedDense, report, sink_ptr);
  } else if (args.workload == "range_sparse") {
    run_serve(args, kRangeSparse, report, sink_ptr);
  } else if (args.workload == "refresh") {
    run_refresh(args, report, sink_ptr);
  } else if (args.workload == "stretch_report") {
    run_stretch(args, report, sink_ptr);
  } else {
    return usage("unknown workload " + args.workload);
  }
  report.set("peak_rss_mb", peak_rss_mb());
  // The index files are only a means of set-up; remove them so repeated runs
  // do not leave ~50 MB each behind.
  std::vector<std::filesystem::path> index_files;
  for (const auto& entry : std::filesystem::directory_iterator(args.out_dir)) {
    if (entry.path().extension() == ".idx") index_files.push_back(entry.path());
  }
  for (const auto& path : index_files) std::filesystem::remove(path);

  const Outcomes& o = report.outcomes();
  say("setup_s", report.get("setup_s"), "s");
  say("peak_rss_mb", report.get("peak_rss_mb"), "MB");
  say("fail_ratio", fail_ratio(o), "failed/attempted",
      "attempted=" + std::to_string(o.attempted) + " succeeded=" +
          std::to_string(o.succeeded) + " failed=" + std::to_string(o.failed) +
          " wrong=" + std::to_string(o.wrong));
  for (const std::string& note : report.notes()) std::printf("failure: %s\n", note.c_str());
  if (report.notes_seen() > report.notes().size()) {
    std::printf("failure: ... %llu more\n",
                static_cast<unsigned long long>(report.notes_seen() - report.notes().size()));
  }
  if (sink) {
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!sink->write_jsonl(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", sink->size(), path.c_str());
    for (const auto& [name, s] : sink->summarize()) {
      std::printf("span %-32s count %8llu total %12.3f ms self %12.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_ms, s.self_ms);
    }
    for (const MetricSpec& m : kPerLayer) say(m.name, report.get(m.name), m.unit);
  }
  std::fflush(stdout);
  print_json(args, report);
  return o.wrong == 0 && o.balanced() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
