// Shared plumbing of the benchmark program: command-line arguments, the
// seeded query generator, latency statistics, the result line, host
// calibration, process memory, and small helpers over the metric registry.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/prq.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "workload/generators.h"

namespace perfbench {

namespace la = gprq::la;

using Clock = std::chrono::steady_clock;

/// Seconds since the benchmark process started (a static initialised before
/// main), the origin of every setup_s figure.
double SecondsSinceStart();
double SecondsBetween(Clock::time_point from, Clock::time_point to);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's files; created, and removed at exit.
  std::string work_dir;
  /// The gprq_server binary (wire_loopback only).
  std::string server_bin;
};

/// The run's outcome: what the last stdout line reports.
class Report {
 public:
  void SetAttempted(uint64_t attempted, uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  /// Records a failed correctness check; the run then reports correct=false.
  void Fail(const std::string& what);
  /// Prints an informational line for a passed check.
  void Pass(const std::string& what);
  bool correct() const { return failures_ == 0; }

  void Metric(const std::string& name, double value, const std::string& unit);

  /// Prints the single JSON result line.
  void Print() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int failures_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Quantile q ∈ [0, 1] of `values` by linear interpolation between order
/// statistics (numpy's default). Copies; 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// One completed operation of a timed phase: when it finished (or, in an
/// open loop, when it was due), in seconds from the phase start, and its
/// latency.
struct Completion {
  double at_s = 0.0;
  double latency_ms = 0.0;
};

/// A timed phase summarised over equal time windows: each figure is the
/// median of its per-window values, so outside load that spoils a minority
/// of the windows does not move it.
struct WindowStats {
  double throughput = 0.0;  // completions per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t windows = 0;
  size_t fewest_in_a_window = 0;
  // The per-window figures the medians are taken over, in time order.
  std::vector<double> window_throughput, window_p50_ms;
};
WindowStats SummariseWindows(const std::vector<Completion>& done,
                             double phase_seconds, size_t windows);
void PrintWindows(const char* what, const WindowStats& stats);

/// Peak resident set (VmHWM) of a process in MB; `pid` 0 means this one.
double PeakRssMb(pid_t pid = 0);

/// A fixed single-thread spin loop and the dispatched Phase-3 count kernel
/// timed alone on a fixed pool. Printed next to every result; the kernel
/// rate doubles as the mc.kernel_ceiling_samples_per_s layer figure.
struct Calibration {
  double spin_ns_per_iter = 0.0;
  std::string kernel;
  double kernel_samples_per_s = 0.0;
};
Calibration MeasureCalibration();
void PrintCalibration(const Calibration& calibration);

// ---------------------------------------------------------------------------
// The paper-shaped query generator shared by inmem_mc and wire_loopback.

/// Query classes are (γ, θ) pairs drawn with fixed weights. The weights put
/// the median inside the cheapest class and the 99th percentile well
/// inside the most expensive one, so neither percentile rides a boundary
/// between classes whose costs differ by an order of magnitude.
struct QueryClass {
  double gamma;
  double theta;
  double weight;
};

/// A seeded query stream over a point set: centers are dataset points
/// (picked uniformly) plus a small Gaussian jitter, so no two queries of a
/// stream share a fingerprint. Query i is a pure function of (seed, i).
class QueryStream {
 public:
  using PointAt = std::function<la::Vector(uint64_t)>;

  QueryStream(uint64_t num_points, PointAt point_at, uint64_t seed,
              double delta, double jitter, std::vector<QueryClass> classes);

  gprq::core::PrqQuery Make(uint64_t index) const;
  /// The class index query `index` was drawn from.
  size_t ClassOf(uint64_t index) const;
  const std::vector<QueryClass>& classes() const { return classes_; }

 private:
  uint64_t num_points_;
  PointAt point_at_;
  uint64_t seed_;
  double delta_;
  double jitter_;
  std::vector<QueryClass> classes_;
  double total_weight_ = 0.0;
};

/// The inmem_mc / wire_loopback stream over the synthetic TIGER dataset:
/// δ = 25 and the paper's covariance Σ = γ·[[7, 2√3], [2√3, 3]].
QueryStream PaperStream(const std::vector<la::Vector>* points, uint64_t seed);

/// Prints each query class's share and latency quartiles (one line each).
void PrintClassLatencies(const QueryStream& stream,
                         const std::vector<std::vector<double>>& class_ms);

/// Monte-Carlo sample budget of the paper-shaped workloads.
inline constexpr uint64_t kPaperSamples = 10000;

/// Stream indices used only by warm-up queries, far beyond any timed
/// phase's reach, so warm-up never repeats a timed query.
inline constexpr uint64_t kWarmupBase = 1ull << 40;

/// Seeded indices of the queries whose answers the checks examine: `count`
/// distinct indices in [0, limit), a pure function of the seed.
std::vector<uint64_t> CheckedIndices(uint64_t seed, uint64_t limit,
                                     size_t count);

/// Mixes (seed, stream, index) into one RNG seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index);

// ---------------------------------------------------------------------------
// Registry helpers. The benchmark resets the global registry right before a
// timed phase, so a value read afterwards is that phase's delta.

uint64_t CounterValue(const char* name);
gprq::obs::HistogramSnapshot HistogramValue(const char* name);
double Ratio(double numerator, double denominator);

/// Per-query filter-phase and Phase-3 timings and counts collected from
/// PrqStats, summarised into the core/index/mc layer metrics.
struct PhaseLog {
  std::vector<double> prep_us, phase1_us, phase2_us, phase3_ms;
  std::vector<double> overhead_us;  // call wall time minus the timed phases
  double index_candidates = 0, survivors = 0, accepted = 0, node_reads = 0;
  uint64_t queries = 0;

  void Add(const gprq::core::PrqStats& stats, double wall_seconds);
};

/// The full per-layer metric list, with every metric a workload does not
/// exercise reported as 0 (the layer is flat there).
struct LayerMetrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;

  void Set(const std::string& name, double value);
  /// Fills the core/index/mc/exec metrics shared by the in-process
  /// workloads from `log` and the registry (reset at phase start).
  void FillFromPhases(const PhaseLog& log);
  void WriteTo(Report* report) const;
};
LayerMetrics EmptyLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
