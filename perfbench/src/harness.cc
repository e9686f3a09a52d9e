#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/gaussian.h"
#include "mc/sample_pool.h"
#include "mc/simd/kernels.h"

namespace perfbench {

namespace core = gprq::core;
namespace la = gprq::la;
namespace obs = gprq::obs;

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

double SecondsSinceStart() {
  return SecondsBetween(kProcessStart, Clock::now());
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------

void Report::Fail(const std::string& what) {
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  std::printf("check FAILED: %s\n", what.c_str());
}

void Report::Pass(const std::string& what) {
  std::printf("check ok: %s\n", what.c_str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Print() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].second.first)
                         ? metrics_[i].second.first
                         : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * fraction;
}

WindowStats SummariseWindows(const std::vector<Completion>& done,
                             double phase_seconds, size_t windows) {
  WindowStats out;
  out.windows = windows;
  const double width = phase_seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> latency(windows);
  for (const Completion& c : done) {
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(std::max(0.0, c.at_s) / width));
    latency[w].push_back(c.latency_ms);
  }
  std::vector<double> throughput, p50, p99;
  out.fewest_in_a_window = done.size();
  for (const std::vector<double>& window : latency) {
    out.fewest_in_a_window = std::min(out.fewest_in_a_window, window.size());
    throughput.push_back(static_cast<double>(window.size()) / width);
    p50.push_back(Quantile(window, 0.50));
    p99.push_back(Quantile(window, 0.99));
  }
  out.throughput = Quantile(throughput, 0.5);
  out.p50_ms = Quantile(p50, 0.5);
  out.p99_ms = Quantile(p99, 0.5);
  out.window_throughput = std::move(throughput);
  out.window_p50_ms = std::move(p50);
  return out;
}

void PrintWindows(const char* what, const WindowStats& stats) {
  std::printf("  %s: medians over %zu windows (>= %zu samples each): "
              "%.2f/s, p50 %.4f ms, p99 %.4f ms\n",
              what, stats.windows, stats.fewest_in_a_window, stats.throughput,
              stats.p50_ms, stats.p99_ms);
  std::printf("  %s windows (/s, p50 ms):", what);
  for (size_t w = 0; w < stats.window_throughput.size(); ++w) {
    std::printf(" %.0f/%.3f", stats.window_throughput[w],
                stats.window_p50_ms[w]);
  }
  std::printf("\n");
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------

Calibration MeasureCalibration() {
  Calibration out;
  // A dependent xorshift chain: one iteration per few cycles, no memory.
  constexpr uint64_t kSpin = 40'000'000;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  const Clock::time_point spin_start = Clock::now();
  for (uint64_t i = 0; i < kSpin; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double spin_seconds = SecondsBetween(spin_start, Clock::now());
  if (x == 42) std::printf("#");  // keeps the chain live
  out.spin_ns_per_iter = spin_seconds * 1e9 / static_cast<double>(kSpin);

  // The count kernel alone, single thread, over a fixed 2-D pool.
  auto query = core::GaussianDistribution::Create(
      la::Vector{500.0, 500.0}, gprq::workload::PaperCovariance2D(10.0));
  gprq::rng::Random random(2009);
  const gprq::mc::SamplePool pool(*query, 8192, random);
  const auto kernel = gprq::mc::simd::DispatchedCountKernel();
  out.kernel = gprq::mc::simd::KernelName(gprq::mc::simd::DispatchedKind());
  const double* data = pool.axis(0);
  const size_t stride = pool.size();
  uint64_t hits = 0;
  uint64_t samples = 0;
  const Clock::time_point kernel_start = Clock::now();
  double elapsed = 0.0;
  for (int round = 0; elapsed < 0.15; ++round) {
    for (int k = 0; k < 64; ++k) {
      const double object[2] = {480.0 + k * 0.5, 500.0 + round % 7};
      for (uint64_t begin = 0; begin < stride;
           begin += gprq::mc::simd::kKernelBlock) {
        const size_t len = static_cast<size_t>(std::min<uint64_t>(
            gprq::mc::simd::kKernelBlock, stride - begin));
        hits += kernel(data + begin, stride, 2, object, 625.0, len);
      }
      samples += stride;
    }
    elapsed = SecondsBetween(kernel_start, Clock::now());
  }
  if (hits == 1) std::printf("#");
  out.kernel_samples_per_s = static_cast<double>(samples) / elapsed;
  return out;
}

void PrintCalibration(const Calibration& calibration) {
  std::printf("calibration: spin_ns_per_iter=%.4f kernel=%s "
              "kernel_samples_per_s=%.4g nproc=%ld\n",
              calibration.spin_ns_per_iter, calibration.kernel.c_str(),
              calibration.kernel_samples_per_s, ::sysconf(_SC_NPROCESSORS_ONLN));
}

// ---------------------------------------------------------------------------

uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  // splitmix64 finaliser over a combination of the three words.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               index * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

QueryStream::QueryStream(uint64_t num_points, PointAt point_at, uint64_t seed,
                         double delta, double jitter,
                         std::vector<QueryClass> classes)
    : num_points_(num_points),
      point_at_(std::move(point_at)),
      seed_(seed),
      delta_(delta),
      jitter_(jitter),
      classes_(std::move(classes)) {
  for (const QueryClass& c : classes_) total_weight_ += c.weight;
}

size_t QueryStream::ClassOf(uint64_t index) const {
  gprq::rng::Random random(MixSeed(seed_, 1, index));
  double pick = random.NextDouble() * total_weight_;
  for (size_t c = 0; c < classes_.size(); ++c) {
    if (pick < classes_[c].weight) return c;
    pick -= classes_[c].weight;
  }
  return classes_.size() - 1;
}

core::PrqQuery QueryStream::Make(uint64_t index) const {
  gprq::rng::Random random(MixSeed(seed_, 2, index));
  la::Vector center = point_at_(random.NextUint64(num_points_));
  for (size_t a = 0; a < center.dim(); ++a) {
    center[a] += random.NextGaussian(0.0, jitter_);
  }
  const QueryClass& c = classes_[ClassOf(index)];
  auto gaussian = core::GaussianDistribution::Create(
      std::move(center), gprq::workload::PaperCovariance2D(c.gamma));
  return core::PrqQuery{std::move(*gaussian), delta_, c.theta};
}

QueryStream PaperStream(const std::vector<la::Vector>* points,
                        uint64_t seed) {
  // Cost grows with γ (more survivors, each integrated over the full pool)
  // and falls with θ (tighter filters). Shares: 60% cheap, 32% middle, 8%
  // expensive — p50 sits well inside the cheap class and p99 inside the
  // expensive one.
  return QueryStream(
      points->size(), [points](uint64_t i) { return (*points)[i]; }, seed,
      25.0, 2.0,
      {{1.0, 0.01, 0.30},
       {1.0, 0.10, 0.30},
       {10.0, 0.05, 0.32},
       {100.0, 0.10, 0.08}});
}

void PrintClassLatencies(const QueryStream& stream,
                         const std::vector<std::vector<double>>& class_ms) {
  size_t total = 0;
  for (const auto& ms : class_ms) total += ms.size();
  for (size_t c = 0; c < class_ms.size(); ++c) {
    const QueryClass& qc = stream.classes()[c];
    std::printf("  class gamma=%g theta=%g: share %.3f, latency ms "
                "p25/p50/p75/p99 %.3f/%.3f/%.3f/%.3f\n",
                qc.gamma, qc.theta,
                Ratio(static_cast<double>(class_ms[c].size()),
                      static_cast<double>(total)),
                Quantile(class_ms[c], 0.25), Quantile(class_ms[c], 0.5),
                Quantile(class_ms[c], 0.75), Quantile(class_ms[c], 0.99));
  }
}

std::vector<uint64_t> CheckedIndices(uint64_t seed, uint64_t limit,
                                     size_t count) {
  std::vector<uint64_t> out;
  gprq::rng::Random random(MixSeed(seed, 3, limit));
  count = std::min<size_t>(count, limit);
  while (out.size() < count) {
    const uint64_t i = random.NextUint64(limit);
    if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->Value();
}

obs::HistogramSnapshot HistogramValue(const char* name) {
  return obs::MetricRegistry::Global().GetHistogram(name)->Snapshot();
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

void PhaseLog::Add(const core::PrqStats& stats, double wall_seconds) {
  prep_us.push_back(stats.prep_seconds * 1e6);
  phase1_us.push_back(stats.phase1_seconds * 1e6);
  phase2_us.push_back(stats.phase2_seconds * 1e6);
  phase3_ms.push_back(stats.phase3_seconds * 1e3);
  overhead_us.push_back(
      std::max(0.0, wall_seconds - stats.total_seconds()) * 1e6);
  index_candidates += static_cast<double>(stats.index_candidates);
  survivors += static_cast<double>(stats.integration_candidates);
  accepted += static_cast<double>(stats.accepted_without_integration);
  node_reads += static_cast<double>(stats.node_reads);
  ++queries;
}

namespace {

// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<const char*, const char*>>& LayerCatalog() {
  static const std::vector<std::pair<const char*, const char*>> kCatalog = {
      {"index.pages_read_per_query", "count"},
      {"index.buffer_pool_hit_ratio", "ratio"},
      {"index.phase1_us_p50", "us"},
      {"core.prep_us_p50", "us"},
      {"core.phase2_us_p50", "us"},
      {"core.index_candidates_per_query", "count"},
      {"core.survivors_per_query", "count"},
      {"core.accepted_without_integration_per_query", "count"},
      {"mc.pool_build_us_p50", "us"},
      {"mc.phase3_ms_p50", "ms"},
      {"mc.samples_per_decision", "count"},
      {"mc.early_stop_ratio", "ratio"},
      {"mc.samples_per_s", "1/s"},
      {"mc.kernel_ceiling_samples_per_s", "1/s"},
      {"exec.queue_wait_us_p50", "us"},
      {"exec.overhead_us_p50", "us"},
      {"shard.routed_fraction", "ratio"},
      {"shard.scatter_us_p50", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.semantic_hit_share", "ratio"},
      {"cache.invalidations_per_commit", "count"},
      {"storage.write_capacity_ops_per_s", "ops/s"},
      {"storage.write_p99_ms", "ms"},
      {"storage.commit_ms_p50", "ms"},
      {"storage.commit_ms_p99", "ms"},
      {"storage.ops_per_commit", "count"},
      {"storage.wal_bytes_per_user_byte", "ratio"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.resident_bytes_per_object", "bytes"},
      {"net.client_rtt_ms_p50", "ms"},
      {"net.server_ms_p50", "ms"},
      {"net.outside_server_ms_p50", "ms"},
      {"net.outside_server_ms_p99", "ms"},
      {"net.bytes_per_query", "bytes"},
      {"net.codec_us_per_query", "us"},
  };
  return kCatalog;
}

}  // namespace

LayerMetrics EmptyLayerMetrics() {
  LayerMetrics out;
  for (const auto& [name, unit] : LayerCatalog()) {
    out.values.push_back({name, {0.0, unit}});
  }
  return out;
}

void LayerMetrics::Set(const std::string& name, double value) {
  for (auto& entry : values) {
    if (entry.first == name) {
      entry.second.first = value;
      return;
    }
  }
  std::fprintf(stderr, "internal: unknown layer metric %s\n", name.c_str());
  std::abort();
}

void LayerMetrics::FillFromPhases(const PhaseLog& log) {
  const double queries = static_cast<double>(log.queries);
  Set("index.phase1_us_p50", Quantile(log.phase1_us, 0.5));
  Set("core.prep_us_p50", Quantile(log.prep_us, 0.5));
  Set("core.phase2_us_p50", Quantile(log.phase2_us, 0.5));
  Set("core.index_candidates_per_query", Ratio(log.index_candidates, queries));
  Set("core.survivors_per_query", Ratio(log.survivors, queries));
  Set("core.accepted_without_integration_per_query",
      Ratio(log.accepted, queries));
  Set("mc.phase3_ms_p50", Quantile(log.phase3_ms, 0.5));
  Set("exec.overhead_us_p50", Quantile(log.overhead_us, 0.5));

  const uint64_t pages_read = CounterValue("gprq.index.paged.pages_read");
  const double hits =
      static_cast<double>(CounterValue("gprq.index.buffer_pool.hits"));
  const double misses =
      static_cast<double>(CounterValue("gprq.index.buffer_pool.misses"));
  Set("index.pages_read_per_query",
      Ratio(static_cast<double>(pages_read), queries));
  Set("index.buffer_pool_hit_ratio", Ratio(hits, hits + misses));

  Set("mc.pool_build_us_p50",
      HistogramValue("gprq.mc.pool_build_nanos").p50 * 1e-3);
  const double decisions =
      static_cast<double>(CounterValue("gprq.mc.decisions"));
  const double samples_used =
      static_cast<double>(CounterValue("gprq.mc.samples_used"));
  Set("mc.samples_per_decision", Ratio(samples_used, decisions));
  Set("mc.early_stop_ratio",
      Ratio(static_cast<double>(CounterValue("gprq.mc.early_stops")),
            decisions));
  // Samples counted per second of worker busy time: the per-thread Phase-3
  // rate, comparable with the single-thread kernel ceiling.
  const obs::HistogramSnapshot tasks = HistogramValue("gprq.exec.task_nanos");
  Set("mc.samples_per_s",
      Ratio(samples_used, static_cast<double>(tasks.sum) * 1e-9));
  Set("exec.queue_wait_us_p50",
      HistogramValue("gprq.exec.queue_wait_nanos").p50 * 1e-3);
}

void LayerMetrics::WriteTo(Report* report) const {
  for (const auto& [name, value] : values) {
    report->Metric(name, value.first, value.second);
  }
}

}  // namespace perfbench
