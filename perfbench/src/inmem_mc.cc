// inmem_mc: the paper's Table-I setting in-process. Synthetic TIGER
// (50,747 points), δ = 25, Σ = γ·[[7, 2√3], [2√3, 3]] over the PaperStream
// classes, pooled Monte-Carlo Phase 3 with 10k samples through one
// exec::BatchExecutor, no result cache and no repeated queries. Phase 3
// dominates; the index does little.
#include <cstdio>
#include <memory>

#include "core/engine.h"
#include "exec/batch_executor.h"
#include "index/str_bulk_load.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "workload/tiger_synthetic.h"
#include "workloads.h"

namespace perfbench {

namespace core = gprq::core;
namespace exec = gprq::exec;

namespace {

// Phase-3 workers: half of a 4-vCPU machine, leaving a core for the
// submitting thread and one for everything else on the machine.
constexpr size_t kWorkers = 2;
constexpr uint64_t kWarmupQueries = 64;
constexpr size_t kWindows = 10;

}  // namespace

int RunInmemMc(const Args& args, Report* report, RunResult* out) {
  const gprq::workload::Dataset dataset =
      gprq::workload::GenerateTigerSynthetic();
  auto tree = gprq::index::StrBulkLoader::Load(dataset.dim, dataset.points);
  if (!tree.ok()) {
    std::fprintf(stderr, "index build: %s\n", tree.status().ToString().c_str());
    return 1;
  }
  const core::PrqEngine engine(&*tree);
  // The lazy U-catalog build belongs to set-up, not to the first queries.
  engine.radius_catalog();
  engine.alpha_catalog();
  auto executor = exec::BatchExecutor::Create(
      &engine, McFactory(kPaperSamples, 7), kWorkers);
  if (!executor.ok()) {
    std::fprintf(stderr, "executor: %s\n",
                 executor.status().ToString().c_str());
    return 1;
  }
  const QueryStream stream = PaperStream(&dataset.points, args.seed);
  const core::PrqOptions options;
  for (uint64_t k = 0; k < kWarmupQueries; ++k) {
    if (!(*executor)->Submit(stream.Make(kWarmupBase + k), options).ok()) {
      std::fprintf(stderr, "warm-up query failed\n");
      return 1;
    }
  }
  out->setup_s = SecondsSinceStart();

  const std::vector<uint64_t> checked = CheckedIndices(args.seed, 1000, 16);
  std::vector<std::vector<uint32_t>> answers(checked.size());
  std::vector<bool> answered(checked.size(), false);
  std::vector<Completion> done;
  std::vector<std::vector<double>> class_ms(stream.classes().size());
  PhaseLog log;
  if (args.trace) gprq::obs::MetricRegistry::Global().Reset();

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  uint64_t next = 0;
  Clock::time_point now = start;
  size_t next_checked = 0;
  while (now < end) {
    const core::PrqQuery query = stream.Make(next);
    core::PrqStats stats;
    const Clock::time_point sent = Clock::now();
    auto result = (*executor)->Submit(query, options,
                                      args.trace ? &stats : nullptr);
    now = Clock::now();
    ++out->attempted;
    if (!result.ok()) {
      ++out->failed;
    } else {
      done.push_back({SecondsBetween(start, now),
                      SecondsBetween(sent, now) * 1e3});
      class_ms[stream.ClassOf(next)].push_back(done.back().latency_ms);
      if (args.trace) log.Add(stats, SecondsBetween(sent, now));
      if (next_checked < checked.size() && checked[next_checked] == next) {
        answers[next_checked] = std::move(*result);
        answered[next_checked++] = true;
      }
    }
    ++next;
  }
  const double elapsed = SecondsBetween(start, now);
  const WindowStats windows = SummariseWindows(done, args.seconds, kWindows);
  out->throughput_qps = windows.throughput;
  out->p50_ms = windows.p50_ms;
  out->p99_ms = windows.p99_ms;
  out->peak_rss_mb = PeakRssMb();
  if (args.trace) out->layers.FillFromPhases(log);
  std::printf("inmem_mc: %llu queries in %.3f s on %zu workers\n",
              static_cast<unsigned long long>(out->attempted), elapsed,
              kWorkers);
  PrintWindows("closed loop", windows);
  PrintClassLatencies(stream, class_ms);

  // Checks: every sampled answer against the brute-force oracle.
  uint64_t confident = 0;
  size_t errors = 0;
  for (size_t c = 0; c < checked.size(); ++c) {
    const core::PrqQuery query = stream.Make(checked[c]);
    if (!answered[c]) {  // a short run: answer the sample now
      auto result = (*executor)->Submit(query, options);
      if (!result.ok()) {
        report->Fail("checked query failed: " + result.status().ToString());
        continue;
      }
      answers[c] = std::move(*result);
    }
    OracleOptions oracle;
    oracle.engine_samples = kPaperSamples;
    oracle.seed = MixSeed(args.seed, 4, checked[c]);
    const OracleVerdict verdict = CheckAnswer(
        query, answers[c],
        ScanPositions(&dataset.points), oracle);
    for (const std::string& error : verdict.errors) {
      report->Fail("inmem_mc query " + std::to_string(checked[c]) + ": " +
                   error);
    }
    errors += verdict.errors.size();
    confident += verdict.confident_in + verdict.confident_out;
  }
  if (errors == 0) {
    report->Pass("oracle agrees on " + std::to_string(checked.size()) +
               " sampled answers (" + std::to_string(confident) +
               " confident decisions)");
  }
  return 0;
}

}  // namespace perfbench
