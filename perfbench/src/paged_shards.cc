// paged_shards: 1M clustered 2-D points in a GPRQDAT1 file, sharded K=4
// into paged R*-trees with the default 128-page buffer pool per shard (the
// working set is many times the pools). A low Monte-Carlo budget (1k
// samples) and centers drawn from the data put the cost in Phase 1 page
// reads, routing and Phase 2 — the index/shard/core filter workload.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/filter_pipeline.h"
#include "exec/batch_executor.h"
#include "index/dataset_file.h"
#include "index/str_bulk_load.h"
#include "mc/monte_carlo.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "shard/shard_builder.h"
#include "shard/sharded_engine.h"
#include "workloads.h"

namespace perfbench {

namespace core = gprq::core;
namespace exec = gprq::exec;
namespace index = gprq::index;
using gprq::Status;

namespace {

constexpr uint64_t kPoints = 1'000'000;
constexpr size_t kShards = 4;
constexpr size_t kWorkers = 2;
constexpr uint64_t kSamples = 1000;
constexpr uint64_t kEvaluatorSeed = 100;
constexpr double kExtent = 10000.0;
constexpr size_t kClusters = 64;
constexpr double kDelta = 150.0;
constexpr double kGamma = 10.0;
constexpr double kTheta = 0.05;
constexpr uint64_t kWarmupQueries = 64;
constexpr size_t kWindows = 10;
// Queries re-run layer by layer after a traced run's timed phase.
constexpr uint64_t kProbeQueries = 400;

Status WriteDataset(const std::string& path) {
  auto writer = index::DatasetFileWriter::Create(path, 2);
  if (!writer.ok()) return writer.status();
  gprq::rng::Random random(2009);
  std::vector<double> centers(kClusters * 2);
  for (double& c : centers) c = random.NextDouble(0.0, kExtent);
  const double stddev = kExtent / 25.0;
  double row[2];
  for (uint64_t i = 0; i < kPoints; ++i) {
    const uint64_t c = random.NextUint64(kClusters);
    for (size_t a = 0; a < 2; ++a) {
      const double v = random.NextGaussian(centers[c * 2 + a], stddev);
      row[a] = std::min(std::max(v, 0.0), kExtent);
    }
    GPRQ_RETURN_NOT_OK(writer->Append(row));
  }
  return writer->Finish();
}

// User plus system CPU time of the process so far, in seconds.
double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// Radius around a query center that holds every point a search box can
// reach: the box half-width is at most δ plus a few σ, its corner √2 times
// that, and 8σ is far beyond any θ-region the catalogs produce.
double ReferenceRadius(const core::PrqQuery& query) {
  const double sigma_max = query.query_object.MaxAxisScale();
  return 2.0 * (query.delta + 8.0 * sigma_max);
}

}  // namespace

int RunPagedShards(const Args& args, Report* report, RunResult* out) {
  const std::string dataset_path = args.work_dir + "/points.gprq";
  const std::string shard_dir = args.work_dir + "/shards";
  if (Status s = WriteDataset(dataset_path); !s.ok()) {
    std::fprintf(stderr, "dataset: %s\n", s.ToString().c_str());
    return 1;
  }
  const double written_s = SecondsSinceStart();
  auto dataset = index::MmapDataset::Open(dataset_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "mmap: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::error_code error;
  std::filesystem::create_directories(shard_dir, error);
  gprq::shard::ShardBuildOptions build;
  build.num_shards = kShards;
  auto manifest =
      gprq::shard::BuildShards(*dataset, dataset_path, shard_dir, build);
  if (!manifest.ok()) {
    std::fprintf(stderr, "shard build: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  const double built_s = SecondsSinceStart();
  auto executor = exec::BatchExecutor::CreateDetached(
      McFactory(kSamples, kEvaluatorSeed), kWorkers);
  if (!executor.ok()) return 1;
  auto engine = gprq::shard::ShardedPrqEngine::Open(
      shard_dir + "/shards.manifest", executor->get());
  if (!engine.ok()) {
    std::fprintf(stderr, "open: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  const index::MmapDataset* points = &*dataset;
  const QueryStream stream(
      points->count(), [points](uint64_t i) { return points->PointVector(i); },
      args.seed, kDelta, 5.0, {{kGamma, kTheta, 1.0}});
  const core::PrqOptions options;
  for (uint64_t k = 0; k < kWarmupQueries; ++k) {
    auto result = (*engine)->ExecuteBounded(stream.Make(kWarmupBase + k),
                                            options);
    if (!result.ok() || !result->complete()) {
      std::fprintf(stderr, "warm-up query failed\n");
      return 1;
    }
  }
  out->setup_s = SecondsSinceStart();
  // Set-up CPU time near its wall time means it never waited on the disk.
  std::printf("paged_shards set-up: dataset file %.3f s, shard build %.3f s, "
              "open and warm-up %.3f s; process CPU %.3f s\n",
              written_s, built_s - written_s, out->setup_s - built_s,
              ProcessCpuSeconds());

  const std::vector<uint64_t> checked = CheckedIndices(args.seed, 1000, 12);
  std::vector<std::vector<uint32_t>> answers(checked.size());
  std::vector<bool> answered(checked.size(), false);
  std::vector<Completion> done;
  PhaseLog log;
  if (args.trace) gprq::obs::MetricRegistry::Global().Reset();

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  uint64_t next = 0;
  size_t next_checked = 0;
  Clock::time_point now = start;
  while (now < end) {
    const core::PrqQuery query = stream.Make(next);
    core::PrqStats stats;
    const Clock::time_point sent = Clock::now();
    auto result = (*engine)->ExecuteBounded(query, options,
                                            args.trace ? &stats : nullptr);
    now = Clock::now();
    ++out->attempted;
    if (!result.ok() || !result->complete()) {
      ++out->failed;
    } else {
      done.push_back({SecondsBetween(start, now),
                      SecondsBetween(sent, now) * 1e3});
      if (args.trace) log.Add(stats, SecondsBetween(sent, now));
      if (next_checked < checked.size() && checked[next_checked] == next) {
        answers[next_checked] = std::move(result->ids);
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
  std::printf("paged_shards: %llu queries in %.3f s on %zu workers\n",
              static_cast<unsigned long long>(out->attempted), elapsed,
              kWorkers);
  PrintWindows("closed loop", windows);

  if (args.trace) {
    LayerMetrics& layers = out->layers;
    layers.FillFromPhases(log);
    std::printf("  PrqStats node_reads per query %.2f, index candidates per "
                "query %.1f\n",
                Ratio(log.node_reads, static_cast<double>(log.queries)),
                Ratio(log.index_candidates, static_cast<double>(log.queries)));
    // The engine's scatter span covers Phase 1 and Phase 2 of every routed
    // shard, interleaved on the workers.
    layers.Set("shard.scatter_us_p50", Quantile(log.phase1_us, 0.5));
    layers.Set("shard.routed_fraction",
               Ratio(static_cast<double>(
                         CounterValue("gprq.shard.shards_routed")),
                     static_cast<double>(
                         CounterValue("gprq.shard.shards_considered"))));

    // Layer probe: the same queries through the public per-layer entry
    // points, one call at a time, on separately opened shard trees with
    // pools of the engine's size.
    std::vector<index::PagedRStarTree> trees;
    for (size_t k = 0; k < kShards; ++k) {
      auto tree = index::PagedRStarTree::Open(
          shard_dir + "/" + manifest->shards[k].tree_file,
          index::PagedRStarTree::OpenOptions{});
      if (!tree.ok()) return 1;
      trees.push_back(std::move(*tree));
    }
    const core::RadiusCatalog radius = core::RadiusCatalog::Build(2);
    const core::AlphaCatalog alpha = core::AlphaCatalog::Build(2);
    std::vector<double> prep_us, phase1_us, phase2_us;
    for (uint64_t q = 0; q < kProbeQueries; ++q) {
      const core::PrqQuery query = stream.Make(q);
      Clock::time_point t0 = Clock::now();
      const core::QueryGeometry geometry =
          core::PrepareQueryGeometry(query, options, 2, &radius, &alpha);
      gprq::geom::Rect box = gprq::geom::Rect::Empty(2);
      const bool any = !geometry.proved_empty &&
                       core::ComputeSearchBox(geometry, query, 2, &box);
      Clock::time_point t1 = Clock::now();
      prep_us.push_back(SecondsBetween(t0, t1) * 1e6);
      if (!any) continue;
      std::vector<std::vector<std::pair<la::Vector, index::ObjectId>>>
          candidates(kShards);
      for (size_t k = 0; k < kShards; ++k) {
        if (!manifest->shards[k].mbr.Intersects(box)) continue;
        const Status scanned = trees[k].RangeQuery(
            box, [&candidates, k](const la::Vector& p, index::ObjectId id) {
              candidates[k].emplace_back(p, id);
            });
        if (!scanned.ok()) return 1;
      }
      Clock::time_point t2 = Clock::now();
      core::PrqEngine::FilterOutcome outcome;
      core::Phase2Counts counts;
      for (size_t k = 0; k < kShards; ++k) {
        core::RunPhase2(query, options, geometry, std::move(candidates[k]),
                        &outcome, &counts);
      }
      Clock::time_point t3 = Clock::now();
      phase1_us.push_back(SecondsBetween(t1, t2) * 1e6);
      phase2_us.push_back(SecondsBetween(t2, t3) * 1e6);
    }
    layers.Set("core.prep_us_p50", Quantile(prep_us, 0.5));
    layers.Set("index.phase1_us_p50", Quantile(phase1_us, 0.5));
    layers.Set("core.phase2_us_p50", Quantile(phase2_us, 0.5));
  }

  // Checks: each sampled answer against the oracle, and against one
  // in-memory R*-tree over every point that a sampled query's search box
  // can reach, decided with the same evaluator seed (so the same pool).
  size_t errors = 0;
  uint64_t confident = 0;
  std::vector<core::PrqQuery> queries;
  const PointScan scan =
      [points](const std::function<void(double, double, uint32_t)>& visit) {
        for (uint64_t i = 0; i < points->count(); ++i) {
          const double* p = points->point(i);
          visit(p[0], p[1], static_cast<uint32_t>(i));
        }
      };
  for (size_t c = 0; c < checked.size(); ++c) {
    queries.push_back(stream.Make(checked[c]));
    const std::string label =
        "paged_shards query " + std::to_string(checked[c]);
    if (!answered[c]) {
      auto result = (*engine)->ExecuteBounded(queries[c], options);
      if (!result.ok() || !result->complete()) {
        report->Fail(label + " failed");
        ++errors;
        continue;
      }
      answers[c] = std::move(result->ids);
    }
    OracleOptions oracle;
    oracle.engine_samples = kSamples;
    oracle.seed = MixSeed(args.seed, 4, checked[c]);
    const OracleVerdict verdict =
        CheckAnswer(queries[c], answers[c], scan, oracle);
    for (const std::string& error : verdict.errors) {
      report->Fail(label + ": " + error);
    }
    errors += verdict.errors.size();
    confident += verdict.confident_in + verdict.confident_out;
  }

  std::vector<la::Vector> near;
  std::vector<index::ObjectId> ids;
  scan([&](double x, double y, uint32_t id) {
    for (const core::PrqQuery& query : queries) {
      const double r = ReferenceRadius(query);
      const double dx = x - query.query_object.mean()[0];
      const double dy = y - query.query_object.mean()[1];
      if (dx * dx + dy * dy <= r * r) {
        near.push_back(la::Vector{x, y});
        ids.push_back(id);
        return;
      }
    }
  });
  auto tree = index::StrBulkLoader::Load(2, near, ids);
  if (!tree.ok()) return 1;
  const core::PrqEngine reference(&*tree);
  for (size_t c = 0; c < queries.size(); ++c) {
    const core::PrqQuery& query = queries[c];
    const std::string label =
        "paged_shards query " + std::to_string(checked[c]);
    core::PrqEngine::FilterOutcome outcome;
    core::PrqStats stats;
    if (!reference.RunFilterPhases(query, options, &outcome, &stats).ok()) {
      return 1;
    }
    if (!outcome.proved_empty) {
      const double radius = ReferenceRadius(query);
      const auto& lo = outcome.search_box.lo();
      const auto& hi = outcome.search_box.hi();
      for (double x : {lo[0], hi[0]}) {
        for (double y : {lo[1], hi[1]}) {
          if (std::hypot(x - query.query_object.mean()[0],
                         y - query.query_object.mean()[1]) > radius) {
            report->Fail(label + ": search box reaches beyond the reference "
                                 "tree's points");
            ++errors;
          }
        }
      }
    }
    gprq::mc::MonteCarloEvaluator evaluator(
        gprq::mc::MonteCarloOptions{.samples = kSamples,
                                    .seed = kEvaluatorSeed});
    auto expected = reference.Execute(query, options, &evaluator);
    std::string difference;
    if (!expected.ok()) {
      report->Fail(label + ": reference failed");
      ++errors;
    } else if (!SameIds(answers[c], *expected, &difference)) {
      report->Fail(label + ": sharded answer differs from one in-memory "
                           "tree: " + difference);
      ++errors;
    }
  }
  if (errors == 0) {
    report->Pass("oracle and single-tree reference agree on " +
                 std::to_string(checked.size()) + " sampled answers (" +
                 std::to_string(confident) + " confident decisions)");
  }
  return 0;
}

}  // namespace perfbench
