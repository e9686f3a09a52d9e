// live_churn: a WAL-backed storage::StorageEngine under one writer and one
// reader at once. The writer alternates inserts and deletes (the size stays
// at the preload's), each individually durable under the default group-
// commit policy (one op per commit), with a checkpoint every fixed number
// of ops. The reader draws Zipf-repeated queries from a fixed set, with θ
// variations, through a storage::LivePrqEngine with the semantic result
// cache — so exact hits, θ-containment hits and misses all occur, and every
// commit invalidates the cached answers it could change.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <tuple>

#include "exec/batch_executor.h"
#include "index/rstar_tree.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "storage/live_engine.h"
#include "storage/storage_engine.h"
#include "workloads.h"

namespace perfbench {

namespace core = gprq::core;
namespace exec = gprq::exec;
namespace storage = gprq::storage;
using gprq::Status;

namespace {

// One Phase-3 worker: a miss integrates about ten survivors, so a second
// worker would save tens of microseconds per miss but add a second thread
// hand-off to it, and on a shared host each hand-off can wait for a vCPU.
constexpr size_t kWorkers = 1;
constexpr uint64_t kPreload = 50'000;
constexpr double kExtent = 10000.0;
// The writer's fixed offered rate. Every commit copies the root-to-leaf
// path into the engine's append-only page arena, which is never reclaimed
// while the engine lives (~12 KB per commit here), so the rate also bounds
// the run's memory.
constexpr double kWriteRate = 500.0;
constexpr uint64_t kCheckpointEvery = 2000;
// Bytes of one WAL-logged user op: two coordinates and an id.
constexpr double kUserBytesPerOp = 2 * sizeof(double) + sizeof(uint32_t);
constexpr uint64_t kEvaluatorSeed = 7;
constexpr size_t kWindows = 10;

// The reader's query set: kBaseQueries (center, Σ) pairs at δ = 100, each
// asked at one of the kThetas, with Zipf(kZipf) popularity over the bases.
constexpr size_t kBaseQueries = 4096;
constexpr double kZipf = 0.6;
constexpr double kThetas[] = {0.05, 0.1, 0.2};
constexpr double kDelta = 100.0;
constexpr double kGamma = 50.0;

// Reader answers checked from the timed phase: every kChurnCheckEvery-th
// query, kept when no commit lands between the pins taken just before and
// just after it (so the epoch it was admitted at is known), up to
// kChurnChecks of them.
constexpr uint64_t kChurnCheckEvery = 97;
constexpr size_t kChurnChecks = 48;

struct Entry {
  double x, y;
  uint32_t id;
  bool operator<(const Entry& o) const {
    return std::tie(id, x, y) < std::tie(o.id, o.x, o.y);
  }
  bool operator==(const Entry& o) const {
    return id == o.id && x == o.x && y == o.y;
  }
};

// The writer's own record of every acknowledged write: the live set the
// engine must hold.
class Shadow {
 public:
  void Insert(double x, double y, uint32_t id) {
    entries_.push_back({x, y, id});
  }
  Entry RemoveAt(size_t i) {
    const Entry e = entries_[i];
    entries_[i] = entries_.back();
    entries_.pop_back();
    return e;
  }
  size_t size() const { return entries_.size(); }
  std::vector<Entry> Sorted() const {
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end());
    return out;
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

std::vector<Entry> Scan(const storage::StorageSnapshot& snapshot) {
  std::vector<Entry> out;
  snapshot.ScanAll([&out](const la::Vector& p, gprq::index::ObjectId id) {
    out.push_back({p[0], p[1], id});
  });
  std::sort(out.begin(), out.end());
  return out;
}

class QuerySet {
 public:
  explicit QuerySet(uint64_t seed) : seed_(seed) {
    gprq::rng::Random random(MixSeed(seed, 6, 0));
    for (size_t b = 0; b < kBaseQueries; ++b) {
      centers_.push_back(la::Vector{random.NextDouble(500.0, kExtent - 500.0),
                                    random.NextDouble(500.0, kExtent - 500.0)});
    }
    double total = 0.0;
    for (size_t r = 0; r < kBaseQueries; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  core::PrqQuery Base(size_t base, double theta) const {
    auto g = core::GaussianDistribution::Create(
        centers_[base], gprq::workload::PaperCovariance2D(kGamma));
    return core::PrqQuery{std::move(*g), kDelta, theta};
  }

  // Reader draw i: a Zipf-ranked base and a uniformly chosen θ.
  core::PrqQuery Draw(uint64_t i) const {
    gprq::rng::Random random(MixSeed(seed_, 7, i));
    const double u = random.NextDouble();
    const size_t base = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const double theta = kThetas[random.NextUint64(std::size(kThetas))];
    return Base(std::min(base, kBaseQueries - 1), theta);
  }

 private:
  uint64_t seed_;
  std::vector<la::Vector> centers_;
  std::vector<double> cdf_;
};

// One reader answer from the timed phase and the snapshot it was computed
// against.
struct ChurnSample {
  uint64_t index;
  std::shared_ptr<const storage::StorageSnapshot> snapshot;
  std::vector<uint32_t> ids;
  bool cache_hit;
};

uint64_t CacheHits() {
  return CounterValue("gprq.cache.hit_exact") +
         CounterValue("gprq.cache.hit_semantic");
}

// Answers `query` on `snapshot` without the live engine or its cache: the
// snapshot's points within 2·(δ + 8σ_max) of the center go through
// `filter`'s Phase 2 (FilterCandidateSet, so one engine's U-catalogs serve
// every check) and Phase 3 on `executor`, whose evaluators carry the served
// engine's seeds (so the same sample pool). Returns false, with a message,
// when that region does not cover the search box.
bool ReferenceAnswer(const storage::StorageSnapshot& snapshot,
                     const core::PrqQuery& query,
                     const core::PrqOptions& options,
                     const core::PrqEngine& filter,
                     exec::BatchExecutor* executor,
                     std::vector<uint32_t>* answer, std::string* error) {
  const double cx = query.query_object.mean()[0];
  const double cy = query.query_object.mean()[1];
  const double radius =
      2.0 * (query.delta + 8.0 * query.query_object.MaxAxisScale());
  const gprq::geom::Rect region(la::Vector{cx - radius, cy - radius},
                                la::Vector{cx + radius, cy + radius});
  std::vector<std::pair<la::Vector, gprq::index::ObjectId>> near;
  snapshot.RangeQuery(region, [&near](const la::Vector& p,
                                      gprq::index::ObjectId id) {
    near.emplace_back(p, id);
  });
  core::PrqEngine::FilterOutcome outcome;
  core::PrqStats stats;
  if (!filter.FilterCandidateSet(query, options, near, &outcome, &stats)
           .ok()) {
    *error = "reference filter failed";
    return false;
  }
  if (!outcome.proved_empty && !region.Contains(outcome.search_box)) {
    *error = "search box reaches beyond the reference region";
    return false;
  }
  auto expected = executor->IntegrateOutcome(query, std::move(outcome));
  if (!expected.ok()) {
    *error = "reference failed: " + expected.status().ToString();
    return false;
  }
  *answer = std::move(*expected);
  return true;
}

uint64_t FileSize(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<uint64_t>(size);
}

}  // namespace

int RunLiveChurn(const Args& args, Report* report, RunResult* out) {
  const std::string dir = args.work_dir + "/store";
  const std::string wal_path = dir + "/" + storage::StorageEngine::kWalFile;
  Shadow shadow;
  gprq::rng::Random data_random(MixSeed(args.seed, 8, 0));
  uint32_t next_id = 0;
  {
    // Preload in large commit batches, checkpoint, and close: the served
    // engine then opens the checkpoint the way a restarted server would.
    storage::StorageOptions bulk;
    bulk.group_commit_ops = 4096;
    std::filesystem::create_directories(dir);
    auto loader = storage::StorageEngine::Create(dir, 2, bulk);
    if (!loader.ok()) {
      std::fprintf(stderr, "create: %s\n", loader.status().ToString().c_str());
      return 1;
    }
    for (uint64_t i = 0; i < kPreload; ++i) {
      const double x = data_random.NextDouble(0.0, kExtent);
      const double y = data_random.NextDouble(0.0, kExtent);
      if (!(*loader)->Insert(la::Vector{x, y}, next_id).ok()) return 1;
      shadow.Insert(x, y, next_id++);
    }
    if (!(*loader)->Checkpoint().ok()) return 1;
  }
  auto engine = storage::StorageEngine::Open(dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "open: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  auto executor = exec::BatchExecutor::CreateDetached(
      McFactory(kPaperSamples, kEvaluatorSeed), kWorkers);
  if (!executor.ok()) return 1;
  storage::LivePrqEngine live(engine->get(), executor->get());
  if (!live.EnableResultCache(gprq::cache::ResultCacheOptions()).ok()) {
    return 1;
  }
  const QuerySet queries(args.seed);
  const core::PrqOptions options;
  // Warm-up pays the live engine's lazy catalog build; the cache is
  // emptied again by the writes that follow.
  for (size_t b = 0; b < 8; ++b) {
    if (!live.ExecuteBounded(queries.Base(b, kThetas[0]), options).ok()) {
      return 1;
    }
  }
  out->setup_s = SecondsSinceStart();

  if (args.trace) gprq::obs::MetricRegistry::Global().Reset();
  const uint64_t inserts_before = CounterValue("gprq.storage.inserts");
  const uint64_t deletes_before = CounterValue("gprq.storage.deletes");

  std::atomic<bool> stop{false};
  // Writer: alternating insert/delete at a fixed rate, every op durable on
  // return; latency runs from when the op was due, so a stall (checkpoint,
  // slow fsync) also shows in the ops queued behind it.
  std::vector<double> write_ms;
  std::vector<double> checkpoint_ms;
  uint64_t writes_acked = 0;
  uint64_t writes_failed = 0;
  uint64_t wal_bytes = 0;
  double write_seconds = 0.0;
  // Time inside Insert/Delete and the checkpoints, without the pacing
  // sleeps: the writer's service time.
  double service_seconds = 0.0;
  std::thread writer([&] {
    const Clock::time_point begin = Clock::now();
    for (uint64_t op = 0; !stop.load(std::memory_order_relaxed); ++op) {
      const Clock::time_point due =
          begin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(op / kWriteRate));
      std::this_thread::sleep_until(due);
      const Clock::time_point served = Clock::now();
      Status status;
      if (op % 2 == 0) {
        const double x = data_random.NextDouble(0.0, kExtent);
        const double y = data_random.NextDouble(0.0, kExtent);
        status = (*engine)->Insert(la::Vector{x, y}, next_id);
        if (status.ok()) shadow.Insert(x, y, next_id++);
      } else {
        const size_t victim = data_random.NextUint64(shadow.size());
        const Entry e = shadow.entries()[victim];
        status = (*engine)->Delete(la::Vector{e.x, e.y}, e.id);
        if (status.ok()) shadow.RemoveAt(victim);
      }
      if (!status.ok()) {
        ++writes_failed;
        service_seconds += SecondsBetween(served, Clock::now());
        continue;
      }
      ++writes_acked;
      if (writes_acked % kCheckpointEvery == 0) {
        // Inline checkpoint, charged to the write that triggered it.
        wal_bytes += FileSize(wal_path);
        const Clock::time_point cp = Clock::now();
        if (!(*engine)->Checkpoint().ok()) ++writes_failed;
        checkpoint_ms.push_back(SecondsBetween(cp, Clock::now()) * 1e3);
      }
      const Clock::time_point acked = Clock::now();
      service_seconds += SecondsBetween(served, acked);
      write_ms.push_back(SecondsBetween(due, acked) * 1e3);
    }
    wal_bytes += FileSize(wal_path);
    write_seconds = SecondsBetween(begin, Clock::now());
  });

  // Reader (this thread): closed loop over the Zipf-repeated query set.
  std::vector<Completion> done;
  std::vector<ChurnSample> churn_samples;
  PhaseLog log;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  Clock::time_point now = start;
  for (uint64_t i = 0; now < end; ++i) {
    const core::PrqQuery query = queries.Draw(i);
    const bool sample =
        i % kChurnCheckEvery == 0 && churn_samples.size() < kChurnChecks;
    std::shared_ptr<const storage::StorageSnapshot> before;
    uint64_t hits_before = 0;
    if (sample) {
      hits_before = CacheHits();
      before = (*engine)->PinSnapshot();
    }
    core::PrqStats stats;
    const Clock::time_point sent = Clock::now();
    auto result =
        live.ExecuteBounded(query, options, args.trace ? &stats : nullptr);
    now = Clock::now();
    ++out->attempted;
    if (!result.ok() || !result->complete()) {
      ++out->failed;
      continue;
    }
    done.push_back({SecondsBetween(start, now),
                    SecondsBetween(sent, now) * 1e3});
    if (args.trace) log.Add(stats, SecondsBetween(sent, now));
    if (sample && (*engine)->PinSnapshot()->epoch() == before->epoch()) {
      churn_samples.push_back({i, std::move(before), std::move(result->ids),
                               CacheHits() != hits_before});
    }
  }
  const double elapsed = SecondsBetween(start, now);
  stop.store(true);
  writer.join();
  out->attempted += writes_acked + writes_failed;
  out->failed += writes_failed;
  const uint64_t reads = done.size();
  const WindowStats windows = SummariseWindows(done, args.seconds, kWindows);
  out->throughput_qps = windows.throughput;
  out->p50_ms = windows.p50_ms;
  out->p99_ms = windows.p99_ms;
  out->peak_rss_mb = PeakRssMb();
  const double write_ops_per_s =
      static_cast<double>(writes_acked) / write_seconds;
  const double write_capacity_ops_per_s =
      Ratio(static_cast<double>(writes_acked), service_seconds);
  const double write_p99_ms = Quantile(write_ms, 0.99);
  std::printf("live_churn: %llu reads in %.3f s; %llu durable writes at "
              "%.0f ops/s (capacity %.0f ops/s of service time), write "
              "p50/p99 %.3f/%.3f ms, %zu checkpoints\n",
              static_cast<unsigned long long>(reads), elapsed,
              static_cast<unsigned long long>(writes_acked), write_ops_per_s,
              write_capacity_ops_per_s, Quantile(write_ms, 0.5), write_p99_ms,
              checkpoint_ms.size());
  PrintWindows("reader", windows);

  const double inserts = static_cast<double>(
      CounterValue("gprq.storage.inserts") - inserts_before);
  const double deletes = static_cast<double>(
      CounterValue("gprq.storage.deletes") - deletes_before);
  if (args.trace) {
    LayerMetrics& layers = out->layers;
    layers.FillFromPhases(log);
    const double exact = static_cast<double>(CounterValue("gprq.cache.hit_exact"));
    const double semantic =
        static_cast<double>(CounterValue("gprq.cache.hit_semantic"));
    const double lookups = static_cast<double>(CounterValue("gprq.cache.lookups"));
    const double commits = static_cast<double>(CounterValue("gprq.storage.commits"));
    layers.Set("cache.hit_ratio", Ratio(exact + semantic, lookups));
    layers.Set("cache.semantic_hit_share", Ratio(semantic, exact + semantic));
    layers.Set("cache.invalidations_per_commit",
               Ratio(static_cast<double>(CounterValue("gprq.cache.invalidations")),
                     commits));
    layers.Set("storage.write_capacity_ops_per_s", write_capacity_ops_per_s);
    layers.Set("storage.write_p99_ms", write_p99_ms);
    const auto commit = HistogramValue("gprq.storage.commit_nanos");
    layers.Set("storage.commit_ms_p50", commit.p50 * 1e-6);
    layers.Set("storage.commit_ms_p99", commit.p99 * 1e-6);
    layers.Set("storage.ops_per_commit", Ratio(inserts + deletes, commits));
    layers.Set("storage.wal_bytes_per_user_byte",
               Ratio(static_cast<double>(wal_bytes),
                     static_cast<double>(writes_acked) * kUserBytesPerOp));
    layers.Set("storage.checkpoint_ms", Quantile(checkpoint_ms, 0.5));
    const gprq::obs::RegistrySnapshot registry =
        gprq::obs::MetricRegistry::Global().Snapshot();
    layers.Set("storage.resident_bytes_per_object",
               Ratio(registry.gauge("gprq.storage.resident_bytes"),
                     registry.gauge("gprq.storage.objects")));
  }

  // ---- Checks.
  size_t errors = 0;
  auto fail = [&](const std::string& what) {
    report->Fail("live_churn: " + what);
    ++errors;
  };
  // Two totals by independent paths: acknowledged writes on the client,
  // logged mutations in the engine's counters.
  if (inserts + deletes != static_cast<double>(writes_acked)) {
    fail("the writer acknowledged " + std::to_string(writes_acked) +
         " ops but gprq.storage.inserts + deletes grew by " +
         std::to_string(static_cast<uint64_t>(inserts + deletes)));
  }
  // Reader answers from the timed phase, where commits raced with cache
  // lookups and publications, against an uncached answer on the snapshot
  // each was admitted at.
  size_t churn_hits = 0;
  const gprq::index::RStarTree no_points(2);
  const core::PrqEngine filter(&no_points);
  for (ChurnSample& sample : churn_samples) {
    std::vector<uint32_t> reference;
    std::string error;
    const std::string label =
        "reader query " + std::to_string(sample.index) + " at epoch " +
        std::to_string(sample.snapshot->epoch());
    if (!ReferenceAnswer(*sample.snapshot, queries.Draw(sample.index),
                         options, filter, executor->get(), &reference,
                         &error)) {
      fail(label + ": " + error);
    } else if (std::string difference;
               !SameIds(sample.ids, reference, &difference)) {
      fail(label + (sample.cache_hit ? " (cache hit)" : "") +
           " differs from an uncached answer on its snapshot: " + difference);
    }
    churn_hits += sample.cache_hit ? 1 : 0;
  }
  if (churn_samples.empty()) {
    fail("no reader answer of the timed phase could be checked");
  }
  const size_t churn_count = churn_samples.size();
  churn_samples.clear();

  const std::vector<Entry> expected = shadow.Sorted();
  if (Scan(*(*engine)->PinSnapshot()) != expected) {
    fail("the live set differs from the writer's acknowledged writes");
  }

  // Cached answers against uncached ones at the same (now frozen) epoch,
  // in an order that makes exact and θ-containment hits, and the oracle on
  // the uncached ones.
  storage::LivePrqEngine uncached(engine->get(), executor->get());
  const std::vector<uint64_t> sampled = CheckedIndices(args.seed, kBaseQueries, 8);
  const uint64_t hits_before = CounterValue("gprq.cache.hit_exact") +
                               CounterValue("gprq.cache.hit_semantic");
  uint64_t confident = 0;
  const PointScan scan =
      [&shadow](const std::function<void(double, double, uint32_t)>& visit) {
        for (const Entry& e : shadow.entries()) visit(e.x, e.y, e.id);
      };
  for (uint64_t base : sampled) {
    for (double theta : {kThetas[0], kThetas[2], kThetas[0], kThetas[1]}) {
      const core::PrqQuery query = queries.Base(base, theta);
      auto cached = live.ExecuteBounded(query, options);
      auto fresh = uncached.ExecuteBounded(query, options);
      if (!cached.ok() || !fresh.ok() || !cached->complete() ||
          !fresh->complete()) {
        fail("a check query failed");
        continue;
      }
      std::string difference;
      if (!SameIds(cached->ids, fresh->ids, &difference)) {
        fail("cached answer differs from uncached for base " +
             std::to_string(base) + ": " + difference);
      }
      OracleOptions oracle;
      oracle.engine_samples = kPaperSamples;
      oracle.seed = MixSeed(args.seed, 4, base);
      const OracleVerdict verdict = CheckAnswer(query, fresh->ids, scan, oracle);
      for (const std::string& error : verdict.errors) fail(error);
      confident += verdict.confident_in + verdict.confident_out;
    }
  }
  const uint64_t hits = CounterValue("gprq.cache.hit_exact") +
                        CounterValue("gprq.cache.hit_semantic") - hits_before;
  if (hits == 0) fail("the cache served none of the repeated check queries");

  // Every acknowledged write survives close and reopen (WAL replay).
  engine->reset();
  storage::WalReplayInfo replay;
  auto reopened = storage::StorageEngine::Open(dir, {}, &replay);
  if (!reopened.ok()) {
    fail("reopen: " + reopened.status().ToString());
  } else if (Scan(*(*reopened)->PinSnapshot()) != expected) {
    fail("after reopen the live set differs from the acknowledged writes");
  }
  if (errors == 0) {
    report->Pass("live set == acknowledged writes, before and after reopen (" +
                 std::to_string(expected.size()) + " objects, " +
                 std::to_string(replay.records) + " WAL records replayed)");
    report->Pass("acknowledged writes == engine insert+delete counters (" +
                 std::to_string(writes_acked) + ")");
    report->Pass("timed-phase reader answers == uncached answers on their "
                 "snapshots (" + std::to_string(churn_count) + " answers, " +
                 std::to_string(churn_hits) + " cache hits)");
    report->Pass("cached == uncached on " + std::to_string(sampled.size() * 4) +
                 " check queries (" + std::to_string(hits) +
                 " cache hits); oracle agrees (" + std::to_string(confident) +
                 " confident decisions)");
  }
  return 0;
}

}  // namespace perfbench
