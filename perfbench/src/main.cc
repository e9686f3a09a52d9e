// perfbench: one steady benchmark of the gprq query path. Usage:
//
//   perfbench --workload inmem_mc|paged_shards|live_churn|wire_loopback
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--server-bin PATH]
//
// With --trace 0 the last stdout line reports the end-to-end metrics, with
// --trace 1 the per-layer ones (see perfbench/README.md). perfbench/run.py
// builds this binary and supplies --work-dir and --server-bin.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "mc/monte_carlo.h"
#include "workloads.h"

namespace perfbench {

gprq::core::PrqEngine::EvaluatorFactory McFactory(uint64_t samples,
                                                  uint64_t base_seed) {
  return [samples, base_seed](size_t worker) {
    return std::make_unique<gprq::mc::MonteCarloEvaluator>(
        gprq::mc::MonteCarloOptions{.samples = samples,
                                    .seed = base_seed + worker});
  };
}

bool SameIds(std::vector<uint32_t> a, std::vector<uint32_t> b,
             std::string* difference) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a == b) return true;
  std::vector<uint32_t> only_a, only_b;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(only_a));
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(only_b));
  *difference = std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
                " ids";
  if (!only_a.empty()) {
    *difference += ", first only in the first: " + std::to_string(only_a[0]);
  }
  if (!only_b.empty()) {
    *difference += ", first only in the second: " + std::to_string(only_b[0]);
  }
  return false;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--server-bin PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--server-bin") {
      args.server_bin = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.work_dir.empty() ||
      !(args.seconds > 0.0)) {
    return Usage();
  }
  int (*run)(const Args&, Report*, RunResult*) = nullptr;
  if (args.workload == "inmem_mc") run = RunInmemMc;
  if (args.workload == "paged_shards") run = RunPagedShards;
  if (args.workload == "live_churn") run = RunLiveChurn;
  if (args.workload == "wire_loopback") run = RunWireLoopback;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }

  // One private directory per run, removed however the workload ends.
  args.work_dir += "/" + args.workload + "-" + std::to_string(::getpid());
  std::error_code error;
  std::filesystem::remove_all(args.work_dir, error);
  std::filesystem::create_directories(args.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 error.message().c_str());
    return 1;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  Report report;
  RunResult result;
  const int status = run(args, &report, &result);
  std::filesystem::remove_all(args.work_dir, error);
  if (status != 0) return status;

  const Calibration calibration = MeasureCalibration();
  PrintCalibration(calibration);
  report.SetAttempted(result.attempted, result.failed);
  if (args.trace) {
    // The p99 is reported with the per-layer figures, without a bound: on
    // wire_loopback its run-to-run spread exceeded any usable bound.
    report.Metric("query_p99_ms", result.p99_ms, "ms");
    result.layers.Set("mc.kernel_ceiling_samples_per_s",
                      calibration.kernel_samples_per_s);
    result.layers.WriteTo(&report);
  } else {
    report.Metric("setup_s", result.setup_s, "s");
    report.Metric("query_throughput_qps", result.throughput_qps, "queries/s");
    report.Metric("query_p50_ms", result.p50_ms, "ms");
    report.Metric("peak_rss_mb", result.peak_rss_mb, "MB");
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
