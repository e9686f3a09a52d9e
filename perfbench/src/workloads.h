// The four workloads. Each builds its inputs from the seed, times set-up
// from process start, measures for args.seconds, reads the serving
// process's peak memory, then checks the answers it produced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "core/engine.h"
#include "harness.h"

namespace perfbench {

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0.0;
  double throughput_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double peak_rss_mb = 0.0;
  LayerMetrics layers = EmptyLayerMetrics();
};

/// Each returns 0 when the run completed (checks may still have failed —
/// they are recorded in `report`), non-zero when it could not run at all.
int RunInmemMc(const Args& args, Report* report, RunResult* out);
int RunPagedShards(const Args& args, Report* report, RunResult* out);
int RunLiveChurn(const Args& args, Report* report, RunResult* out);
int RunWireLoopback(const Args& args, Report* report, RunResult* out);

/// Monte-Carlo evaluators seeded `base + worker`, the layout gprq_server
/// uses (base 7), so pooled decisions match across surfaces.
gprq::core::PrqEngine::EvaluatorFactory McFactory(uint64_t samples,
                                                  uint64_t base_seed);

/// Sorts and compares two id sets; describes the first difference.
bool SameIds(std::vector<uint32_t> a, std::vector<uint32_t> b,
             std::string* difference);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
