// An answer oracle that shares no code with the engine: a brute-force
// Monte-Carlo estimate of every qualification probability near the query,
// with its own RNG (xoshiro256**), its own Box–Muller normals and its own
// 2-D Cholesky factor, over a linear scan of the raw points.
//
// The verdict follows the rule that a sound probabilistic prune never drops
// a true qualifier (Bernecker et al.): an object whose oracle probability
// lies more than 6 combined standard errors above θ must be in the answer
// (no false dismissal), and one more than 6 below θ must not be. Objects
// inside the band are left alone — two honest estimators may disagree
// there.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/prq.h"

namespace perfbench {

struct OracleOptions {
  uint64_t engine_samples = 10000;  // the engine's Monte-Carlo budget
  uint64_t seed = 1;
};

struct OracleVerdict {
  uint64_t confident_in = 0;      // clearly above θ: must be answered
  uint64_t confident_out = 0;     // clearly below θ: must not be
  std::vector<std::string> errors;
};

/// Visits every point of a dataset as (x, y, id).
using PointScan = std::function<void(
    const std::function<void(double, double, uint32_t)>& visit)>;

/// Scans a point vector, ids being positions (the bulk loader's ids).
PointScan ScanPositions(const std::vector<gprq::la::Vector>* points);

/// Checks one 2-D answer against the oracle. `answer` holds the engine's
/// decided ids (any order).
OracleVerdict CheckAnswer(const gprq::core::PrqQuery& query,
                          const std::vector<uint32_t>& answer,
                          const PointScan& scan, const OracleOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
