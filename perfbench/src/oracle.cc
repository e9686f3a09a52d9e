#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

namespace {

// Oracle draws per query, and the band half-width in combined standard
// errors.
constexpr uint64_t kOracleSamples = 20000;
constexpr double kBandZ = 6.0;

// xoshiro256** seeded through splitmix64.
class Xoshiro {
 public:
  explicit Xoshiro(uint64_t seed) {
    for (uint64_t& word : s_) {
      seed += 0x9E3779B97F4A7C15ULL;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  // Uniform in (0, 1): never 0, so the logarithm below stays finite.
  double Open01() {
    return (static_cast<double>(Next() >> 11) + 0.5) * 0x1.0p-53;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace

PointScan ScanPositions(const std::vector<gprq::la::Vector>* points) {
  return [points](const std::function<void(double, double, uint32_t)>& visit) {
    for (size_t i = 0; i < points->size(); ++i) {
      visit((*points)[i][0], (*points)[i][1], static_cast<uint32_t>(i));
    }
  };
}

OracleVerdict CheckAnswer(const gprq::core::PrqQuery& query,
                          const std::vector<uint32_t>& answer,
                          const PointScan& scan,
                          const OracleOptions& options) {
  OracleVerdict verdict;
  const auto& mean = query.query_object.mean();
  const auto& cov = query.query_object.covariance();
  const double mx = mean[0], my = mean[1];
  // Σ = L·Lᵀ with L lower triangular.
  const double l11 = std::sqrt(cov(0, 0));
  const double l21 = cov(1, 0) / l11;
  const double l22 = std::sqrt(cov(1, 1) - l21 * l21);

  const uint64_t m = kOracleSamples;
  std::vector<double> sx(m), sy(m);
  Xoshiro random(options.seed);
  double reach_sq = 0.0;  // largest squared sample distance from the mean
  for (uint64_t i = 0; i < m; ++i) {
    // Box–Muller: one pair of uniforms gives the two standard normals.
    const double radius = std::sqrt(-2.0 * std::log(random.Open01()));
    const double angle = 2.0 * M_PI * random.Open01();
    const double z0 = radius * std::cos(angle);
    const double z1 = radius * std::sin(angle);
    const double dx = l11 * z0;
    const double dy = l21 * z0 + l22 * z1;
    sx[i] = mx + dx;
    sy[i] = my + dy;
    reach_sq = std::max(reach_sq, dx * dx + dy * dy);
  }
  const double reach = std::sqrt(reach_sq);
  const double delta = query.delta;
  const double delta_sq = delta * delta;
  const double theta = query.theta;

  std::unordered_map<uint32_t, bool> in_answer;  // id → seen in the scan
  for (uint32_t id : answer) in_answer.emplace(id, false);
  if (in_answer.size() != answer.size()) {
    verdict.errors.push_back("answer lists an id twice");
  }

  const double inv_n =
      1.0 / static_cast<double>(m) +
      1.0 / static_cast<double>(std::max<uint64_t>(options.engine_samples, 1));
  // Points beyond δ + reach have no oracle sample within δ: p̂ = 0, which
  // is confidently below θ whenever θ clears the band of a zero estimate.
  // They are counted without a lookup; an answer id among them is caught
  // below as one the near scan never saw.
  const double far_band =
      kBandZ * std::sqrt(theta * (1.0 - theta) * inv_n);
  const bool far_is_out = theta > far_band;
  const double far_sq = (delta + reach) * (delta + reach);
  uint64_t far_points = 0;
  scan([&](double px, double py, uint32_t id) {
    const double d_sq = (px - mx) * (px - mx) + (py - my) * (py - my);
    if (d_sq > far_sq) {
      ++far_points;
      return;
    }
    auto found = in_answer.find(id);
    const bool answered = found != in_answer.end();
    if (answered) found->second = true;
    const double d = std::sqrt(d_sq);
    uint64_t hits = 0;
    if (d + reach <= delta) {
      hits = m;  // every oracle sample is within δ
    } else {
      for (uint64_t i = 0; i < m; ++i) {
        const double dx = sx[i] - px;
        const double dy = sy[i] - py;
        hits += (dx * dx + dy * dy <= delta_sq) ? 1 : 0;
      }
    }
    const double p = static_cast<double>(hits) / static_cast<double>(m);
    const double variance =
        std::max(p * (1.0 - p), theta * (1.0 - theta)) * inv_n;
    const double band = kBandZ * std::sqrt(variance);
    char detail[160];
    if (p - theta > band) {
      ++verdict.confident_in;
      if (!answered) {
        std::snprintf(detail, sizeof(detail),
                      "false dismissal: id %u has oracle p=%.4f > theta=%.3f "
                      "+ %.4f but is not in the answer",
                      id, p, theta, band);
        verdict.errors.push_back(detail);
      }
    } else if (theta - p > band) {
      ++verdict.confident_out;
      if (answered) {
        std::snprintf(detail, sizeof(detail),
                      "false hit: id %u has oracle p=%.4f < theta=%.3f - %.4f "
                      "but is in the answer",
                      id, p, theta, band);
        verdict.errors.push_back(detail);
      }
    }
  });
  if (far_is_out) verdict.confident_out += far_points;
  for (const auto& [id, seen] : in_answer) {
    if (!seen) {
      verdict.errors.push_back(
          "answer id " + std::to_string(id) +
          " is not in the dataset or lies beyond every oracle sample's "
          "reach (oracle p = 0)");
    }
  }
  return verdict;
}

}  // namespace perfbench
