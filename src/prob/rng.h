#ifndef TRAJPATTERN_PROB_RNG_H_
#define TRAJPATTERN_PROB_RNG_H_

#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

namespace trajpattern {

/// Deterministic random source for the data generators and tests.
///
/// Everything stochastic in the library flows through one of these so that
/// a (seed, parameters) pair reproduces a data set bit-for-bit; the bench
/// harness relies on this to make the paper's figures re-runnable.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int UniformInt(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Normal sample with the given mean and standard deviation (>= 0).
  /// `sigma == 0` returns `mean` exactly, after consuming the same engine
  /// draws a positive sigma would, so switching a noise term off changes
  /// no other sample of the stream.
  double Normal(double mean, double sigma) {
    if (sigma == 0.0) {
      std::normal_distribution<double>()(engine_);
      return mean;
    }
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Index sampled proportionally to `weights` (all non-negative, not all
  /// zero).
  int PickWeighted(const std::vector<double>& weights) {
    assert(!weights.empty());
    return std::discrete_distribution<int>(weights.begin(), weights.end())(
        engine_);
  }

  /// Derives an independent child stream; lets per-object generators stay
  /// reproducible regardless of iteration order.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_PROB_RNG_H_
