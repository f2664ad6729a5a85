// Deterministic pseudo-random number generation for the simulator.
//
// The simulator must be reproducible from a single seed, so all randomness
// flows through this generator (xoshiro256** seeded via splitmix64) instead
// of std::mt19937 whose distributions are not portable across standard
// library implementations.

#ifndef SIM_RNG_H_
#define SIM_RNG_H_

#include <cstdint>

namespace sim {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform integer in [0, bound). A bound of 0 denotes an empty range and
  // yields 0 without consuming randomness.
  uint64_t NextBelow(uint64_t bound);

  // Uniform integer in [lo, hi], inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Derives an independent child generator; used to give each component its
  // own stream so one component's draws never perturb another's.
  Rng Fork();

  bool operator==(const Rng&) const = default;

 private:
  uint64_t state_[4];
};

}  // namespace sim

#endif  // SIM_RNG_H_
