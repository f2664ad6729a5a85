// Summary statistics and ratio bases shared by the benchmark's reports.
//
// Every ratio the benchmark prints is computed here, so each one has a
// single stated base (NOTES.md lists them) and a test that pins it.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A timing percentile, with the samples it was drawn from. `beyond` counts
// the samples ranked above the reported one; a tail percentile is only
// trustworthy with at least kMinTailSamples of them.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  bool ok = false;  // samples > 0 and beyond >= kMinTailSamples
};

inline constexpr size_t kMinTailSamples = 10;

// Nearest-rank percentile `p` (0 < p <= 100) of `samples`.
inline Percentile NearestRank(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  out.value = samples[index];
  out.beyond = samples.size() - 1 - index;
  out.ok = out.beyond >= kMinTailSamples;
  return out;
}

// num / den, or 0 when there is no base.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Pool busy share: summed per-run host time over the pool's capacity,
// wall time x workers.
inline double BusyShare(double busy_us, double wall_s, int workers) {
  return Ratio(busy_us, wall_s * 1e6 * workers);
}

// Worker-seconds the pool held no run.
inline double IdleSeconds(double busy_us, double wall_s, int workers) {
  return std::max(0.0, wall_s * workers - busy_us / 1e6);
}

// Fork reuse: test events restored from snapshots over all test events of
// the runs (restored + applied).
inline double ReuseRatio(uint64_t forked_over, uint64_t applied) {
  return Ratio(static_cast<double>(forked_over), static_cast<double>(forked_over + applied));
}

// Guided admission: final corpus size over runs executed.
inline double AdmitRatio(uint64_t corpus, uint64_t runs) {
  return Ratio(static_cast<double>(corpus), static_cast<double>(runs));
}

// Guided duplicates: mutants skipped as already scheduled over all mutants
// drawn (skipped + run).
inline double DuplicateRatio(uint64_t skipped, uint64_t mutants_run) {
  return Ratio(static_cast<double>(skipped), static_cast<double>(skipped + mutants_run));
}

// Median of a small sample (set-up repeats); 0 when empty.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
