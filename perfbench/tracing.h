// The traced run's instrumentation, kept entirely outside the library.
//
// Tracer::Decorate wraps a RunnerFactory so that every runner it builds is
// a timing CaseRunner decorator: it times each boot, ApplyEvent, Finish,
// Snapshot and Restore call before delegating, and reads the simulator,
// network and trace counters around it. After Finish it re-times the
// checkers (check::CheckAll, check::CheckLinearizable) on the final history
// and the coverage fold (neat::TraceCoverage) on the trace records the run
// folded; those re-timings are left out of the case's own time.
// Tracer::WrapCase opens one span per executor call, and every span inside
// it shares its case id.
//
// Counters accumulate per thread (campaign workers never contend) and merge
// on read. Spans are kept in memory up to kMaxSpans and written as JSON
// lines by WriteSpans when the benchmark ends.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "neat/execution.h"
#include "neat/fork.h"

namespace perfbench {

inline constexpr int kNumSystems = 4;
inline constexpr std::array<const char*, kNumSystems> kSystems = {"pbkv", "raftkv", "locksvc",
                                                                  "mqueue"};

// Counts and host time of one system's runner calls.
struct SystemLayers {
  uint64_t cases = 0;
  double case_us = 0;        // executor calls, re-timing excluded
  uint64_t case_events = 0;  // test events in those cases
  uint64_t boots = 0;
  double boot_us = 0;
  uint64_t applies = 0;
  double apply_us = 0;
  uint64_t finishes = 0;
  double finish_us = 0;
  uint64_t sim_events = 0;  // simulator events run inside boot/apply/finish
  uint64_t net_sent = 0;
  uint64_t net_delivered = 0;
  uint64_t net_dropped = 0;
  uint64_t trace_records = 0;  // TraceLog appends
  uint64_t retained_peak = 0;  // simulator retained events, max seen
  double check_all_us = 0;
  double linearizability_us = 0;
  uint64_t history_ops = 0;
  double fold_us = 0;
  uint64_t features = 0;  // ExecutionResult::coverage entries
  uint64_t snapshots = 0;
  double snapshot_us = 0;
  uint64_t restores = 0;
  double restore_us = 0;

  void Merge(const SystemLayers& other);
};

struct Span {
  const char* name = "";
  uint64_t case_id = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  int64_t start_ns = 0;  // since the tracer was built
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

class Tracer {
 public:
  static constexpr uint64_t kMaxSpans = 200000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Runners built by the returned factory are timed and attributed to
  // kSystems[system].
  neat::RunnerFactory Decorate(neat::RunnerFactory factory, int system) const;

  // One case span and case id per call of `executor`.
  neat::CaseExecutor WrapCase(neat::CaseExecutor executor, int system) const;

  // neat::ForkingCaseExecutor / neat::ForkingSessions over a decorated
  // factory, with every case wrapped and the fork counters kept.
  neat::CaseExecutor ForkingExecutor(const neat::RunnerFactory& factory, int system) const;
  neat::SessionFactory ForkingSessions(const neat::RunnerFactory& factory, int system) const;

  std::array<SystemLayers, kNumSystems> Layers() const;
  neat::ForkStats ForkTotals() const;
  uint64_t SpansKept() const { return spans_kept_.load(); }
  uint64_t SpansDropped() const { return spans_dropped_.load(); }

  // Forgets everything recorded so far (the reference pass before timing).
  // Call only while no campaign is running.
  void Reset();

  // Writes every kept span as one JSON object per line.
  bool WriteSpans(const std::string& path) const;

  // --- for the decorator ---
  struct ThreadLog {
    std::array<SystemLayers, kNumSystems> layers;
    std::vector<Span> spans;
    uint32_t thread = 0;
    uint64_t next_span = 0;
  };
  ThreadLog& Log() const;
  int64_t NowNs() const;
  void Record(ThreadLog& log, const Span& span) const;

 private:
  const uint64_t id_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  // guards logs_ and fork_stats_
  mutable std::vector<std::unique_ptr<ThreadLog>> logs_;
  mutable std::vector<std::shared_ptr<neat::ForkStats>> fork_stats_;
  mutable std::atomic<uint64_t> spans_kept_{0};
  mutable std::atomic<uint64_t> spans_dropped_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
