// Incremental trace folding.
//
// TraceCoverage (neat/coverage.h) and Summarize (neat/trace_report.h) are
// left-folds over the simulation trace, but were historically written as
// whole-trace scans. For the fork executor (neat/fork.h) that re-scan was
// the same waste the snapshots eliminate for execution: a forked case paid
// O(full trace) at Finish even though everything before its fork point had
// been scanned by the parent already. TraceScan is the fold's state made
// explicit — a value that advances over newly appended records, travels
// inside runner snapshots, and rewinds with a Restore, so a forked case
// only ever folds its own suffix.
//
// The full-scan entry points are wrappers over a fresh TraceScan, so the
// incremental and one-shot paths cannot drift apart.

#ifndef NEAT_TRACE_SCAN_H_
#define NEAT_TRACE_SCAN_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/causal.h"
#include "neat/trace_report.h"
#include "sim/trace.h"

namespace neat {

class TraceScan {
 public:
  // Folds the records appended since the last Advance (all of them on a
  // fresh scan). The trace must be the same log the scan has been following
  // and must not have been truncated below the scan's position — the fork
  // machinery guarantees both by restoring scan state and trace together.
  // When the trace is in causal mode, the embedded CausalFold advances in
  // lockstep (also suffix-only), feeding the "cy:" feature family.
  void Advance(const sim::TraceLog& trace);

  // The features TraceCoverage(trace) would return for the records folded
  // so far: sorted, distinct "bi:" bigram, "ph:" phase, and (causal mode
  // only) "cy:" cascade-signature features. Event names and message types
  // are escaped (check::EscapeLabelAtom) before being joined, so a name
  // containing '>' or ':' cannot collide with a different bigram or phase
  // sighting.
  std::vector<std::string> Features() const;

  // The report Summarize(trace) would return for the records folded so far.
  // Leadership records are stored as indices while folding (cheap to copy
  // into snapshots) and materialized from `trace` here.
  TraceReport Report(const sim::TraceLog& trace) const;

  size_t position() const { return pos_; }

  bool operator==(const TraceScan&) const = default;

 private:
  // Heterogeneous comparators so per-record membership probes use views
  // parsed out of the live records instead of materializing keys.
  struct PairLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const int first = std::string_view(a.first).compare(std::string_view(b.first));
      if (first != 0) {
        return first < 0;
      }
      return std::string_view(a.second) < std::string_view(b.second);
    }
  };
  struct PhaseLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.first != b.first) {
        return a.first < b.first;
      }
      return std::string_view(a.second) < std::string_view(b.second);
    }
  };

  size_t pos_ = 0;

  // Coverage fold: distinct consecutive event-name pairs and distinct
  // (phase, name) sightings; owned strings because record storage may move
  // between Advance calls. (The record before pos_ always survives a
  // restore — truncation stops at the snapshot's size — so bigrams can
  // bridge Advance calls by reading records()[i - 1] directly.)
  std::set<std::pair<std::string, std::string>, PairLess> bigrams_;
  char phase_ = 'b';
  std::set<std::pair<char, std::string>, PhaseLess> phase_features_;

  // Report fold (mirrors Summarize's accumulation).
  std::map<std::string, size_t, std::less<>> event_counts_;
  std::map<std::string, size_t, std::less<>> drops_per_link_;
  std::vector<size_t> leadership_records_;

  // Cascade fold, advanced only for causal-mode traces (a non-causal trace
  // has no message edges, so folding it would find nothing). Value state:
  // copies into snapshots and rewinds with the rest of the scan.
  check::CausalFold causal_;
};

}  // namespace neat

#endif  // NEAT_TRACE_SCAN_H_
