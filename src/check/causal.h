// Cascading-failure detection over the causal trace graph.
//
// The paper's 136 failures are single-manifestation sequences, but a
// neighboring class — leader-election thrash, retry storms, failure-
// detector flapping — is *self-sustaining*: the system's reaction to a
// fault re-triggers the fault. Following CSnake ("Detecting Self-Sustaining
// Cascading Failure via Causal Stitching of Fault Propagations"), we detect
// that class as a cycle in the causal graph of the trace, abstracted to
// recurring event labels.
//
// The concrete happens-before graph (sim/trace.h: record ids + cause ids +
// per-component program order) is a DAG — time only moves forward — so the
// cascade signal is recurrence: collapse each record to an abstract label
//
//   system records  ->  "<component-class>:<event>"      ("pbkv:step-down")
//   net records     ->  "net:<event>:<message-type>"     ("net:send:pbkv.RequestVote")
//
// (component-class = the component up to its first '.', so every node of a
// system folds onto one class), accumulate edges between labels from the
// concrete cause edges and per-component program order, and look for
// strongly connected components among edges that recurred at least
// `min_laps` times. A label cycle traversed over and over is exactly a
// self-sustaining loop: step-down -> election-start -> RequestVote ->
// elected -> step-down, lap after lap.
//
// Two guards keep benign periodicity out:
//   - program-order self-loops (heartbeat -> heartbeat) are not edges; a
//     cascade needs at least two distinct labels, and
//   - a cycle must contain at least one *message* edge (derived from a
//     concrete cause id, i.e. fault propagation across a handler boundary),
//     so a timer-driven local alternation alone never flags.
//
// The fold is an incremental value, like neat::TraceScan: it advances over
// newly appended records only, travels inside fork snapshots by copy, and
// rewinds with the trace on restore, so forked cases stay suffix-only and
// byte-identical with replay.

#ifndef CHECK_CAUSAL_H_
#define CHECK_CAUSAL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/history.h"
#include "sim/trace.h"

namespace check {

// Escapes '%', ':', '>', and '|' in a label atom (an event name, component
// class, or message type) so composite keys built by joining atoms with
// those separators are unambiguous: "a>b" becomes "a%3eb". Also used by the
// neat coverage layer for its "bi:"/"ph:" feature keys.
std::string EscapeLabelAtom(const std::string& atom);

struct CascadeOptions {
  // An abstract edge participates in cycle detection only after it has been
  // traversed this many times; one or two laps are a startup transient, a
  // recurring loop is a cascade.
  uint64_t min_laps = 3;
  // When positive, a cascade is reported only if every edge of its cycle
  // was traversed at least this many times after the heal — the "survives
  // the heal" criterion. Zero reports cascades regardless of phase (a
  // partition-long thrash that stops at heal still burned the partition
  // window; post_heal_laps tells the caller which kind it saw).
  uint64_t min_post_heal_laps = 0;
};

// One detected self-sustaining cycle.
struct Cascade {
  // Canonical signature: the cycle's labels, sorted, joined with '|'.
  // Stable across runs; used as the "cy:" coverage feature.
  std::string signature;
  // Minimum traversal count over the cycle's edges — how many full laps
  // the loop is guaranteed to have made.
  uint64_t laps = 0;
  // Same minimum restricted to traversals after the heal record.
  uint64_t post_heal_laps = 0;
};

// Incremental fold from trace records to the abstract causal-edge
// multigraph. Value-copyable: snapshot by copy, restore by copy-back.
class CausalFold {
 public:
  // Folds the records appended since the last Advance. Same contract as
  // TraceScan::Advance: `trace` must be the log the fold has been following
  // and must not have been truncated below the fold's position.
  void Advance(const sim::TraceLog& trace);

  // The cascades in the folded graph, sorted by signature.
  std::vector<Cascade> Cascades(const CascadeOptions& options = {}) const;

  size_t position() const { return pos_; }

  bool operator==(const CausalFold&) const = default;

 private:
  struct EdgeStats {
    uint64_t laps = 0;
    uint64_t post_heal_laps = 0;
    bool message = false;  // at least one traversal came from a cause edge
    bool operator==(const EdgeStats&) const = default;
  };

  // Interns `label`, returning its dense index.
  int32_t Intern(std::string label);
  void AddEdge(int32_t from, int32_t to, bool message);

  size_t pos_ = 0;
  char phase_ = 'b';  // 'b'efore / 'p'artitioned / 'h'ealed, from neat records

  std::vector<std::string> label_names_;          // index -> label
  std::map<std::string, int32_t> label_ids_;      // label -> index
  std::vector<int32_t> label_of_record_;          // record id - 1 -> label (-1: none)
  std::map<std::string, int32_t> last_in_component_;  // program-order tail
  std::map<std::pair<int32_t, int32_t>, EdgeStats> edges_;
};

// Runs a fresh fold over the whole trace and renders every cascade as a
// violation (impact "cascading failure"). Intended to be called only when
// the trace was collected with causal mode on (sim::TraceLog::set_causal);
// without send/deliver records no message edge exists and nothing flags.
std::vector<Violation> CheckCascades(const sim::TraceLog& trace,
                                     const CascadeOptions& options = {});

}  // namespace check

#endif  // CHECK_CAUSAL_H_
