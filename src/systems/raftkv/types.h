// Configuration and log types for the Raft-based key-value store.
//
// raftkv models RethinkDB in the study: a strongly consistent store built
// on Raft, with the documented protocol tweak as a knob. RethinkDB #5289:
// "unlike Raft, when an admin removes a replica from the cluster, the
// removed replica deletes its Raft log". Under a partial partition this
// "apparently minor tweak" creates two replica sets for the same keys —
// the old-configuration majority (which never heard about the removal and
// counts the amnesiac replica) and the new-configuration majority.

#ifndef SYSTEMS_RAFTKV_TYPES_H_
#define SYSTEMS_RAFTKV_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "sim/time.h"

namespace raftkv {

enum class CommandKind {
  kNoop,    // leader barrier entry at term start
  kPut,
  kDelete,
  kGet,     // reads serialize through the log (linearizable)
  kConfig,  // membership change
};

struct Command {
  CommandKind kind = CommandKind::kNoop;
  std::string key;
  std::string value;
  // For kConfig: the new member set.
  std::vector<net::NodeId> members;
  bool operator==(const Command&) const = default;
};

struct LogEntry {
  uint64_t term = 0;
  uint64_t index = 0;
  Command command;
  bool operator==(const LogEntry&) const = default;
};

struct Options {
  // The RethinkDB #5289 tweak: a replica that learns it was removed deletes
  // its entire Raft log (and with it, its memory of the removal), instead
  // of retiring with its log intact.
  bool delete_log_on_removal = false;

  sim::Duration heartbeat_interval = sim::Milliseconds(50);
  // Election timeouts are drawn uniformly from [min, max).
  sim::Duration election_timeout_min = sim::Milliseconds(300);
  sim::Duration election_timeout_max = sim::Milliseconds(600);

  // Collect the trace in causal mode (sim::TraceLog::set_causal) so the
  // cascade checker (check/causal.h) can stitch the happens-before graph.
  // Off by default: non-causal traces stay byte-identical.
  bool causal_trace = false;
};

inline Options CorrectOptions() { return Options{}; }

inline Options RethinkDbOptions() {
  Options options;
  options.delete_log_on_removal = true;
  return options;
}

}  // namespace raftkv

#endif  // SYSTEMS_RAFTKV_TYPES_H_
