// Operation histories and the violation vocabulary of the paper.
//
// Every client operation run through the NEAT test engine is recorded here
// with its invocation/completion times and outcome. The checkers in
// checkers.h scan a history for the catastrophic impacts the study
// catalogues (Table 2): data loss, stale reads, dirty reads, reappearance of
// deleted data, broken locks, double dequeueing, and double execution.

#ifndef CHECK_HISTORY_H_
#define CHECK_HISTORY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace check {

enum class OpType {
  kWrite,
  kRead,
  kDelete,
  kCas,
  kLock,
  kUnlock,
  kSemAcquire,
  kSemRelease,
  kEnqueue,
  kDequeue,
  kSubmitTask,
  kOther,
};

enum class OpStatus {
  kOk,
  kFail,     // the system reported failure
  kTimeout,  // no response; outcome unknown
};

struct Operation {
  uint64_t id = 0;
  int client = 0;
  OpType type = OpType::kOther;
  std::string key;
  // For writes/enqueues: the value written. For reads/dequeues: the value
  // returned (empty when the key was absent / queue empty).
  std::string value;
  OpStatus status = OpStatus::kOk;
  sim::Time invoked = sim::kTimeZero;
  sim::Time completed = sim::kTimeZero;
  // Verification reads issued after the partition healed and the system
  // quiesced are marked final; several checkers only apply to them.
  bool final_read = false;
  bool operator==(const Operation&) const = default;
};

const char* OpTypeName(OpType type);
const char* OpStatusName(OpStatus status);

class History {
 public:
  // Records a completed operation and returns its id.
  uint64_t Record(Operation op);

  const std::vector<Operation>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }
  void Clear() { ops_.clear(); }

  // Operations on `key` of type `type`, in record order.
  std::vector<Operation> OfType(OpType type) const;
  std::vector<Operation> ForKey(const std::string& key) const;

  // The last successful write to `key` (by completion time), if any.
  std::optional<Operation> LastAckedWrite(const std::string& key) const;

  std::string Dump() const;

  // --- snapshot / restore (NEAT fork executor) ---
  //
  // The history is append-only, so a snapshot is just its length plus the
  // id counter; restore rewinds to that length.
  struct State {
    uint64_t next_id = 1;
    size_t size = 0;
  };
  State CaptureState() const { return State{next_id_, ops_.size()}; }
  void RestoreState(const State& state) {
    next_id_ = state.next_id;
    if (ops_.size() > state.size) {
      ops_.resize(state.size);
    }
  }

 private:
  uint64_t next_id_ = 1;
  std::vector<Operation> ops_;
};

// One detected safety violation.
struct Violation {
  // Matches the impact vocabulary of Table 2, e.g. "data loss", "stale
  // read", "dirty read", "reappearance of deleted data", "broken locks",
  // "double dequeue", "double execution", "data unavailability".
  std::string impact;
  std::string description;
  std::vector<uint64_t> op_ids;
};

}  // namespace check

#endif  // CHECK_HISTORY_H_
