// Fixture: snapshot-field-coverage. Tracker carries the seeded omission —
// cache_ is folded into the capture but never restored — plus a member
// missing from both sides, the exempt shapes (const, raw pointer), and a
// member excused with the allow(snapshot-field) shorthand.
#ifndef TESTS_DETLINT_FIXTURES_SNAPSHOT_FIELD_SRC_TRACKER_H_
#define TESTS_DETLINT_FIXTURES_SNAPSHOT_FIELD_SRC_TRACKER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace systems {

class Tracker {
 public:
  struct State {
    std::vector<uint64_t> log;
    uint64_t seq = 0;
  };

  State Snapshot() const {
    State state;
    state.log = log_;
    state.log.push_back(cache_);  // folded in on capture...
    state.seq = seq_;
    return state;
  }

  void Restore(const State& state) {
    log_ = state.log;  // ...but never unfolded on restore
    seq_ = state.seq;
  }

 private:
  std::vector<uint64_t> log_;
  uint64_t seq_ = 0;
  uint64_t cache_ = 0;
  int dropped_ = 0;
  const int limit_ = 8;
  Tracker* parent_ = nullptr;
  // detlint: allow(snapshot-field): rebuilt lazily on first use
  std::string memo_;
};

// Ledger has the shape the model systems use: its mutable fields live in a
// state value it inherits privately, so its capture/restore bodies name no
// member, and stray_, declared outside that value, is flagged.
struct LedgerState {
  std::vector<uint64_t> entries_;
  uint64_t seq_ = 0;
  bool operator==(const LedgerState&) const = default;
};

class Ledger : private LedgerState {
 public:
  using State = LedgerState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 private:
  const int limit_ = 8;
  uint64_t stray_ = 0;
};

}  // namespace systems

#endif  // TESTS_DETLINT_FIXTURES_SNAPSHOT_FIELD_SRC_TRACKER_H_
