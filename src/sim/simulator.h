// The discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and an event queue. Components schedule
// closures to run at future virtual times; the run loop pops events in
// (time, sequence) order, so execution is fully deterministic for a given
// seed and schedule. Events can be cancelled, which is how crashed processes
// retract their pending timers.
//
// The per-event path performs no heap allocation once the kernel's vectors
// have grown to the workload's high-water mark:
//   - closures live in a slot array of EventFn (sim/event_fn.h), which
//     stores delivery- and timer-sized captures inline; freed slots are
//     recycled through a free list;
//   - the queue is a binary min-heap of small (when, seq, slot) keys, so
//     sifting moves 24-byte keys and never a closure;
//   - cancellation sets a tombstone bit on the key. Cancel finds the key by
//     scanning the heap, which holds tens of entries while Cancel runs a
//     few times per client operation. Tombstones are discarded when they
//     surface, or all at once when they outnumber half the heap (cancel-
//     heavy workloads would otherwise grow it without bound).
// Sequence numbers are unique, so the (time, sequence) order is total and
// ties cannot reorder however the heap is rebuilt.
//
// The kernel also supports checkpoint/restore (Snapshot/Restore) for the
// NEAT fork executor. A checkpoint is a value: the clock, sequence counter,
// RNG, trace length, and a copy of every pending event (time, sequence,
// closure). It is reinstated only on the *same* simulator instance:
// closures capture pointers into the attached component graph, so a
// checkpoint is only meaningful where those components still live and are
// restored alongside it.

#ifndef SIM_SIMULATOR_H_
#define SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace sim {

// Identifies a scheduled event so it can be cancelled. Ids are never reused.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time Now() const { return now_; }
  Rng& Rand() { return rng_; }
  TraceLog& Trace() { return trace_; }

  // Schedules `fn` to run `delay` microseconds from now. A zero delay runs
  // the event on the next loop iteration, after already-queued events at the
  // current time.
  EventId Schedule(Duration delay, EventFn fn);

  // Schedules at an absolute virtual time, which must be >= Now().
  EventId ScheduleAt(Time when, EventFn fn);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or never existed.
  bool Cancel(EventId id);

  // Runs events until the queue drains. Returns the number of events run.
  uint64_t RunUntilIdle();

  // Runs events with time <= deadline, then advances the clock to exactly
  // `deadline` (even if the queue drained earlier). Returns events run.
  uint64_t RunUntil(Time deadline);

  // Convenience: RunUntil(Now() + delta).
  uint64_t RunFor(Duration delta);

  // Runs until `pred()` is true (checked after every event) or the queue
  // drains or `deadline` passes. Returns true if the predicate fired.
  bool RunUntilPredicate(const std::function<bool()>& pred, Time deadline);

  uint64_t events_executed() const { return events_executed_; }
  // Scheduled events that are neither run nor cancelled (tombstoned heap
  // entries are excluded).
  size_t pending_events() const { return heap_.size() - heap_tombstones_; }
  // Raw heap entries including tombstones — exposed so tests can pin the
  // compaction bound (heap size stays O(live) under cancel-heavy load).
  size_t heap_size() const { return heap_.size(); }

  // Kept for perfbench's sim.retained_events_peak row: the only closures
  // the kernel holds are its pending ones.
  size_t retained_events() const { return pending_events(); }

  // --- checkpoint / restore ---
  //
  // A Checkpoint is a value: plain scalars, an Rng copy, and a copy of each
  // pending event. Slot closures are never invoked in place (RunOne moves
  // an event out before running it), so a copy taken here is as pristine
  // as one taken at schedule time. Restore copies the events back and
  // leaves the checkpoint untouched, so one checkpoint restores any number
  // of times.
  struct Checkpoint {
    struct Event {
      Time when = kTimeZero;
      uint64_t seq = 0;
      EventFn fn;
    };
    Time now = kTimeZero;
    uint64_t next_seq = 1;
    uint64_t events_executed = 0;
    Rng rng{1};
    size_t trace_size = 0;
    std::vector<Event> pending;  // heap order; tombstones excluded
  };

  // Captures the kernel state. Quiescent-point rule: callers snapshot
  // between script steps (no event mid-execution); the capture itself is
  // read-only and excludes tombstoned heap entries by construction.
  Checkpoint Snapshot() const;

  // Reinstates a checkpoint taken earlier on this same instance: rewinds
  // clock/seq/RNG/trace and rebuilds the heap from copies of the
  // checkpoint's pending events. Sequence numbers are unique, so the
  // rebuilt heap pops them in the captured order, and the restored branch
  // re-issues the abandoned branch's ids deterministically.
  void Restore(const Checkpoint& checkpoint);

 private:
  // A heap key: the event's order and where its closure lives.
  struct Key {
    Time when;
    uint64_t seq;  // doubles as the EventId
    uint32_t slot;
    bool cancelled;
  };
  // Min-heap comparator for std::push_heap/pop_heap (which build max-heaps).
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  // Stores `fn` in a free slot and pushes its key.
  void Push(Time when, uint64_t seq, EventFn fn);
  // Pops cancelled entries off the top until the heap is empty or live.
  void DropCancelled();
  // Rebuilds the heap without tombstones (run when they exceed half of it).
  void CompactHeap();
  // True when no live event remains (prunes tombstones first).
  bool QueueEmpty();
  // The time of the earliest live event. Requires !QueueEmpty().
  Time NextEventTime() const { return heap_.front().when; }
  // Pops and runs the earliest live event. Requires !QueueEmpty().
  void RunOne();

  Time now_ = kTimeZero;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  std::vector<Key> heap_;
  // Tombstoned entries still sitting in heap_; drives compaction.
  // detlint: allow(snapshot-field): bookkeeping for the heap; Restore rebuilds the heap without tombstones and resets it
  size_t heap_tombstones_ = 0;
  // Closures of pending events, indexed by Key::slot; empty when free.
  std::vector<EventFn> slots_;
  // detlint: allow(snapshot-field): recycling list for slots_, rebuilt with it by Restore; which slot holds an event never affects order
  std::vector<uint32_t> free_slots_;
  Rng rng_;
  TraceLog trace_;
};

}  // namespace sim

#endif  // SIM_SIMULATOR_H_
