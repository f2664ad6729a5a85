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
// NEAT fork executor. With event retention enabled, a pristine copy of each
// scheduled closure is kept in a vector indexed by event id (ids are dense
// and monotonic), so the full kernel state — clock, sequence counter, RNG,
// trace length, and the pending event set — can be captured as a value and
// reinstated later on the *same* simulator instance (closures capture
// pointers into the attached component graph, so a checkpoint is only
// meaningful where those components still live and are restored alongside
// it).

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

  // --- checkpoint / restore ---
  //
  // A Checkpoint is a value: plain scalars, an Rng copy, and the sorted ids
  // of the events that were pending at capture time. It deliberately holds
  // no closure — the closures themselves are recovered from the retention
  // vector on Restore, so a checkpoint can be copied, stored in an LRU, or
  // compared without touching captured state.
  struct Checkpoint {
    Time now = kTimeZero;
    uint64_t next_seq = 1;
    uint64_t events_executed = 0;
    Rng rng{1};
    size_t trace_size = 0;
    std::vector<EventId> live;  // sorted ascending; tombstones excluded
  };

  // Event retention keeps a pristine schedule-time copy of every event's
  // closure (slot closures are never invoked in place, so copies taken when
  // retention is switched on are equally pristine). Required for Restore;
  // Snapshot records only ids and works either way.
  void SetEventRetention(bool retain);
  bool event_retention() const { return retain_events_; }
  // Stops retaining newly scheduled events WITHOUT discarding the retained
  // ones — unlike SetEventRetention(false), which tears retention down. Use
  // when a stretch of execution will never be snapshotted (e.g. a case's
  // teardown settle): its events are scheduled past every earlier
  // checkpoint's next_seq, so Restore would discard their retained copies
  // unseen anyway. No Snapshot may be taken while paused (its pending
  // events would not be restorable). Resumed by Restore, or by
  // SetEventRetention(true), which re-adopts any still-pending unretained
  // events.
  void PauseEventRetention();
  bool event_retention_paused() const { return retention_paused_; }
  // Retained closures currently held (pending, run, and cancelled ones
  // alike until a Restore purges the dead branch) — exposed for memory
  // tests.
  size_t retained_events() const { return retained_count_; }

  // Captures the kernel state. Quiescent-point rule: callers snapshot
  // between script steps (no event mid-execution); the capture itself is
  // read-only and excludes tombstoned heap entries by construction.
  Checkpoint Snapshot() const;

  // Reinstates a checkpoint taken earlier on this same instance: rewinds
  // clock/seq/RNG/trace, rebuilds the heap from retained copies of the
  // checkpoint's pending events, and truncates the retained events
  // scheduled after the checkpoint (the abandoned branch re-issues those
  // ids deterministically). Requires event retention to have been on since
  // before the checkpoint; clears any retention pause (the restored branch
  // is snapshotable again).
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
  // One entry per event id. An empty fn marks an id that was never
  // retained: scheduled before retention was switched on, or while it was
  // paused.
  struct RetainedEvent {
    Time when = kTimeZero;
    EventFn fn;
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
  // detlint: allow(snapshot-field): Snapshot records the untombstoned keys' ids, and Restore rebuilds the heap from retained copies of those ids
  std::vector<Key> heap_;
  // Tombstoned entries still sitting in heap_; drives compaction.
  // detlint: allow(snapshot-field): bookkeeping for the heap it is rebuilt with; reset by Restore
  size_t heap_tombstones_ = 0;
  // Closures of pending events, indexed by Key::slot; empty when free.
  // detlint: allow(snapshot-field): storage behind heap_'s keys, cleared and refilled from retained_ by Restore; a snapshot could not copy its closures
  std::vector<EventFn> slots_;
  // detlint: allow(snapshot-field): recycling list for slots_, rebuilt with it by Restore; which slot holds an event never affects order
  std::vector<uint32_t> free_slots_;
  // detlint: allow(snapshot-field): campaign-mode configuration, not per-run state; constant across a fork tree
  bool retain_events_ = false;
  // detlint: allow(snapshot-field): transient guard around Restore itself; never set at a quiescent capture point
  bool retention_paused_ = false;
  // Pristine copies for Restore, indexed by event id (entry 0 is unused).
  // Ids are dense and monotonic, so purging a dead branch is a truncate.
  // detlint: allow(snapshot-field): the durable event log the checkpoint indexes into; Restore truncates and replays it, a snapshot could not copy its closures
  std::vector<RetainedEvent> retained_;
  // detlint: allow(snapshot-field): the number of non-empty retained_ entries, kept in step by Restore's truncate
  size_t retained_count_ = 0;
  Rng rng_;
  TraceLog trace_;
};

}  // namespace sim

#endif  // SIM_SIMULATOR_H_
