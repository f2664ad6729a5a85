#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sim {

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

EventId Simulator::Schedule(Duration delay, EventFn fn) {
  assert(delay >= 0 && "cannot schedule in the past");
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(Time when, EventFn fn) {
  assert(when >= now_ && "cannot schedule in the past");
  const EventId id = next_seq_;
  ++next_seq_;
  Push(when, id, std::move(fn));
  return id;
}

void Simulator::Push(Time when, uint64_t seq, EventFn fn) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Key{when, seq, slot, false});
  std::push_heap(heap_.begin(), heap_.end(), KeyLater{});
}

bool Simulator::Cancel(EventId id) {
  // Lazy cancellation: the key stays in the heap as a tombstone and is
  // discarded when it reaches the top — or collectively, once tombstones
  // outnumber the live half of the heap (cancel-heavy workloads would
  // otherwise grow the heap without bound). The closure is released now.
  const auto it = std::find_if(heap_.begin(), heap_.end(), [id](const Key& key) {
    return key.seq == id && !key.cancelled;
  });
  if (it == heap_.end()) {
    return false;
  }
  it->cancelled = true;
  slots_[it->slot].Reset();
  free_slots_.push_back(it->slot);
  ++heap_tombstones_;
  if (heap_tombstones_ * 2 > heap_.size()) {
    CompactHeap();
  }
  return true;
}

void Simulator::DropCancelled() {
  while (!heap_.empty() && heap_.front().cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), KeyLater{});
    heap_.pop_back();
    --heap_tombstones_;
  }
}

void Simulator::CompactHeap() {
  std::erase_if(heap_, [](const Key& key) { return key.cancelled; });
  std::make_heap(heap_.begin(), heap_.end(), KeyLater{});
  heap_tombstones_ = 0;
}

bool Simulator::QueueEmpty() {
  DropCancelled();
  return heap_.empty();
}

void Simulator::RunOne() {
  std::pop_heap(heap_.begin(), heap_.end(), KeyLater{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Move the closure out before running it: the callback may schedule
  // events, which can grow (and so reallocate) the slot array.
  EventFn fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.when;
  ++events_executed_;
  // Each event runs with a clean cause context: a BindCause issued inside a
  // handler (cluster/process.cc) is scoped to that event and cannot leak
  // into an unrelated timer callback.
  CauseScope scope(trace_, 0);
  fn();
}

uint64_t Simulator::RunUntilIdle() {
  uint64_t n = 0;
  while (!QueueEmpty()) {
    RunOne();
    ++n;
  }
  return n;
}

uint64_t Simulator::RunUntil(Time deadline) {
  uint64_t n = 0;
  while (!QueueEmpty() && NextEventTime() <= deadline) {
    RunOne();
    ++n;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

uint64_t Simulator::RunFor(Duration delta) { return RunUntil(now_ + delta); }

Simulator::Checkpoint Simulator::Snapshot() const {
  Checkpoint checkpoint;
  checkpoint.now = now_;
  checkpoint.next_seq = next_seq_;
  checkpoint.events_executed = events_executed_;
  checkpoint.rng = rng_;
  checkpoint.trace_size = trace_.size();
  checkpoint.pending.reserve(pending_events());
  for (const Key& key : heap_) {
    if (!key.cancelled) {
      checkpoint.pending.push_back({key.when, key.seq, slots_[key.slot]});
    }
  }
  return checkpoint;
}

void Simulator::Restore(const Checkpoint& checkpoint) {
  assert(checkpoint.next_seq <= next_seq_ &&
         "checkpoint must come from this simulator's past");
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
  heap_tombstones_ = 0;
  for (const Checkpoint::Event& event : checkpoint.pending) {
    Push(event.when, event.seq, event.fn);
  }
  now_ = checkpoint.now;
  next_seq_ = checkpoint.next_seq;
  events_executed_ = checkpoint.events_executed;
  rng_ = checkpoint.rng;
  trace_.Truncate(checkpoint.trace_size);
}

bool Simulator::RunUntilPredicate(const std::function<bool()>& pred, Time deadline) {
  if (pred()) {
    return true;
  }
  while (!QueueEmpty() && NextEventTime() <= deadline) {
    RunOne();
    if (pred()) {
      return true;
    }
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return pred();
}

}  // namespace sim
