// Unit tests for the discrete-event simulation kernel.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/partition.h"
#include "sim/event_fn.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/trace.h"

// Counts every global operator new in this test binary, so the allocation
// test can pin the kernel's per-event path at zero. Every replaceable
// non-aligned form is replaced, so that sanitizer runtimes, which supply
// their own, never pair one of theirs with one of these.
namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedMalloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Kept out of line so the compiler pairs call sites with these operators,
// not with the malloc/free inside them.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sim {
namespace {

TEST(TimeTest, FormatsUnits) {
  EXPECT_EQ(FormatTime(15), "15us");
  EXPECT_EQ(FormatTime(Milliseconds(2) + 500), "2.500ms");
  EXPECT_EQ(FormatTime(Seconds(3)), "3.000s");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(Milliseconds(3), [&order]() { order.push_back(3); });
  s.Schedule(Milliseconds(1), [&order]() { order.push_back(1); });
  s.Schedule(Milliseconds(2), [&order]() { order.push_back(2); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakBySchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(Milliseconds(1), [&order]() { order.push_back(1); });
  s.Schedule(Milliseconds(1), [&order]() { order.push_back(2); });
  s.Schedule(Milliseconds(1), [&order]() { order.push_back(3); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator s;
  Time seen = -1;
  s.Schedule(Milliseconds(5), [&]() { seen = s.Now(); });
  s.RunUntilIdle();
  EXPECT_EQ(seen, Milliseconds(5));
  EXPECT_EQ(s.Now(), Milliseconds(5));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int ran = 0;
  s.Schedule(Milliseconds(1), [&]() { ++ran; });
  s.Schedule(Milliseconds(10), [&]() { ++ran; });
  s.RunUntil(Milliseconds(5));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.Now(), Milliseconds(5));
  s.RunUntilIdle();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator s;
  s.RunUntil(Seconds(2));
  EXPECT_EQ(s.Now(), Seconds(2));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  EventId id = s.Schedule(Milliseconds(1), [&]() { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // second cancel fails
  s.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(s.Schedule(Milliseconds(i + 1), []() {}));
  }
  EXPECT_EQ(s.pending_events(), 5u);
  EXPECT_TRUE(s.Cancel(ids[1]));
  EXPECT_TRUE(s.Cancel(ids[3]));
  EXPECT_EQ(s.pending_events(), 3u);
  EXPECT_EQ(s.RunUntilIdle(), 3u);
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, CancelledEventsDoNotAdvanceTheClock) {
  Simulator s;
  EventId id = s.Schedule(Seconds(10), []() {});
  s.Cancel(id);
  EXPECT_EQ(s.RunUntilIdle(), 0u);
  EXPECT_EQ(s.Now(), kTimeZero);
}

TEST(SimulatorTest, EventsCanCancelLaterEventsAtTheSameTime) {
  Simulator s;
  bool victim_ran = false;
  EventId victim = kInvalidEventId;
  s.Schedule(Milliseconds(1), [&]() { EXPECT_TRUE(s.Cancel(victim)); });
  victim = s.Schedule(Milliseconds(1), [&]() { victim_ran = true; });
  s.RunUntilIdle();
  EXPECT_FALSE(victim_ran);
}

TEST(SimulatorTest, CancelAfterRunFails) {
  Simulator s;
  EventId id = s.Schedule(0, []() {});
  s.RunUntilIdle();
  EXPECT_FALSE(s.Cancel(id));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      s.Schedule(Milliseconds(1), recurse);
    }
  };
  s.Schedule(Milliseconds(1), recurse);
  s.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.Now(), Milliseconds(5));
}

TEST(SimulatorTest, RunUntilPredicateStopsEarly) {
  Simulator s;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    s.Schedule(Milliseconds(i + 1), [&]() { ++count; });
  }
  const bool fired = s.RunUntilPredicate([&]() { return count == 3; }, Seconds(1));
  EXPECT_TRUE(fired);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilPredicateRespectsDeadline) {
  Simulator s;
  const bool fired = s.RunUntilPredicate([]() { return false; }, Milliseconds(10));
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.Now(), Milliseconds(10));
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) {
    s.Schedule(i, []() {});
  }
  s.RunUntilIdle();
  EXPECT_EQ(s.events_executed(), 7u);
}

// --- EventFn ---

// Counts live copies of itself, so construction and destruction can be
// checked for balance through every copy, move and assignment.
struct Tracked {
  explicit Tracked(int* live_count) : live(live_count) { ++*live; }
  Tracked(const Tracked& other) : live(other.live) { ++*live; }
  Tracked(Tracked&& other) noexcept : live(other.live) { ++*live; }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --*live; }
  int* live;
};

TEST(EventFnTest, StoresUpToTheInlineSizeInPlaceAndLargerClosuresOnTheHeap) {
  int sum = 0;
  std::array<char, EventFn::kInlineSize - sizeof(int*)> fits{};
  fits[0] = 1;
  auto at_limit = [&sum, fits]() { sum += fits[0]; };
  static_assert(sizeof(at_limit) == EventFn::kInlineSize);
  std::array<char, EventFn::kInlineSize> spills{};
  spills[0] = 2;
  auto over_limit = [&sum, spills]() { sum += spills[0]; };
  static_assert(sizeof(over_limit) > EventFn::kInlineSize);

  EventFn inline_fn = at_limit;
  EventFn heap_fn = over_limit;
  EXPECT_TRUE(inline_fn.stored_inline());
  EXPECT_FALSE(heap_fn.stored_inline());
  EventFn heap_copy = heap_fn;
  EXPECT_FALSE(heap_copy.stored_inline());
  inline_fn();
  heap_fn();
  heap_copy();
  EXPECT_EQ(sum, 5);

  EventFn empty;
  EXPECT_FALSE(empty);
  EXPECT_FALSE(empty.stored_inline());
  EventFn moved = std::move(heap_fn);
  EXPECT_FALSE(heap_fn);  // a moved-from EventFn is empty
  moved();
  EXPECT_EQ(sum, 7);
}

// The kernel retains a copy of each event and runs another; a `mutable`
// closure that consumes its captures when it runs (Process::ScheduleTick
// moves its callback on to the next tick) must leave the retained copy
// untouched, whether the closure is stored inline or on the heap.
TEST(EventFnTest, CopyStaysPristineAfterTheRunningCopyConsumesItsCaptures) {
  std::vector<std::string> out;
  auto consume = [&out](std::vector<std::string>& words) {
    for (std::string& word : words) {
      out.push_back(std::move(word));
    }
    words.clear();
  };
  std::vector<std::string> words{"a", "b"};  // non-const: captures copy its type
  EventFn small = [&consume, words]() mutable { consume(words); };
  EventFn large = [&consume, words, pad = std::array<char, 128>{}]() mutable {
    (void)pad;
    consume(words);
  };
  ASSERT_TRUE(small.stored_inline());
  ASSERT_FALSE(large.stored_inline());
  for (EventFn* running : {&small, &large}) {
    out.clear();
    EventFn retained = *running;
    (*running)();
    (*running)();  // its captures are spent
    retained();
    EXPECT_EQ(out, (std::vector<std::string>{"a", "b", "a", "b"}));
  }
}

TEST(EventFnTest, ConstructionAndDestructionStayBalanced) {
  int live = 0;
  {
    Tracked tracked(&live);  // non-const, so captured copies move noexcept
    EventFn a = [tracked]() {};
    EventFn b = [tracked, pad = std::array<char, 128>{}]() { (void)pad; };
    ASSERT_TRUE(a.stored_inline());
    ASSERT_FALSE(b.stored_inline());
    EXPECT_EQ(live, 3);
    EventFn c = a;
    EventFn d = b;
    EventFn e = std::move(a);
    EventFn f = std::move(b);
    EXPECT_EQ(live, 5);  // moves relocate, they never duplicate
    c = d;               // inline replaced by a heap copy
    e = std::move(f);    // inline replaced by a stolen heap box
    EXPECT_EQ(live, 4);
    d.Reset();
    EventFn g;
    g = e;
    g = g;  // self-assignment keeps the closure
    EXPECT_EQ(live, 4);
    g = EventFn{};
    EXPECT_EQ(live, 3);
  }
  EXPECT_EQ(live, 0);

  // The same balance through the kernel: a checkpoint's copies of the
  // pending closures stay live while the checkpoint exists and are
  // released with it; cancelled and run events, the closures a Restore
  // replaces, and teardown release theirs.
  {
    Tracked tracked(&live);
    Simulator s;
    s.Schedule(Milliseconds(2), [tracked]() {});
    s.Schedule(Milliseconds(3), [tracked, pad = std::array<char, 96>{}]() { (void)pad; });
    EXPECT_EQ(live, 3);
    {
      const Simulator::Checkpoint start = s.Snapshot();
      EXPECT_EQ(live, 5);
      for (int branch = 0; branch < 3; ++branch) {
        std::vector<EventId> ids;
        for (int i = 0; i < 8; ++i) {
          ids.push_back(s.Schedule(Milliseconds(i + 1), [tracked]() {}));
          s.Schedule(Milliseconds(i + 1), [tracked, pad = std::array<char, 96>{}]() { (void)pad; });
        }
        s.Cancel(ids[2]);
        s.RunFor(Milliseconds(4));
        s.Restore(start);
        EXPECT_EQ(live, 5);
      }
    }
    EXPECT_EQ(live, 3);
    s.Schedule(Milliseconds(1), [tracked]() {});
  }
  EXPECT_EQ(live, 0);
}

struct AllocationProbe final : net::MessageOf<AllocationProbe> {
  static constexpr net::MessageType kType{"AllocationProbe"};
};

// Once the kernel's vectors have grown to the workload's high-water mark,
// scheduling and running an event allocates nothing, and neither does
// restoring a checkpoint of them, for closures shaped like the
// network-delivery closure (a pointer plus an Envelope) and the
// Process::Every tick closure (a pointer, epoch, period and std::function).
TEST(SimulatorAllocation, DeliveryAndTimerSizedEventsAllocateNothingAfterWarmUp) {
  Simulator s;
  s.Trace().set_enabled(false);
  uint64_t ran = 0;
  const auto msg = std::make_shared<const AllocationProbe>();
  const std::function<void()> body = [&ran]() { ++ran; };
  const uint64_t epoch = 1;
  const Duration period = Milliseconds(1);
  auto schedule_batch = [&]() {
    for (int i = 0; i < 5000; ++i) {
      const net::Envelope envelope{1, 2, s.Now(), msg, static_cast<uint64_t>(i)};
      auto delivery = [counter = &ran, envelope]() mutable {
        const net::Envelope delivered = std::move(envelope);
        *counter += delivered.msg != nullptr ? 1 : 0;
      };
      auto tick = [counter = &ran, epoch, period, fn = body]() mutable {
        if (*counter > 0 && epoch == 1 && period > 0) {
          fn();
        }
      };
      static_assert(sizeof(delivery) == sizeof(void*) + sizeof(net::Envelope));
      static_assert(sizeof(tick) == sizeof(void*) + 16 + sizeof(std::function<void()>));
      static_assert(EventFn::kStoresInline<decltype(delivery)>);
      static_assert(EventFn::kStoresInline<decltype(tick)>);
      s.Schedule(i % 97, std::move(delivery));
      s.Schedule(i % 89, std::move(tick));
    }
  };

  schedule_batch();  // warm-up: grows the heap, slot and free-list vectors
  s.RunUntilIdle();
  uint64_t before = g_allocations.load();
  schedule_batch();
  s.RunUntilIdle();
  EXPECT_EQ(g_allocations.load() - before, 0u) << "schedule and run";

  // A checkpoint of a full pending batch: Restore copies every closure
  // back into the slots.
  schedule_batch();
  const Simulator::Checkpoint start = s.Snapshot();
  s.RunUntilIdle();
  s.Restore(start);  // warm-up
  s.RunUntilIdle();
  before = g_allocations.load();
  s.Restore(start);
  s.RunUntilIdle();
  EXPECT_EQ(g_allocations.load() - before, 0u) << "Restore and run";
  EXPECT_EQ(ran, 5u * 2u * 5000u);
}

// Regression: NextBelow(0) used to compute `(0 - 0) % 0` — an integer
// division by zero that crashes on every mainstream target. The empty
// range now yields 0 without consuming randomness.
TEST(RngTest, NextBelowZeroBoundIsDefined) {
  Rng rng(13);
  Rng twin(13);
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(0), 0u);
  // No state was consumed: the twin that never saw the empty range still
  // agrees on the next draw.
  EXPECT_EQ(rng.Next(), twin.Next());
}

// Regression: NextInRange computed `hi - lo + 1` in int64_t, which is
// signed-overflow UB whenever the endpoints straddle more than half the
// domain, and for the full domain the span wrapped to zero and fed
// NextBelow(0)'s division by zero.
TEST(RngTest, NextInRangeFullInt64DomainIsDefined) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(17);
  Rng twin(17);
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 256; ++i) {
    const int64_t v = rng.NextInRange(kMin, kMax);
    EXPECT_EQ(v, twin.NextInRange(kMin, kMax));  // still deterministic
    saw_negative = saw_negative || v < 0;
    saw_positive = saw_positive || v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  // Straddling spans short of the full domain go through the unsigned
  // NextBelow path; the degenerate one-value range is exact.
  for (int i = 0; i < 256; ++i) {
    const int64_t v = rng.NextInRange(kMin + 1, kMax);
    EXPECT_GE(v, kMin + 1);
  }
  EXPECT_EQ(rng.NextInRange(kMin, kMin), kMin);
  EXPECT_EQ(rng.NextInRange(kMax, kMax), kMax);
}

// Regression: cancelled events used to sit in the heap as tombstones until
// they surfaced at the top, so a workload that schedules far-future timers
// and cancels them (every crashed process does) grew the heap without
// bound. Compaction now keeps the heap O(live).
TEST(SimulatorTest, CancelHeavyLoadKeepsHeapCompacted) {
  Simulator s;
  int survivor_ran = 0;
  s.Schedule(Seconds(100), [&]() { ++survivor_ran; });
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(s.Schedule(Seconds(10 + i), []() {}));
    }
    for (const EventId id : ids) {
      EXPECT_TRUE(s.Cancel(id));
    }
    // Tombstones never exceed half the heap, so the heap stays within a
    // small factor of the live count (1 here) at every quiescent point.
    EXPECT_LE(s.heap_size(), 2 * s.pending_events() + 1);
  }
  EXPECT_EQ(s.pending_events(), 1u);
  s.RunUntilIdle();
  EXPECT_EQ(survivor_ran, 1);
}

// RunUntil over a queue holding only cancelled events must run nothing and
// still advance the clock to the deadline.
TEST(SimulatorTest, RunUntilOverOnlyCancelledEventsAdvancesClock) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(s.Schedule(Milliseconds(i + 1), []() {}));
  }
  for (const EventId id : ids) {
    EXPECT_TRUE(s.Cancel(id));
  }
  EXPECT_EQ(s.RunUntil(Milliseconds(10)), 0u);
  EXPECT_EQ(s.Now(), Milliseconds(10));
  EXPECT_EQ(s.events_executed(), 0u);
}

// A zero-delay Schedule lands after already-queued events at the same
// time: sequence numbers break the tie, so an event that reschedules at
// delay 0 cannot jump ahead of its peers.
TEST(SimulatorTest, ZeroDelayScheduleRunsAfterSameTimeQueuedEvents) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(0, [&]() {
    order.push_back(1);
    s.Schedule(0, [&]() { order.push_back(3); });
  });
  s.Schedule(0, [&]() { order.push_back(2); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// An already-true predicate returns before any event runs or the clock
// moves — RunUntilPredicate is a pure query in that case.
TEST(SimulatorTest, RunUntilPredicateAlreadyTrueExecutesNoEvents) {
  Simulator s;
  bool ran = false;
  s.Schedule(Milliseconds(1), [&]() { ran = true; });
  EXPECT_TRUE(s.RunUntilPredicate([]() { return true; }, Seconds(1)));
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.events_executed(), 0u);
  EXPECT_EQ(s.Now(), kTimeZero);
}

// --- checkpoint / restore ---

TEST(SimulatorSnapshot, RestoreReplaysTheBranchIdentically) {
  Simulator s;
  std::vector<std::pair<Time, uint64_t>> run_log;
  // A self-rescheduling chain that consumes randomness, so any divergence
  // in clock, order, or RNG state after a restore shows up in the log.
  std::function<void()> tick = [&]() {
    run_log.emplace_back(s.Now(), s.Rand().Next());
    if (run_log.size() % 8 != 0) {
      s.Schedule(Milliseconds(1) + s.Rand().NextBelow(50), tick);
    }
  };
  s.Schedule(Milliseconds(1), tick);
  s.RunFor(Milliseconds(3));

  const Simulator::Checkpoint checkpoint = s.Snapshot();
  const size_t prefix = run_log.size();
  s.RunUntilIdle();
  const std::vector<std::pair<Time, uint64_t>> first_branch = run_log;
  const uint64_t executed_after = s.events_executed();
  const Time end_time = s.Now();

  run_log.resize(prefix);
  s.Restore(checkpoint);
  EXPECT_EQ(s.Now(), checkpoint.now);
  EXPECT_EQ(s.events_executed(), checkpoint.events_executed);
  s.RunUntilIdle();
  EXPECT_EQ(run_log, first_branch);
  EXPECT_EQ(s.events_executed(), executed_after);
  EXPECT_EQ(s.Now(), end_time);
}

TEST(SimulatorSnapshot, RestoreTruncatesTheTrace) {
  Simulator s;
  s.Trace().Append(s.Now(), "test", "before");
  const Simulator::Checkpoint checkpoint = s.Snapshot();
  s.Trace().Append(s.Now(), "test", "after");
  EXPECT_EQ(s.Trace().size(), 2u);
  s.Restore(checkpoint);
  EXPECT_EQ(s.Trace().size(), 1u);
}

// EventFn is invoked non-const, so a closure may consume its captures when
// it runs. A checkpoint's copy must stay pristine through any number of
// restores: this fails if the checkpoint shared the closure that ran, or
// if Restore moved out of the checkpoint instead of copying.
TEST(SimulatorSnapshot, RestoreTwiceReplaysAClosureThatConsumesItsCapture) {
  Simulator s;
  const std::string text = "a capture longer than the small-string buffer";
  std::vector<std::string> log;
  s.Schedule(Milliseconds(1), [&log, text]() mutable { log.push_back(std::move(text)); });
  const Simulator::Checkpoint checkpoint = s.Snapshot();
  s.RunUntilIdle();
  for (int restore = 0; restore < 2; ++restore) {
    s.Restore(checkpoint);
    s.RunUntilIdle();
  }
  EXPECT_EQ(log, std::vector<std::string>(3, text));
}

// Each of twenty branches from one checkpoint starts from exactly the
// captured pending set, with no tombstone and nothing of the abandoned
// branch, and re-issues the abandoned branch's event ids in order.
TEST(SimulatorSnapshot, EveryRestoreRebuildsThePendingSetAndTheSequence) {
  Simulator s;
  s.Schedule(Seconds(5), []() {});  // stays pending across the branches
  const EventId cancelled = s.Schedule(Seconds(6), []() {});
  s.Schedule(Seconds(7), []() {});
  s.Cancel(cancelled);  // a tombstone the checkpoint leaves out
  const Simulator::Checkpoint checkpoint = s.Snapshot();
  ASSERT_EQ(checkpoint.pending.size(), 2u);
  for (int branch = 0; branch < 20; ++branch) {
    s.Restore(checkpoint);
    EXPECT_EQ(s.heap_size(), checkpoint.pending.size());
    EXPECT_EQ(s.pending_events(), checkpoint.pending.size());
    EXPECT_EQ(s.Schedule(Milliseconds(1), []() {}), checkpoint.next_seq);
    for (int i = 0; i < 10; ++i) {
      s.Schedule(Milliseconds(i + 1), []() {});
    }
    s.RunFor(Milliseconds(20));
  }
}

TEST(TraceTest, FilterByComponentPrefix) {
  TraceLog log;
  log.Append(1, "pbkv.n1", "elected");
  log.Append(2, "pbkv.n2", "vote");
  log.Append(3, "net", "drop");
  EXPECT_EQ(log.Filter("pbkv").size(), 2u);
  EXPECT_EQ(log.Filter("net").size(), 1u);
  EXPECT_EQ(log.Filter("").size(), 3u);
}

TEST(TraceTest, FilterMatchesOnComponentBoundaryOnly) {
  // "pbkv" must match the component itself and its dotted sub-components,
  // but not a different component that merely shares the prefix.
  TraceLog log;
  log.Append(1, "pbkv", "boot");
  log.Append(2, "pbkv.n1", "elected");
  log.Append(3, "pbkv2", "boot");
  log.Append(4, "pbkv2.n1", "elected");
  const auto matched = log.Filter("pbkv");
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_EQ(matched[0].component, "pbkv");
  EXPECT_EQ(matched[1].component, "pbkv.n1");
  EXPECT_EQ(log.Filter("pbkv2").size(), 2u);
}

TEST(TraceTest, CountEvent) {
  TraceLog log;
  log.Append(1, "a", "drop");
  log.Append(2, "b", "drop");
  log.Append(3, "c", "elected");
  EXPECT_EQ(log.CountEvent("drop"), 2u);
}

TEST(TraceTest, DisabledLogRecordsNothing) {
  TraceLog log;
  log.set_enabled(false);
  log.Append(1, "a", "x");
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceTest, DisabledLogStillCountsAppends) {
  // The documented counter-only mode for throughput benches: nothing is
  // retained, but appended() counts every call, before and after toggling.
  TraceLog log;
  log.Append(1, "a", "x");
  EXPECT_EQ(log.appended(), 1u);
  log.set_enabled(false);
  log.Append(2, "a", "y");
  log.Append(3, "a", "z");
  EXPECT_EQ(log.size(), 1u);  // only the enabled-time record is retained
  EXPECT_EQ(log.CountEvent("y"), 0u);
  EXPECT_EQ(log.appended(), 3u);
  log.set_enabled(true);
  log.Append(4, "a", "w");
  EXPECT_EQ(log.size(), 2u);  // the enabled-time records only
  EXPECT_EQ(log.appended(), 4u);
}

TEST(TraceTest, AppendReturnsPositionalIdsAndTruncateRewindsThem) {
  TraceLog log;
  EXPECT_EQ(log.Append(1, "a", "x"), 1u);
  EXPECT_EQ(log.Append(2, "a", "y"), 2u);
  EXPECT_EQ(log.Append(3, "a", "z"), 3u);
  log.Truncate(1);
  // Ids are positions, so a rewind re-issues them exactly — the property
  // fork/replay byte-identity rests on.
  EXPECT_EQ(log.Append(4, "a", "y2"), 2u);
  EXPECT_EQ(log.records()[1].id, 2u);
  // A disabled log issues no ids at all.
  log.set_enabled(false);
  EXPECT_EQ(log.Append(5, "a", "q"), 0u);
}

TEST(TraceTest, CauseContextStampsRecords) {
  TraceLog log;
  const uint64_t deliver = log.Append(1, "net", "deliver");
  EXPECT_EQ(log.records()[0].cause, 0u);
  {
    CauseScope scope(log, deliver);
    const uint64_t transition = log.Append(2, "sys.n1", "step-down");
    EXPECT_EQ(log.records()[1].cause, deliver);
    // A rebind redirects later appends to the newest transition...
    log.BindCause(transition);
    log.Append(3, "net", "send");
    EXPECT_EQ(log.records()[2].cause, transition);
    // ...but an explicit cause always wins over the context.
    log.Append(4, "net", "deliver", "", deliver);
    EXPECT_EQ(log.records()[3].cause, deliver);
  }
  // The scope restored the outer (empty) context, including over a rebind.
  log.Append(5, "sys.n1", "tick");
  EXPECT_EQ(log.records()[4].cause, 0u);
}

TEST(TraceTest, TruncateOnDisabledLogIsANoOp) {
  TraceLog log;
  log.Append(1, "a", "x");
  log.set_enabled(false);
  log.Append(2, "a", "y");
  log.Truncate(0);  // rewinds the retained record
  EXPECT_EQ(log.size(), 0u);
  log.Truncate(5);  // larger than the log: nothing to drop
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.appended(), 2u);  // the monotonic counter never rewinds
}

TEST(TraceTest, EventBigramsAreDistinctConsecutivePairsInFirstAppearanceOrder) {
  TraceLog log;
  log.Append(1, "a", "send");
  log.Append(2, "b", "drop");
  log.Append(3, "c", "send");
  log.Append(4, "d", "drop");   // send>drop again: deduplicated
  log.Append(5, "e", "elect");  // drop>elect: new
  const auto bigrams = log.EventBigrams();
  ASSERT_EQ(bigrams.size(), 3u);
  EXPECT_EQ(bigrams[0], (std::pair<std::string, std::string>{"send", "drop"}));
  EXPECT_EQ(bigrams[1], (std::pair<std::string, std::string>{"drop", "send"}));
  EXPECT_EQ(bigrams[2], (std::pair<std::string, std::string>{"drop", "elect"}));
}

TEST(TraceTest, EventBigramsOfShortLogsAreEmpty) {
  TraceLog log;
  EXPECT_TRUE(log.EventBigrams().empty());
  log.Append(1, "a", "send");
  EXPECT_TRUE(log.EventBigrams().empty());
}

TEST(TraceTest, EventBigramsAlternatingPairsDefeatTheRunCompressionFastPath) {
  // The scan skips consecutive identical bigrams (runs of one event name).
  // Strict A/B alternation makes every adjacent bigram differ from the
  // previous one, so the fast path never fires — and must still yield
  // exactly the two distinct pairs.
  TraceLog log;
  for (int i = 0; i < 8; ++i) {
    log.Append(i + 1, "c", i % 2 == 0 ? "a" : "b");
  }
  const auto bigrams = log.EventBigrams();
  ASSERT_EQ(bigrams.size(), 2u);
  EXPECT_EQ(bigrams[0], (std::pair<std::string, std::string>{"a", "b"}));
  EXPECT_EQ(bigrams[1], (std::pair<std::string, std::string>{"b", "a"}));
}

TEST(TraceTest, EventBigramsCompressRunsOfOneName) {
  // A run of the same event produces the self-pair once, however long.
  TraceLog log;
  for (int i = 0; i < 6; ++i) {
    log.Append(i + 1, "c", "hb");
  }
  const auto bigrams = log.EventBigrams();
  ASSERT_EQ(bigrams.size(), 1u);
  EXPECT_EQ(bigrams[0], (std::pair<std::string, std::string>{"hb", "hb"}));
}

TEST(TraceTest, DumpContainsRecords) {
  TraceLog log;
  log.Append(Milliseconds(1), "pbkv.n1", "elected", "term=2");
  const std::string dump = log.Dump();
  EXPECT_NE(dump.find("pbkv.n1"), std::string::npos);
  EXPECT_NE(dump.find("term=2"), std::string::npos);
}

}  // namespace
}  // namespace sim

namespace sim_property {
namespace {

// Model-based property: the simulator must run events in exactly the order
// a reference model (stable sort by time, then by scheduling sequence)
// predicts, including under random cancellations.
TEST(SimulatorProperty, MatchesReferenceModelUnderRandomSchedules) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Rng rng(seed);
    sim::Simulator simulator;
    std::vector<int> executed;
    struct ModelEvent {
      sim::Time when;
      uint64_t seq;
      int tag;
      sim::EventId id;
      bool cancelled = false;
    };
    std::vector<ModelEvent> model;
    for (int i = 0; i < 200; ++i) {
      const sim::Time when = static_cast<sim::Time>(rng.NextBelow(50));
      const sim::EventId id =
          simulator.Schedule(when, [&executed, i]() { executed.push_back(i); });
      model.push_back(ModelEvent{when, id, i, id});
    }
    // Cancel a random subset.
    for (ModelEvent& event : model) {
      if (rng.NextBool(0.3)) {
        event.cancelled = simulator.Cancel(event.id);
        EXPECT_TRUE(event.cancelled);
      }
    }
    simulator.RunUntilIdle();
    std::vector<ModelEvent> expected = model;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const ModelEvent& a, const ModelEvent& b) {
                       return a.when != b.when ? a.when < b.when : a.seq < b.seq;
                     });
    std::vector<int> expected_tags;
    for (const ModelEvent& event : expected) {
      if (!event.cancelled) {
        expected_tags.push_back(event.tag);
      }
    }
    EXPECT_EQ(executed, expected_tags) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sim_property

namespace sim_golden {
namespace {

struct Ping final : net::MessageOf<Ping> {
  static constexpr net::MessageType kType{"Ping"};
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// A fixed scenario exercising the full scheduling surface: timers, ties,
// cancellations, network traffic with jitter, a flaky link, and partition
// install/heal while packets are in flight.
std::string GoldenScheduleTrace(uint64_t seed) {
  sim::Simulator s(seed);
  net::FirewallPartitioner backend;
  net::Network network(&s, &backend);
  net::Partitioner partitioner(&backend);
  network.set_latency({sim::Microseconds(150), sim::Microseconds(90)});
  for (net::NodeId n = 1; n <= 5; ++n) {
    network.Register(n, [n, &s](const net::Envelope& e) {
      s.Trace().Append(s.Now(), "node" + std::to_string(n), "recv",
                       std::to_string(e.src) + "->" + std::to_string(n));
    });
  }
  network.SetLinkLoss(2, 3, 0.5);

  std::vector<sim::EventId> timers;
  for (int i = 0; i < 40; ++i) {
    timers.push_back(s.Schedule(sim::Microseconds(45 * i + 7), [&network, i]() {
      const net::NodeId src = static_cast<net::NodeId>(1 + i % 5);
      const net::NodeId dst = static_cast<net::NodeId>(1 + (i * 3 + 1) % 5);
      network.SendNew<Ping>(src, dst);
    }));
  }
  for (size_t i = 0; i < timers.size(); i += 4) {
    s.Cancel(timers[i]);
  }
  net::Partition partition;
  s.Schedule(sim::Microseconds(500),
             [&]() { partition = partitioner.Complete({1, 2}, {3, 4, 5}); });
  s.Schedule(sim::Microseconds(1300), [&]() { partitioner.Heal(partition); });
  s.RunUntilIdle();
  return s.Trace().Dump() + "#events=" + std::to_string(s.events_executed()) +
         " sent=" + std::to_string(network.messages_sent()) +
         " delivered=" + std::to_string(network.messages_delivered()) +
         " dropped=" + std::to_string(network.messages_dropped()) +
         " now=" + sim::FormatTime(s.Now());
}

// Golden digests recorded from the std::map-based event queue immediately
// before the binary-heap swap. The heap must replay the same seeded
// schedules into bit-identical traces; any divergence is an ordering bug.
TEST(DeterminismGolden, EventQueueReplaysTheRecordedSchedules) {
  EXPECT_EQ(Fnv1a(GoldenScheduleTrace(1)), 17290149954841914537ULL)
      << GoldenScheduleTrace(1);
  EXPECT_EQ(Fnv1a(GoldenScheduleTrace(2)), 13891609431013054173ULL);
  EXPECT_EQ(Fnv1a(GoldenScheduleTrace(3)), 6840748438253279289ULL);
}

}  // namespace
}  // namespace sim_golden

namespace sim_substream {
namespace {

struct Ping final : net::MessageOf<Ping> {
  static constexpr net::MessageType kType{"Ping"};
};

// Satellite regression: the network draws loss and jitter from its own RNG
// substream, so toggling jitter or flakiness must not perturb the random
// decisions systems make from the simulator's stream under the same seed.
std::vector<uint64_t> SystemDrawsWith(sim::Duration jitter, double loss) {
  sim::Simulator s(11);
  net::SwitchPartitioner backend;
  net::Network network(&s, &backend);
  network.set_latency({sim::Microseconds(100), jitter});
  network.Register(1, [](const net::Envelope&) {});
  network.Register(2, [](const net::Envelope&) {});
  if (loss > 0.0) {
    network.SetLinkLoss(1, 2, loss);
  }
  std::vector<uint64_t> draws;
  for (int i = 0; i < 32; ++i) {
    network.SendNew<Ping>(1, 2);  // consumes network randomness only
    s.RunUntilIdle();
    draws.push_back(s.Rand().Next());  // a system-logic draw
  }
  return draws;
}

TEST(NetworkRngSubstream, NetworkRandomnessNeverPerturbsSystemDraws) {
  const std::vector<uint64_t> baseline = SystemDrawsWith(0, 0.0);
  EXPECT_EQ(baseline, SystemDrawsWith(sim::Microseconds(80), 0.0));
  EXPECT_EQ(baseline, SystemDrawsWith(sim::Microseconds(80), 0.5));
  EXPECT_EQ(baseline, SystemDrawsWith(0, 0.9));
}

}  // namespace
}  // namespace sim_substream
