#include "cluster/process.h"

#include <cassert>

namespace cluster {

Process::Process(sim::Simulator* simulator, net::Network* network, net::NodeId id,
                 std::string name)
    : simulator_(simulator), network_(network), id_(id), name_(std::move(name)) {}

Process::~Process() {
  if (!crashed_) {
    network_->Register(id_, nullptr);
  }
}

void Process::RegisterHandler() {
  network_->Register(id_, [this](const net::Envelope& envelope) {
    if (!crashed_) {
      OnMessage(envelope);
    }
  });
}

void Process::Boot() {
  assert(crashed_ && "Boot on a running process");
  crashed_ = false;
  ++epoch_;
  RegisterHandler();
  if (booted_once_) {
    OnRestart();
  }
  booted_once_ = true;
  OnStart();
}

void Process::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  ++epoch_;  // invalidates every pending timer
  network_->Register(id_, nullptr);
  TraceEvent("crash");
  OnCrash();
}

void Process::Restart() {
  assert(crashed_ && "Restart on a running process");
  TraceEvent("restart");
  Boot();
}

void Process::RestoreKernel(const KernelState& state) {
  if (crashed_ != state.crashed_) {
    if (state.crashed_) {
      network_->Register(id_, nullptr);
    } else {
      RegisterHandler();
    }
  }
  static_cast<KernelState&>(*this) = state;
}

sim::EventId Process::After(sim::Duration delay, std::function<void()> fn) {
  const uint64_t epoch = epoch_;
  auto timer = [this, epoch, fn = std::move(fn)]() {
    if (!crashed_ && epoch_ == epoch) {
      fn();
    }
  };
  static_assert(sim::EventFn::kStoresInline<decltype(timer)>,
                "the timer closure must not allocate per event");
  return simulator_->Schedule(delay, std::move(timer));
}

void Process::Every(sim::Duration period, std::function<void()> fn) {
  ScheduleTick(epoch_, period, std::move(fn));
}

void Process::ScheduleTick(uint64_t epoch, sim::Duration period, std::function<void()> fn) {
  // Each tick hands its `fn` on to the next one; retention keeps its own
  // copy of every tick closure, so a retained tick still holds `fn`.
  auto tick = [this, epoch, period, fn = std::move(fn)]() mutable {
    if (crashed_ || epoch_ != epoch) {
      return;
    }
    fn();
    ScheduleTick(epoch, period, std::move(fn));
  };
  static_assert(sim::EventFn::kStoresInline<decltype(tick)>,
                "the tick closure must not allocate per event");
  simulator_->Schedule(period, std::move(tick));
}

void Process::TraceEvent(const std::string& event, const std::string& detail) const {
  sim::TraceLog& trace = simulator_->Trace();
  const uint64_t id = trace.Append(simulator_->Now(), name_, event, detail);
  // In causal mode this record is a state transition on the happens-before
  // graph: whatever the handler does next (send a message, record another
  // transition) was caused by it, so rebind the cause context. The bind is
  // scoped to the current event by the simulator's per-event CauseScope.
  if (trace.causal() && id != 0) {
    trace.BindCause(id);
  }
}

}  // namespace cluster
