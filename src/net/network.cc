#include "net/network.h"

#include <cassert>
#include <charconv>
#include <iterator>
#include <string>
#include <string_view>

namespace net {
namespace {

// A network record's detail, "<src>-><dst> <type><suffix>", built in one
// buffer of the final size.
std::string Detail(NodeId src, NodeId dst, std::string_view type,
                   std::string_view suffix = {}) {
  char src_text[12];  // an int32 and its sign
  char dst_text[12];
  char* src_end = std::to_chars(std::begin(src_text), std::end(src_text), src).ptr;
  char* dst_end = std::to_chars(std::begin(dst_text), std::end(dst_text), dst).ptr;
  std::string detail;
  detail.reserve(static_cast<size_t>((src_end - src_text) + (dst_end - dst_text)) + 3 +
                 type.size() + suffix.size());
  detail.append(src_text, src_end)
      .append("->")
      .append(dst_text, dst_end)
      .append(1, ' ')
      .append(type)
      .append(suffix);
  return detail;
}

}  // namespace

void Network::Register(NodeId node, Handler handler) {
  assert(node >= 0 && "NodeIds index the handler table");
  connectivity_.AddNode(node);
  const auto index = static_cast<size_t>(node);
  if (index >= handlers_.size()) {
    handlers_.resize(index + 1);
  }
  // A null handler marks a crashed node: it stays in the universe (the
  // connectivity cache), and deliveries to it count as "no receiver" drops.
  handlers_[index] = std::move(handler);
}

Group Network::Universe() const {
  Group out;
  for (NodeId node = 0; static_cast<size_t>(node) < handlers_.size(); ++node) {
    if (connectivity_.Tracks(node)) {
      out.push_back(node);
    }
  }
  return out;
}

void Network::SetLinkLoss(NodeId src, NodeId dst, double loss) {
  if (loss <= 0.0) {
    link_loss_.erase({src, dst});
  } else {
    link_loss_[{src, dst}] = loss;
  }
}

void Network::Send(NodeId src, NodeId dst, std::shared_ptr<const Message> msg) {
  ++messages_sent_;
  Envelope envelope{src, dst, simulator_->Now(), std::move(msg)};

  // Causal tracing: record the send so the deliver (or in-flight drop) can
  // name it as its cause. The send record itself inherits the active cause
  // context — the deliver record of the message whose handler sent this
  // one — which is what stitches multi-hop chains.
  if (simulator_->Trace().causal()) {
    envelope.send_record =
        simulator_->Trace().Append(simulator_->Now(), "net", "send",
                                   Detail(src, dst, envelope.msg->TypeName()));
  }

  if (!connectivity_.Allows(src, dst)) {
    ++messages_dropped_;
    simulator_->Trace().Append(
        simulator_->Now(), "net", "drop",
        Detail(src, dst, envelope.msg->TypeName(), " (partitioned at send)"));
    return;
  }
  auto loss = link_loss_.find({src, dst});
  if (loss != link_loss_.end() && rng_.NextBool(loss->second)) {
    ++messages_dropped_;
    simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                               Detail(src, dst, envelope.msg->TypeName(), " (flaky link)"));
    return;
  }

  sim::Duration delay = latency_.base;
  if (latency_.jitter > 0) {
    delay += static_cast<sim::Duration>(
        rng_.NextBelow(static_cast<uint64_t>(latency_.jitter) + 1));
  }
  if (!faults_.empty() && ApplyFaults(envelope, &delay)) {
    return;  // dropped or held by a fault rule
  }
  ScheduleDelivery(std::move(envelope), delay);
}

void Network::ScheduleDelivery(Envelope envelope, sim::Duration delay) {
  auto deliver = [this, envelope = std::move(envelope)]() mutable {
    Deliver(std::move(envelope));
  };
  static_assert(sim::EventFn::kStoresInline<decltype(deliver)>,
                "the delivery closure must not allocate per message");
  simulator_->Schedule(delay, std::move(deliver));
}

FaultRuleId Network::AddFaultRule(const FaultRule& rule) {
  const FaultRuleId id = next_fault_id_++;
  faults_[id].rule = rule;
  return id;
}

void Network::RemoveFaultRule(FaultRuleId id) {
  auto it = faults_.find(id);
  if (it == faults_.end()) {
    return;
  }
  FlushHeldMessage(it->second);
  faults_.erase(it);
}

void Network::ClearFaultRules() {
  for (auto& [id, fault] : faults_) {
    FlushHeldMessage(fault);
  }
  faults_.clear();
}

void Network::FlushHeldMessage(InstalledFault& fault) {
  if (!fault.holding) {
    return;
  }
  simulator_->Trace().Append(
      simulator_->Now(), "net", "fault",
      Detail(fault.held.src, fault.held.dst, fault.held.msg->TypeName(), " flush"),
      fault.held.send_record);
  ScheduleDelivery(std::move(fault.held), fault.held_delay);
  fault.holding = false;
  fault.held = Envelope{};
}

bool Network::ApplyFaults(Envelope& envelope, sim::Duration* delay) {
  const std::string_view type = envelope.msg->TypeName();
  for (auto& [id, fault] : faults_) {
    const FaultRule& rule = fault.rule;
    if (rule.type_name != type) {
      continue;
    }
    if (rule.src != kInvalidNode && rule.src != envelope.src) {
      continue;
    }
    if (rule.dst != kInvalidNode && rule.dst != envelope.dst) {
      continue;
    }
    if (rule.limit != 0 && fault.matched >= rule.limit) {
      continue;
    }
    ++fault.matched;
    ++messages_faulted_;
    switch (rule.action) {
      case FaultRule::Action::kDrop:
        ++messages_dropped_;
        simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                                   Detail(envelope.src, envelope.dst, type, " (fault drop)"),
                                   envelope.send_record);
        return true;
      case FaultRule::Action::kDelay:
        *delay += rule.delay;
        simulator_->Trace().Append(simulator_->Now(), "net", "fault",
                                   Detail(envelope.src, envelope.dst, type, " delay"),
                                   envelope.send_record);
        return false;  // deliver, later
      case FaultRule::Action::kReorder:
        if (!fault.holding) {
          fault.holding = true;
          fault.held = std::move(envelope);
          fault.held_delay = *delay;
          simulator_->Trace().Append(simulator_->Now(), "net", "fault",
                                     Detail(fault.held.src, fault.held.dst, type, " hold"),
                                     fault.held.send_record);
          return true;
        }
        // The successor goes out with its own delay; the held predecessor
        // follows just after it, completing the pairwise swap.
        simulator_->Trace().Append(simulator_->Now(), "net", "fault",
                                   Detail(envelope.src, envelope.dst, type, " swap"),
                                   envelope.send_record);
        ScheduleDelivery(std::move(envelope), *delay);
        ScheduleDelivery(std::move(fault.held), *delay + sim::Microseconds(1));
        fault.holding = false;
        fault.held = Envelope{};
        return true;
    }
  }
  return false;
}

void Network::Deliver(Envelope envelope) {
  // A partition installed while the packet was in flight also kills it:
  // switches and firewalls drop queued packets when rules change.
  if (!connectivity_.Allows(envelope.src, envelope.dst)) {
    ++messages_dropped_;
    simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                               Detail(envelope.src, envelope.dst, envelope.msg->TypeName(),
                                      " (partitioned in flight)"),
                               envelope.send_record);
    return;
  }
  const auto dst = static_cast<size_t>(envelope.dst);
  if (envelope.dst < 0 || dst >= handlers_.size() || !handlers_[dst]) {
    ++messages_dropped_;
    simulator_->Trace().Append(simulator_->Now(), "net", "drop",
                               Detail(envelope.src, envelope.dst, envelope.msg->TypeName(),
                                      " (no receiver)"),
                               envelope.send_record);
    return;
  }
  // Run a copy: the handler may crash its own node (resetting its entry) or
  // register a higher NodeId (reallocating the table) while it runs.
  const Handler handler = handlers_[dst];
  ++messages_delivered_;
  if (simulator_->Trace().causal()) {
    // Stamp the send->deliver edge, then run the handler under a cause
    // scope so every record it appends (state transitions, sends of
    // follow-on messages) names this delivery as its cause.
    const uint64_t deliver_record = simulator_->Trace().Append(
        simulator_->Now(), "net", "deliver",
        Detail(envelope.src, envelope.dst, envelope.msg->TypeName()), envelope.send_record);
    sim::CauseScope scope(simulator_->Trace(), deliver_record);
    handler(envelope);
    return;
  }
  handler(envelope);
}

}  // namespace net
