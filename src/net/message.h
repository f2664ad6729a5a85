// Message types carried by the simulated network.
//
// Each system defines its own message structs; the network carries them
// opaquely. A message struct declares its name once, in a static
// descriptor, and derives from MessageOf<itself>:
//
//   struct Replicate final : net::MessageOf<Replicate> {
//     static constexpr net::MessageType kType{"pbkv.Replicate"};
//     uint64_t term = 0;
//   };
//
// Handlers dispatch on receipt with `msg.As<Replicate>()`, one pointer
// compare against the descriptor's address. That address is the type's
// identity for dispatch only: traces, fault rules and digests use the name,
// and nothing may hash, order or record the address (detlint rule
// `address-derived-id`).

#ifndef NET_MESSAGE_H_
#define NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.h"

namespace net {

// Identifies a process (server or client) attached to the network.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;

// An ordered set of nodes, as used by the NEAT partition API.
using Group = std::vector<NodeId>;

// The ids 1..count: how a cluster numbers its servers.
inline Group NodeIds(int count) {
  Group nodes;
  for (NodeId id = 1; id <= count; ++id) {
    nodes.push_back(id);
  }
  return nodes;
}

// A message type's static descriptor. Each message struct owns exactly one,
// as `static constexpr MessageType kType{...}` (an inline variable, so the
// program holds one object per type).
struct MessageType {
  // Short human-readable type tag for traces and fault rules, e.g.
  // "raft.AppendEntries".
  std::string_view name;
};

template <class Self>
class MessageOf;

class Message {
 public:
  virtual ~Message() = default;

  std::string_view TypeName() const { return type_->name; }

  // The message as an M when its dynamic type is exactly M, else null.
  // Every message struct is final and only M can construct a MessageOf<M>,
  // so this one compare answers what dynamic_cast<const M*> would.
  template <class M>
  const M* As() const {
    return type_ == &M::kType ? static_cast<const M*>(this) : nullptr;
  }

 protected:
  // Copies happen only as part of copying a whole M: a sliced copy or a
  // cross-type assignment through Message would carry a foreign descriptor.
  Message(const Message&) = default;
  Message& operator=(const Message&) = default;

 private:
  template <class Self>
  friend class MessageOf;

  explicit Message(const MessageType& type) : type_(&type) {}

  const MessageType* type_;
};

// The base of every message struct: binds the struct's own kType. Its
// constructors are private to Self, so no other class can claim Self's
// descriptor.
template <class Self>
class MessageOf : public Message {
 private:
  friend Self;

  MessageOf() : Message(Self::kType) {
    static_assert(std::is_final_v<Self>, "message structs must be final");
  }
  MessageOf(const MessageOf&) = default;
  MessageOf& operator=(const MessageOf&) = default;
};

// What the network hands to a receiving process.
struct Envelope {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  sim::Time sent_at = sim::kTimeZero;
  std::shared_ptr<const Message> msg;
  // Trace id of the "send" record for this message (0 when causal tracing
  // is off). The network uses it to stamp the send->deliver edge of the
  // happens-before graph; it is a stable log position, never an address.
  uint64_t send_record = 0;
  // Compares the message by identity: a snapshot shares its held
  // envelopes' immutable messages with the live network.
  bool operator==(const Envelope&) const = default;
};

}  // namespace net

#endif  // NET_MESSAGE_H_
