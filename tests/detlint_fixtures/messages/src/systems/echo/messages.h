// Fixture: unhandled-message. PingMsg has an As<> dispatch site in
// server.cc; AckMsg is consumed generically and carries a suppression;
// OrphanMsg is the silent unhandled-protocol-event omission and is flagged
// even though `final` sits between its name and its base clause.
#include "net/message.h"

namespace echo {

struct PingMsg final : net::MessageOf<PingMsg> {
  static constexpr net::MessageType kType{"Ping"};
};

// detlint: allow(unhandled-message): acks are folded into the client's
// generic completion path, not dispatched per-type.
struct AckMsg final : net::MessageOf<AckMsg> {
  static constexpr net::MessageType kType{"Ack"};
};

struct OrphanMsg final : net::MessageOf<OrphanMsg> {
  static constexpr net::MessageType kType{"Orphan"};
};

}  // namespace echo
