// Fixture: the dispatch site that marks PingMsg handled tree-wide.
#include "systems/echo/messages.h"

namespace echo {

void OnMessage(const net::Envelope& envelope) {
  if (const auto* ping = envelope.msg->As<PingMsg>()) {
    (void)ping;
  }
}

}  // namespace echo
