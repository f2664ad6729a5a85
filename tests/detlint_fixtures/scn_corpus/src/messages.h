// Fixture: scnlint. Ping's descriptor name is what the corpus checks fault
// rules against; IsPing is the dispatch site that keeps the
// unhandled-message rule quiet.
#ifndef TESTS_DETLINT_FIXTURES_SCN_CORPUS_SRC_MESSAGES_H_
#define TESTS_DETLINT_FIXTURES_SCN_CORPUS_SRC_MESSAGES_H_

#include "net/message.h"

namespace fix {

struct Ping final : net::MessageOf<Ping> {
  static constexpr net::MessageType kType{"fix.Ping"};
};

inline bool IsPing(const net::Message& m) {
  return m.As<Ping>() != nullptr;
}

}  // namespace fix

#endif  // TESTS_DETLINT_FIXTURES_SCN_CORPUS_SRC_MESSAGES_H_
