// Wire messages of the coordination-service registry (ZooKeeper analog).

#ifndef SYSTEMS_ZK_MESSAGES_H_
#define SYSTEMS_ZK_MESSAGES_H_

#include <cstdint>
#include <string>

#include "net/message.h"

namespace zksvc {

// Session keep-alive; the registry expires sessions that stop pinging and
// deletes their ephemeral entries.
struct ZkPing final : net::MessageOf<ZkPing> {
  static constexpr net::MessageType kType{"zk.Ping"};
};

struct ZkPong final : net::MessageOf<ZkPong> {
  static constexpr net::MessageType kType{"zk.Pong"};
};

// Creates an entry owned by the sender's session. Fails if it exists.
struct ZkCreate final : net::MessageOf<ZkCreate> {
  static constexpr net::MessageType kType{"zk.Create"};
  uint64_t request_id = 0;
  std::string path;
  std::string data;
  bool ephemeral = true;
};

struct ZkCreateReply final : net::MessageOf<ZkCreateReply> {
  static constexpr net::MessageType kType{"zk.CreateReply"};
  uint64_t request_id = 0;
  bool ok = false;
};

struct ZkGet final : net::MessageOf<ZkGet> {
  static constexpr net::MessageType kType{"zk.Get"};
  uint64_t request_id = 0;
  std::string path;
};

struct ZkGetReply final : net::MessageOf<ZkGetReply> {
  static constexpr net::MessageType kType{"zk.GetReply"};
  uint64_t request_id = 0;
  bool exists = false;
  std::string data;
};

struct ZkDelete final : net::MessageOf<ZkDelete> {
  static constexpr net::MessageType kType{"zk.Delete"};
  uint64_t request_id = 0;
  std::string path;
};

// Registers interest in a path; one-shot, re-armed by the watcher.
struct ZkWatch final : net::MessageOf<ZkWatch> {
  static constexpr net::MessageType kType{"zk.Watch"};
  std::string path;
};

// Fired when a watched path is created, changed, or deleted.
struct ZkEvent final : net::MessageOf<ZkEvent> {
  static constexpr net::MessageType kType{"zk.Event"};
  std::string path;
  bool deleted = false;
};

}  // namespace zksvc

#endif  // SYSTEMS_ZK_MESSAGES_H_
