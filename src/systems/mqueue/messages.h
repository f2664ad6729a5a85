// Wire messages of the replicated message queue.

#ifndef SYSTEMS_MQUEUE_MESSAGES_H_
#define SYSTEMS_MQUEUE_MESSAGES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "net/message.h"

namespace mqueue {

enum class QueueOp { kEnqueue, kDequeue };

struct ClientQueueRequest final : net::MessageOf<ClientQueueRequest> {
  static constexpr net::MessageType kType{"mqueue.ClientRequest"};
  uint64_t request_id = 0;
  QueueOp op = QueueOp::kEnqueue;
  std::string queue;
  std::string value;  // enqueue payload
};

struct ClientQueueReply final : net::MessageOf<ClientQueueReply> {
  static constexpr net::MessageType kType{"mqueue.ClientReply"};
  uint64_t request_id = 0;
  bool ok = false;
  bool not_master = false;
  std::string value;  // dequeued payload ("" = queue empty)
};

struct ReplOp final : net::MessageOf<ReplOp> {
  static constexpr net::MessageType kType{"mqueue.ReplOp"};
  uint64_t seq = 0;
  QueueOp op = QueueOp::kEnqueue;
  std::string queue;
  std::string value;
};

struct ReplAck final : net::MessageOf<ReplAck> {
  static constexpr net::MessageType kType{"mqueue.ReplAck"};
  uint64_t seq = 0;
};

// Full-state transfer when a broker (re)joins as a slave.
struct QueueSyncRequest final : net::MessageOf<QueueSyncRequest> {
  static constexpr net::MessageType kType{"mqueue.SyncRequest"};
};

struct QueueSnapshot final : net::MessageOf<QueueSnapshot> {
  static constexpr net::MessageType kType{"mqueue.Snapshot"};
  std::map<std::string, std::deque<std::string>> queues;
};

}  // namespace mqueue

#endif  // SYSTEMS_MQUEUE_MESSAGES_H_
