// Wire messages of the lock/semaphore/atomics service.

#ifndef SYSTEMS_LOCKSVC_MESSAGES_H_
#define SYSTEMS_LOCKSVC_MESSAGES_H_

#include <cstdint>
#include <string>

#include "net/message.h"

namespace locksvc {

enum class ResourceKind { kLock, kSemaphore, kCounter };
enum class ClientOp { kAcquire, kRelease, kIncrement };

// --- client <-> coordinator replica ---

struct ClientLockRequest final : net::MessageOf<ClientLockRequest> {
  static constexpr net::MessageType kType{"locksvc.ClientLockRequest"};
  uint64_t request_id = 0;
  ResourceKind kind = ResourceKind::kLock;
  ClientOp op = ClientOp::kAcquire;
  std::string resource;
  int permits = 1;  // semaphore capacity, fixed at first acquire
};

struct ClientLockReply final : net::MessageOf<ClientLockReply> {
  static constexpr net::MessageType kType{"locksvc.ClientLockReply"};
  uint64_t request_id = 0;
  bool ok = false;
  int64_t counter_value = 0;  // for kIncrement
};

// Holding clients renew their lease through their coordinator.
struct KeepAlive final : net::MessageOf<KeepAlive> {
  static constexpr net::MessageType kType{"locksvc.KeepAlive"};
  int client = 0;
};

// --- coordinator <-> peer replicas (one round, then commit/abort) ---

struct PeerApply final : net::MessageOf<PeerApply> {
  static constexpr net::MessageType kType{"locksvc.PeerApply"};
  uint64_t txn_id = 0;
  ResourceKind kind = ResourceKind::kLock;
  ClientOp op = ClientOp::kAcquire;
  std::string resource;
  int client = 0;
  int permits = 1;
  // For counters: the value the coordinator assigned. A peer grants only if
  // it has not yet seen this value, which keeps granted values unique.
  int64_t counter_value = 0;
};

struct PeerAck final : net::MessageOf<PeerAck> {
  static constexpr net::MessageType kType{"locksvc.PeerAck"};
  uint64_t txn_id = 0;
  bool granted = false;
  int64_t counter_value = 0;
};

// Rolls back a PeerApply whose transaction failed to reach quorum.
struct PeerAbort final : net::MessageOf<PeerAbort> {
  static constexpr net::MessageType kType{"locksvc.PeerAbort"};
  uint64_t txn_id = 0;
  ResourceKind kind = ResourceKind::kLock;
  ClientOp op = ClientOp::kAcquire;
  std::string resource;
  int client = 0;
};

}  // namespace locksvc

#endif  // SYSTEMS_LOCKSVC_MESSAGES_H_
