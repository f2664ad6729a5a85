// Wire messages of the primary-backup key-value protocol.

#ifndef SYSTEMS_PBKV_MESSAGES_H_
#define SYSTEMS_PBKV_MESSAGES_H_

#include <map>
#include <string>
#include <vector>

#include "net/message.h"
#include "systems/pbkv/types.h"

namespace pbkv {

// --- client <-> server ---

struct ClientRequest final : net::MessageOf<ClientRequest> {
  static constexpr net::MessageType kType{"pbkv.ClientRequest"};
  uint64_t request_id = 0;
  OpKind kind = OpKind::kPut;
  bool is_read = false;
  std::string key;
  std::string value;
};

struct ClientReply final : net::MessageOf<ClientReply> {
  static constexpr net::MessageType kType{"pbkv.ClientReply"};
  uint64_t request_id = 0;
  bool ok = false;
  bool not_leader = false;
  net::NodeId leader_hint = net::kInvalidNode;
  std::string value;  // for reads
};

// --- replication ---

struct Replicate final : net::MessageOf<Replicate> {
  static constexpr net::MessageType kType{"pbkv.Replicate"};
  uint64_t term = 0;
  net::NodeId leader = net::kInvalidNode;
  LogEntry entry;
};

struct ReplicateAck final : net::MessageOf<ReplicateAck> {
  static constexpr net::MessageType kType{"pbkv.ReplicateAck"};
  uint64_t term = 0;
  uint64_t lsn = 0;
};

// --- leader election ---

struct RequestVote final : net::MessageOf<RequestVote> {
  static constexpr net::MessageType kType{"pbkv.RequestVote"};
  uint64_t term = 0;
  net::NodeId candidate = net::kInvalidNode;
  uint64_t log_length = 0;
  sim::Time last_timestamp = sim::kTimeZero;
  int priority = 0;
};

struct VoteGranted final : net::MessageOf<VoteGranted> {
  static constexpr net::MessageType kType{"pbkv.VoteGranted"};
  uint64_t term = 0;
  bool granted = false;
  // The voter's own current term; a denied candidate with a stale view
  // adopts it so it can recognize the real leader's announcements again.
  uint64_t voter_term = 0;
  // When the voter refused because it can see a healthy leader: who that
  // leader is. A candidate whose own term ran ahead while partitioned away
  // uses this to fall back in line and resynchronize.
  net::NodeId leader_hint = net::kInvalidNode;
};

struct LeaderAnnounce final : net::MessageOf<LeaderAnnounce> {
  static constexpr net::MessageType kType{"pbkv.LeaderAnnounce"};
  uint64_t term = 0;
  net::NodeId leader = net::kInvalidNode;
  uint64_t log_length = 0;
  sim::Time last_timestamp = sim::kTimeZero;
};

// Sent by an arbiter to a deposed primary it can still reach (the MongoDB
// arbiter "step down" notification).
struct StepDownCommand final : net::MessageOf<StepDownCommand> {
  static constexpr net::MessageType kType{"pbkv.StepDownCommand"};
  uint64_t term = 0;
  net::NodeId leader = net::kInvalidNode;
};

// --- data consolidation after heal ---

// Winner -> loser: full state transfer (systems in the study ship either
// snapshots or logs; we ship the log and rebuild the store).
struct SyncSnapshot final : net::MessageOf<SyncSnapshot> {
  static constexpr net::MessageType kType{"pbkv.SyncSnapshot"};
  uint64_t term = 0;
  net::NodeId leader = net::kInvalidNode;
  std::vector<LogEntry> log;
};

struct SyncRequest final : net::MessageOf<SyncRequest> {
  static constexpr net::MessageType kType{"pbkv.SyncRequest"};
  uint64_t term = 0;
};

// --- quorum reads ---

struct ReadGuard final : net::MessageOf<ReadGuard> {
  static constexpr net::MessageType kType{"pbkv.ReadGuard"};
  uint64_t term = 0;
  uint64_t guard_id = 0;
};

struct ReadGuardAck final : net::MessageOf<ReadGuardAck> {
  static constexpr net::MessageType kType{"pbkv.ReadGuardAck"};
  uint64_t term = 0;
  uint64_t guard_id = 0;
  bool confirms = false;
};

}  // namespace pbkv

#endif  // SYSTEMS_PBKV_MESSAGES_H_
