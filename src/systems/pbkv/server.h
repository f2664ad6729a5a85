// A primary-backup key-value replica (or arbiter).
//
// See systems/pbkv/types.h for the configuration space. The protocol:
//
//  - All members exchange heartbeats; each keeps a local failure-detector
//    view (under partial partitions these views disagree, which is the
//    root of several reproduced failures).
//  - The primary appends client writes to its log, applies them locally,
//    and replicates to the data replicas; the write concern decides when
//    the client is acknowledged. Replication that cannot reach its quorum
//    within the replication timeout fails the client write — but the entry
//    remains applied locally, which is exactly the VoltDB/MongoDB dirty
//    state of Figure 2.
//  - A follower whose detector declares the primary dead starts an election
//    for a higher term; voters apply the configured criterion. A majority
//    of the voting membership is always required to win.
//  - A primary that cannot see a majority of the membership steps down, but
//    only after the (longer) step-down threshold — the overlap window in
//    which two leaders coexist ("overlapping between successive leaders",
//    57% of the leader-election failures in Table 4).
//  - When two primaries meet (after a heal), the conflict winner is chosen
//    by term (correct) or by re-applying the election criterion (flawed);
//    the loser synchronizes per the consolidation policy.

#ifndef SYSTEMS_PBKV_SERVER_H_
#define SYSTEMS_PBKV_SERVER_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/failure_detector.h"
#include "cluster/process.h"
#include "systems/pbkv/messages.h"
#include "systems/pbkv/types.h"

namespace pbkv {

// Every field of a Server that changes after construction, as one value:
// a snapshot copies it and a restore assigns it (Server::CaptureState).
// Server inherits it privately, so its handlers name the fields directly.
struct ServerState {
  enum class Role { kFollower, kCandidate, kPrimary, kArbiter };
  struct StoreValue {
    std::string value;
    sim::Time timestamp = sim::kTimeZero;
    bool present = false;
    // Committed view.
    std::string committed_value;
    bool committed_present = false;
    bool operator==(const StoreValue&) const = default;
  };
  struct PendingWrite {
    net::NodeId client = net::kInvalidNode;
    uint64_t request_id = 0;
    std::set<net::NodeId> acks;
    size_t needed = 0;
    sim::EventId timer = sim::kInvalidEventId;
    bool operator==(const PendingWrite&) const = default;
  };
  struct PendingForward {
    net::NodeId client = net::kInvalidNode;
    uint64_t request_id = 0;  // the client's original id
    sim::EventId timer = sim::kInvalidEventId;
    bool operator==(const PendingForward&) const = default;
  };
  struct PendingRead {
    net::NodeId client = net::kInvalidNode;
    uint64_t request_id = 0;
    std::string key;
    std::set<net::NodeId> acks;
    size_t needed = 0;
    sim::EventId timer = sim::kInvalidEventId;
    bool operator==(const PendingRead&) const = default;
  };

  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  net::NodeId current_leader_ = net::kInvalidNode;
  uint64_t voted_term_ = 0;
  std::set<net::NodeId> votes_;
  bool election_scheduled_ = false;
  // When we last heard *as leader* from current_leader_ (announcement or
  // replication). Plain heartbeats do not count: a deposed or wedged node
  // still heartbeats, and mistaking that for a functioning leader is how
  // simplex partitions hang systems.
  sim::Time last_leader_contact_ = sim::kTimeZero;
  sim::Time primary_conflict_backoff_until_ = sim::kTimeZero;

  std::vector<LogEntry> log_;
  std::map<std::string, StoreValue> store_;
  std::map<uint64_t, PendingWrite> pending_writes_;   // by lsn
  std::map<uint64_t, PendingRead> pending_reads_;     // by guard id
  uint64_t next_guard_id_ = 1;
  std::map<uint64_t, PendingForward> forwards_;  // by forwarded request id
  uint64_t next_forward_id_ = 1;

  cluster::FailureDetector detector_;

  uint64_t elections_started_ = 0;
  uint64_t stepdowns_ = 0;

  bool operator==(const ServerState&) const = default;
};

class Server : public cluster::Process, private ServerState {
 public:
  using Role = ServerState::Role;

  // `replicas` are the data-bearing members (must contain `id` unless this
  // server is the arbiter); `arbiter` is net::kInvalidNode when absent.
  Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
         const Options& options, std::vector<net::NodeId> replicas, net::NodeId arbiter);

  // --- introspection for tests and checkers ---
  Role role() const { return role_; }
  bool is_primary() const { return role_ == Role::kPrimary; }
  uint64_t term() const { return term_; }
  net::NodeId leader() const { return current_leader_; }
  const std::vector<LogEntry>& log() const { return log_; }
  // Value currently visible for `key` on this replica (nullopt if absent).
  // The raw view includes applied-but-uncommitted entries (dirty state);
  // the committed view only reflects quorum-acknowledged writes.
  std::optional<std::string> StoreGet(const std::string& key) const;
  std::optional<std::string> StoreGetCommitted(const std::string& key) const;
  uint64_t elections_started() const { return elections_started_; }
  uint64_t stepdowns() const { return stepdowns_; }

  // --- snapshot / restore (NEAT fork executor) ---
  // Configuration (options, membership) is const and excluded. Kernel
  // state (epoch/crashed) is captured by the TestEnv, not here.
  using State = ServerState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  // Periodic tick: heartbeats out, then failure-detector-driven decisions.
  void Tick();
  void MaybeStartElection();
  void StartElection();
  void BecomeLeader();
  void StepDown(const std::string& reason, net::NodeId new_leader, uint64_t new_term);
  void AnnounceLeadership();
  // True when we are the leader or recently heard leader traffic.
  bool LeaderFunctioning() const;

  void HandleClientRequest(const net::Envelope& envelope, const ClientRequest& request);
  // Coordinator path (#9967): forward a write to the primary and relay the
  // reply; report failure when no reply arrives in time.
  void ForwardToPrimary(const net::Envelope& envelope, const ClientRequest& request);
  void HandleForwardedReply(const ClientReply& reply);
  void HandleReplicate(const net::Envelope& envelope, const Replicate& msg);
  void HandleReplicateAck(const net::Envelope& envelope, const ReplicateAck& msg);
  void HandleRequestVote(const net::Envelope& envelope, const RequestVote& msg);
  void HandleVoteGranted(const net::Envelope& envelope, const VoteGranted& msg);
  void HandleLeaderAnnounce(const net::Envelope& envelope, const LeaderAnnounce& msg);
  void HandleStepDownCommand(const StepDownCommand& msg);
  void HandleSyncRequest(const net::Envelope& envelope);
  void HandleSyncSnapshot(const SyncSnapshot& msg);
  void HandleReadGuard(const net::Envelope& envelope, const ReadGuard& msg);
  void HandleReadGuardAck(const net::Envelope& envelope, const ReadGuardAck& msg);

  // Does the voter-side election criterion prefer the candidate over us?
  bool CriterionAccepts(const RequestVote& msg) const;
  // Resolves a primary-vs-primary conflict; true if *we* win.
  bool WinsConflict(uint64_t other_term, net::NodeId other_leader, uint64_t other_log_length,
                    sim::Time other_last_timestamp) const;

  void ApplyEntry(const LogEntry& entry);
  // Marks the log entry with `lsn` committed and updates the committed view.
  void CommitEntry(uint64_t lsn);
  void ApplyCommittedView(const LogEntry& entry);
  void RebuildStore();
  void ReplyToClient(net::NodeId client, uint64_t request_id, bool ok,
                     const std::string& value = "", bool not_leader = false);
  void FailPendingOps(const std::string& reason);
  size_t VotingMajority() const;  // majority of replicas + arbiter
  size_t DataMajority() const;    // majority of data replicas
  sim::Time LastTimestamp() const;
  int Priority() const;

  const Options options_;
  const std::vector<net::NodeId> replicas_;  // sorted
  const net::NodeId arbiter_;
  const std::vector<net::NodeId> members_;  // replicas + arbiter
};

}  // namespace pbkv

#endif  // SYSTEMS_PBKV_SERVER_H_
