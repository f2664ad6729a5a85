// A Raft server with a key-value state machine.
//
// Standard Raft (elections with the up-to-date log check, log replication,
// majority commit with the current-term restriction, leader no-op barrier,
// reads serialized through the log) plus log-entry membership changes
// applied at append time. The single deviation — behind the
// delete_log_on_removal option — is RethinkDB's tweak, which this module
// exists to study.

#ifndef SYSTEMS_RAFTKV_SERVER_H_
#define SYSTEMS_RAFTKV_SERVER_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "systems/raftkv/messages.h"
#include "systems/raftkv/types.h"

namespace raftkv {

// Every field of a Server that changes after construction, as one value:
// a snapshot copies it and a restore assigns it (Server::CaptureState).
// Server inherits it privately, so its handlers name the fields directly.
struct ServerState {
  enum class Role { kFollower, kCandidate, kLeader };
  // A client response awaiting commit.
  struct PendingClient {
    net::NodeId client = net::kInvalidNode;
    uint64_t request_id = 0;
    bool operator==(const PendingClient&) const = default;
  };

  std::vector<net::NodeId> members_;  // current configuration

  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  net::NodeId voted_for_ = net::kInvalidNode;
  net::NodeId leader_id_ = net::kInvalidNode;
  std::vector<LogEntry> log_;  // log_[i] has index i+1
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;
  sim::Time election_deadline_ = 0;
  bool removed_ = false;  // retired after a config change (correct behaviour)

  std::set<net::NodeId> votes_;
  std::map<net::NodeId, uint64_t> next_index_;
  std::map<net::NodeId, uint64_t> match_index_;

  std::map<std::string, std::string> store_;
  std::map<uint64_t, PendingClient> pending_;  // by log index

  bool operator==(const ServerState&) const = default;
};

class Server : public cluster::Process, private ServerState {
 public:
  using Role = ServerState::Role;

  Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
         const Options& options, std::vector<net::NodeId> initial_members);

  // --- introspection ---
  Role role() const { return role_; }
  bool is_leader() const { return role_ == Role::kLeader; }
  uint64_t term() const { return term_; }
  uint64_t commit_index() const { return commit_index_; }
  size_t log_size() const { return log_.size(); }
  const std::vector<net::NodeId>& members() const { return members_; }
  bool removed() const { return removed_; }
  std::optional<std::string> StoreGet(const std::string& key) const;

  // --- snapshot / restore (NEAT fork executor) ---
  using State = ServerState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 protected:
  void OnStart() override;
  void OnMessage(const net::Envelope& envelope) override;

 private:
  void Tick();
  void ResetElectionDeadline();
  void StartElection();
  void BecomeLeader();
  void BecomeFollower(uint64_t term, net::NodeId leader);
  void SendAppendEntries(net::NodeId peer);
  void BroadcastAppendEntries();
  void AdvanceCommitIndex();
  void ApplyCommitted();
  void ApplyConfig(const Command& command);
  void HandleRemoval();

  void HandleRequestVote(const net::Envelope& envelope, const RequestVoteReq& msg);
  void HandleRequestVoteResp(const net::Envelope& envelope, const RequestVoteResp& msg);
  void HandleAppendEntries(const net::Envelope& envelope, const AppendEntriesReq& msg);
  void HandleAppendEntriesResp(const net::Envelope& envelope, const AppendEntriesResp& msg);
  void HandleClientCommand(const net::Envelope& envelope, const ClientCommand& msg);

  uint64_t LastLogIndex() const { return log_.empty() ? 0 : log_.back().index; }
  uint64_t LastLogTerm() const { return log_.empty() ? 0 : log_.back().term; }
  const LogEntry* EntryAt(uint64_t index) const;  // 1-based; null if absent
  size_t Majority() const { return members_.size() / 2 + 1; }
  bool IsMember(net::NodeId node) const;
  void FailPending(const std::string& reason);

  const Options options_;
  // Bootstrap membership; the live one is members_, from the replicated config.
  const std::vector<net::NodeId> initial_members_;
};

}  // namespace raftkv

#endif  // SYSTEMS_RAFTKV_SERVER_H_
