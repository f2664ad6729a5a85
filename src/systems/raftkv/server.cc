#include "systems/raftkv/server.h"

#include <algorithm>

namespace raftkv {

Server::Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               const Options& options, std::vector<net::NodeId> initial_members)
    : cluster::Process(simulator, network, id, "raft.n" + std::to_string(id)),
      options_(options),
      initial_members_(std::move(initial_members)) {
  members_ = initial_members_;
}

void Server::OnStart() {
  ResetElectionDeadline();
  Every(options_.heartbeat_interval, [this]() { Tick(); });
}

void Server::ResetElectionDeadline() {
  const auto span = static_cast<uint64_t>(options_.election_timeout_max -
                                          options_.election_timeout_min);
  election_deadline_ = Now() + options_.election_timeout_min +
                       static_cast<sim::Duration>(simulator()->Rand().NextBelow(span));
}

std::optional<std::string> Server::StoreGet(const std::string& key) const {
  auto it = store_.find(key);
  if (it == store_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const LogEntry* Server::EntryAt(uint64_t index) const {
  if (index == 0 || index > log_.size()) {
    return nullptr;
  }
  return &log_[index - 1];
}

bool Server::IsMember(net::NodeId node) const {
  return std::find(members_.begin(), members_.end(), node) != members_.end();
}

void Server::Tick() {
  if (role_ == Role::kLeader) {
    BroadcastAppendEntries();
    return;
  }
  if (!removed_ && Now() >= election_deadline_) {
    StartElection();
  }
}

void Server::StartElection() {
  role_ = Role::kCandidate;
  ++term_;
  voted_for_ = id();
  votes_.clear();
  votes_.insert(id());
  leader_id_ = net::kInvalidNode;
  ResetElectionDeadline();
  TraceEvent("election-start", "term=" + std::to_string(term_));
  if (votes_.size() >= Majority()) {
    BecomeLeader();
    return;
  }
  for (net::NodeId peer : members_) {
    if (peer == id()) {
      continue;
    }
    auto req = std::make_shared<RequestVoteReq>();
    req->term = term_;
    req->candidate = id();
    req->last_log_index = LastLogIndex();
    req->last_log_term = LastLogTerm();
    SendEnvelope(peer, req);
  }
}

void Server::BecomeLeader() {
  role_ = Role::kLeader;
  leader_id_ = id();
  TraceEvent("elected", "term=" + std::to_string(term_));
  next_index_.clear();
  match_index_.clear();
  for (net::NodeId peer : members_) {
    next_index_[peer] = LastLogIndex() + 1;
    match_index_[peer] = 0;
  }
  // No-op barrier entry: commits everything from earlier terms once it
  // commits (the standard fix for the stale-read-at-term-start hazard).
  LogEntry entry;
  entry.term = term_;
  entry.index = LastLogIndex() + 1;
  entry.command.kind = CommandKind::kNoop;
  log_.push_back(entry);
  BroadcastAppendEntries();
}

void Server::BecomeFollower(uint64_t term, net::NodeId leader) {
  const bool was_leader = role_ == Role::kLeader;
  role_ = Role::kFollower;
  if (term > term_) {
    term_ = term;
    voted_for_ = net::kInvalidNode;
  }
  if (leader != net::kInvalidNode) {
    leader_id_ = leader;
  }
  if (was_leader) {
    TraceEvent("step-down", "term=" + std::to_string(term));
    FailPending("lost leadership");
  }
}

void Server::FailPending(const std::string& reason) {
  (void)reason;
  for (const auto& [index, pending] : pending_) {
    auto resp = std::make_shared<ClientResponse>();
    resp->request_id = pending.request_id;
    resp->ok = false;
    resp->not_leader = true;
    resp->leader_hint = leader_id_;
    SendEnvelope(pending.client, resp);
  }
  pending_.clear();
}

void Server::SendAppendEntries(net::NodeId peer) {
  auto req = std::make_shared<AppendEntriesReq>();
  req->term = term_;
  req->leader = id();
  const uint64_t next = next_index_[peer];
  req->prev_log_index = next - 1;
  const LogEntry* prev = EntryAt(next - 1);
  req->prev_log_term = prev != nullptr ? prev->term : 0;
  for (uint64_t i = next; i <= LastLogIndex(); ++i) {
    req->entries.push_back(*EntryAt(i));
  }
  req->leader_commit = commit_index_;
  SendEnvelope(peer, req);
}

void Server::BroadcastAppendEntries() {
  for (net::NodeId peer : members_) {
    if (peer != id()) {
      SendAppendEntries(peer);
    }
  }
}

void Server::ApplyConfig(const Command& command) {
  const std::vector<net::NodeId> old_members = members_;
  members_ = command.members;
  TraceEvent("config", "members=" + std::to_string(members_.size()));
  if (role_ == Role::kLeader) {
    // Start replicating to members this entry adds, as BecomeLeader does
    // for the members it found; existing members keep their progress.
    for (net::NodeId peer : members_) {
      next_index_.try_emplace(peer, LastLogIndex() + 1);
      match_index_.try_emplace(peer, 0);
    }
    // Tell replicas that just left the configuration; the leader will not
    // contact them again.
    for (net::NodeId node : old_members) {
      if (node != id() && !IsMember(node)) {
        auto notice = std::make_shared<RemoveNotice>();
        notice->members = members_;
        SendEnvelope(node, notice);
      }
    }
  }
  if (!IsMember(id())) {
    HandleRemoval();
  }
}

void Server::HandleRemoval() {
  if (options_.delete_log_on_removal) {
    // The RethinkDB #5289 tweak: wipe the log — and with it the memory of
    // ever having been removed. The node is reborn into the *initial*
    // configuration, ready to vote for old-configuration candidates and to
    // serve old-configuration leaders: two replica sets for the same keys.
    TraceEvent("removed-wipe", "log deleted");
    log_.clear();
    store_.clear();
    commit_index_ = 0;
    last_applied_ = 0;
    term_ = 0;
    voted_for_ = net::kInvalidNode;
    leader_id_ = net::kInvalidNode;
    members_ = initial_members_;
    removed_ = false;
    role_ = Role::kFollower;
    pending_.clear();
    ResetElectionDeadline();
  } else {
    // Correct retirement: keep the log, refuse further participation.
    TraceEvent("removed-retire");
    removed_ = true;
    if (role_ == Role::kLeader) {
      FailPending("removed from configuration");
    }
    role_ = Role::kFollower;
  }
}

void Server::AdvanceCommitIndex() {
  for (uint64_t n = LastLogIndex(); n > commit_index_; --n) {
    const LogEntry* entry = EntryAt(n);
    if (entry->term != term_) {
      break;  // only current-term entries commit by counting (Raft §5.4.2)
    }
    size_t count = IsMember(id()) ? 1 : 0;
    for (net::NodeId peer : members_) {
      if (peer != id() && match_index_[peer] >= n) {
        ++count;
      }
    }
    if (count >= Majority()) {
      commit_index_ = n;
      break;
    }
  }
  ApplyCommitted();
}

void Server::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    const LogEntry* entry = EntryAt(last_applied_);
    std::string read_value;
    switch (entry->command.kind) {
      case CommandKind::kPut:
        store_[entry->command.key] = entry->command.value;
        break;
      case CommandKind::kDelete:
        store_.erase(entry->command.key);
        break;
      case CommandKind::kGet: {
        auto it = store_.find(entry->command.key);
        read_value = it == store_.end() ? "" : it->second;
        break;
      }
      case CommandKind::kNoop:
      case CommandKind::kConfig:
        break;  // config already applied at append time
    }
    auto pending = pending_.find(last_applied_);
    if (pending != pending_.end()) {
      auto resp = std::make_shared<ClientResponse>();
      resp->request_id = pending->second.request_id;
      resp->ok = true;
      resp->value = read_value;
      SendEnvelope(pending->second.client, resp);
      pending_.erase(pending);
    }
  }
}

void Server::HandleRequestVote(const net::Envelope& envelope, const RequestVoteReq& msg) {
  if (removed_) {
    return;  // retired replicas no longer vote
  }
  if (msg.term > term_) {
    BecomeFollower(msg.term, net::kInvalidNode);
  }
  const bool log_ok = msg.last_log_term > LastLogTerm() ||
                      (msg.last_log_term == LastLogTerm() &&
                       msg.last_log_index >= LastLogIndex());
  const bool granted = msg.term == term_ && log_ok &&
                       (voted_for_ == net::kInvalidNode || voted_for_ == msg.candidate);
  if (granted) {
    voted_for_ = msg.candidate;
    ResetElectionDeadline();
  }
  auto resp = std::make_shared<RequestVoteResp>();
  resp->term = term_;
  resp->granted = granted;
  SendEnvelope(envelope.src, resp);
}

void Server::HandleRequestVoteResp(const net::Envelope& envelope, const RequestVoteResp& msg) {
  if (msg.term > term_) {
    BecomeFollower(msg.term, net::kInvalidNode);
    return;
  }
  if (role_ != Role::kCandidate || msg.term != term_ || !msg.granted) {
    return;
  }
  votes_.insert(envelope.src);
  if (votes_.size() >= Majority()) {
    BecomeLeader();
  }
}

void Server::HandleAppendEntries(const net::Envelope& envelope, const AppendEntriesReq& msg) {
  auto respond = [this, &envelope](bool success, uint64_t match) {
    auto resp = std::make_shared<AppendEntriesResp>();
    resp->term = term_;
    resp->success = success;
    resp->match_index = match;
    SendEnvelope(envelope.src, resp);
  };
  if (removed_) {
    return;  // retired replicas no longer replicate
  }
  if (msg.term < term_) {
    respond(false, 0);
    return;
  }
  BecomeFollower(msg.term, msg.leader);
  ResetElectionDeadline();

  if (msg.prev_log_index > 0) {
    const LogEntry* prev = EntryAt(msg.prev_log_index);
    if (prev == nullptr || prev->term != msg.prev_log_term) {
      respond(false, 0);
      return;
    }
  }
  for (const LogEntry& entry : msg.entries) {
    const LogEntry* existing = EntryAt(entry.index);
    if (existing != nullptr) {
      if (existing->term == entry.term) {
        continue;  // already have it
      }
      // Conflict: truncate our divergent suffix.
      log_.resize(entry.index - 1);
    }
    log_.push_back(entry);
    if (entry.command.kind == CommandKind::kConfig) {
      ApplyConfig(entry.command);
      if (log_.empty() || removed_) {
        // We were just removed (wiped or retired); drop out of this batch.
        return;
      }
    }
  }
  const uint64_t match = msg.prev_log_index + msg.entries.size();
  if (msg.leader_commit > commit_index_) {
    commit_index_ = std::min(msg.leader_commit, LastLogIndex());
    ApplyCommitted();
  }
  respond(true, match);
}

void Server::HandleAppendEntriesResp(const net::Envelope& envelope,
                                     const AppendEntriesResp& msg) {
  if (msg.term > term_) {
    BecomeFollower(msg.term, net::kInvalidNode);
    return;
  }
  if (role_ != Role::kLeader || msg.term != term_) {
    return;
  }
  const net::NodeId peer = envelope.src;
  if (msg.success) {
    match_index_[peer] = std::max(match_index_[peer], msg.match_index);
    next_index_[peer] = match_index_[peer] + 1;
    AdvanceCommitIndex();
  } else {
    if (next_index_[peer] > 1) {
      --next_index_[peer];
    }
    SendAppendEntries(peer);
  }
}

void Server::HandleClientCommand(const net::Envelope& envelope, const ClientCommand& msg) {
  if (role_ != Role::kLeader || removed_) {
    auto resp = std::make_shared<ClientResponse>();
    resp->request_id = msg.request_id;
    resp->ok = false;
    resp->not_leader = true;
    resp->leader_hint = leader_id_ == id() ? net::kInvalidNode : leader_id_;
    SendEnvelope(envelope.src, resp);
    return;
  }
  LogEntry entry;
  entry.term = term_;
  entry.index = LastLogIndex() + 1;
  entry.command = msg.command;
  log_.push_back(entry);
  pending_[entry.index] = PendingClient{envelope.src, msg.request_id};
  if (entry.command.kind == CommandKind::kConfig) {
    ApplyConfig(entry.command);
  }
  if (Majority() == 1) {
    AdvanceCommitIndex();
  }
  BroadcastAppendEntries();
}

void Server::OnMessage(const net::Envelope& envelope) {
  const net::Message& msg = *envelope.msg;
  if (auto* vote_req = msg.As<RequestVoteReq>()) {
    HandleRequestVote(envelope, *vote_req);
  } else if (auto* vote_resp = msg.As<RequestVoteResp>()) {
    HandleRequestVoteResp(envelope, *vote_resp);
  } else if (auto* append = msg.As<AppendEntriesReq>()) {
    HandleAppendEntries(envelope, *append);
  } else if (auto* append_resp = msg.As<AppendEntriesResp>()) {
    HandleAppendEntriesResp(envelope, *append_resp);
  } else if (auto* command = msg.As<ClientCommand>()) {
    HandleClientCommand(envelope, *command);
  } else if (auto* notice = msg.As<RemoveNotice>()) {
    const bool excluded = std::find(notice->members.begin(), notice->members.end(), id()) ==
                          notice->members.end();
    if (!removed_ && excluded) {
      members_ = notice->members;
      HandleRemoval();
    }
  }
}

}  // namespace raftkv
