#include "systems/pbkv/server.h"

#include <algorithm>
#include <cassert>

namespace pbkv {
namespace {

size_t MajorityOf(size_t n) { return n / 2 + 1; }

std::vector<net::NodeId> Sorted(std::vector<net::NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

std::vector<net::NodeId> WithArbiter(std::vector<net::NodeId> replicas, net::NodeId arbiter) {
  if (arbiter != net::kInvalidNode) {
    replicas.push_back(arbiter);
  }
  return replicas;
}

}  // namespace

Server::Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               const Options& options, std::vector<net::NodeId> replicas, net::NodeId arbiter)
    : cluster::Process(simulator, network, id, "pbkv.n" + std::to_string(id)),
      options_(options),
      replicas_(Sorted(std::move(replicas))),
      arbiter_(arbiter),
      members_(WithArbiter(replicas_, arbiter)) {
  detector_ = cluster::FailureDetector(
      id, members_, {options.heartbeat_interval, options.election_miss_threshold});
}

void Server::OnStart() {
  term_ = 1;
  current_leader_ = replicas_.front();
  if (id() == arbiter_) {
    role_ = Role::kArbiter;
  } else if (id() == current_leader_) {
    role_ = Role::kPrimary;
  } else {
    role_ = Role::kFollower;
  }
  detector_.Reset(Now());
  last_leader_contact_ = Now();
  Every(options_.heartbeat_interval, [this]() { Tick(); });
}

bool Server::LeaderFunctioning() const {
  if (role_ == Role::kPrimary) {
    return true;
  }
  if (current_leader_ == net::kInvalidNode) {
    return false;
  }
  const sim::Duration election_timeout =
      options_.heartbeat_interval * options_.election_miss_threshold;
  return Now() - last_leader_contact_ <= election_timeout;
}

sim::Time Server::LastTimestamp() const {
  return log_.empty() ? sim::kTimeZero : log_.back().timestamp;
}

int Server::Priority() const {
  auto it = options_.priorities.find(id());
  return it == options_.priorities.end() ? 0 : it->second;
}

size_t Server::VotingMajority() const { return MajorityOf(members_.size()); }

size_t Server::DataMajority() const { return MajorityOf(replicas_.size()); }

void Server::Tick() {
  for (net::NodeId peer : members_) {
    if (peer != id()) {
      Send<cluster::HeartbeatMsg>(peer, incarnation());
    }
  }
  if (role_ == Role::kPrimary) {
    AnnounceLeadership();
    // Step down when a majority of the membership has been unreachable for
    // the (long) step-down window.
    const sim::Duration stepdown_timeout =
        options_.heartbeat_interval * options_.stepdown_miss_threshold;
    size_t alive = 1;  // self
    for (net::NodeId peer : members_) {
      if (peer != id() && detector_.IsAliveWithin(peer, Now(), stepdown_timeout)) {
        ++alive;
      }
    }
    if (alive < VotingMajority()) {
      StepDown("lost majority of membership", net::kInvalidNode, term_);
    }
  } else if (role_ != Role::kArbiter) {
    MaybeStartElection();
  }
}

void Server::MaybeStartElection() {
  if (election_scheduled_ || role_ == Role::kPrimary || role_ == Role::kArbiter) {
    return;
  }
  if (LeaderFunctioning()) {
    return;
  }
  election_scheduled_ = true;
  // Randomized backoff so simultaneous candidacies eventually separate.
  const sim::Duration backoff = static_cast<sim::Duration>(simulator()->Rand().NextBelow(
      static_cast<uint64_t>(2 * options_.heartbeat_interval) + 1));
  After(backoff, [this]() {
    election_scheduled_ = false;
    if (role_ != Role::kPrimary && role_ != Role::kArbiter && !LeaderFunctioning()) {
      StartElection();
    }
  });
}

void Server::StartElection() {
  ++elections_started_;
  role_ = Role::kCandidate;
  term_ = std::max(term_, voted_term_) + 1;
  voted_term_ = term_;
  votes_.clear();
  votes_.insert(id());
  TraceEvent("election-start", "term=" + std::to_string(term_));
  if (votes_.size() >= VotingMajority()) {
    BecomeLeader();
    return;
  }
  for (net::NodeId peer : members_) {
    if (peer == id()) {
      continue;
    }
    auto msg = std::make_shared<RequestVote>();
    msg->term = term_;
    msg->candidate = id();
    msg->log_length = log_.size();
    msg->last_timestamp = LastTimestamp();
    msg->priority = Priority();
    SendEnvelope(peer, msg);
  }
  // Give up and retry later if the election does not conclude.
  const uint64_t this_term = term_;
  After(2 * options_.heartbeat_interval * options_.election_miss_threshold, [this, this_term]() {
    if (role_ == Role::kCandidate && term_ == this_term) {
      role_ = Role::kFollower;
      TraceEvent("election-timeout", "term=" + std::to_string(this_term));
    }
  });
}

void Server::BecomeLeader() {
  role_ = Role::kPrimary;
  current_leader_ = id();
  TraceEvent("elected", "term=" + std::to_string(term_));
  AnnounceLeadership();
}

void Server::AnnounceLeadership() {
  for (net::NodeId peer : members_) {
    if (peer == id()) {
      continue;
    }
    auto msg = std::make_shared<LeaderAnnounce>();
    msg->term = term_;
    msg->leader = id();
    msg->log_length = log_.size();
    msg->last_timestamp = LastTimestamp();
    SendEnvelope(peer, msg);
  }
}

void Server::StepDown(const std::string& reason, net::NodeId new_leader, uint64_t new_term) {
  if (role_ == Role::kPrimary) {
    ++stepdowns_;
  }
  TraceEvent("step-down", reason);
  role_ = Role::kFollower;
  term_ = std::max(term_, new_term);
  current_leader_ = new_leader;
  if (new_leader != net::kInvalidNode) {
    detector_.RecordHeartbeat(new_leader, Now());
    last_leader_contact_ = Now();
  }
  FailPendingOps(reason);
}

void Server::FailPendingOps(const std::string& reason) {
  (void)reason;
  for (auto& [lsn, pending] : pending_writes_) {
    simulator()->Cancel(pending.timer);
    ReplyToClient(pending.client, pending.request_id, /*ok=*/false);
  }
  pending_writes_.clear();
  for (auto& [guard, pending] : pending_reads_) {
    simulator()->Cancel(pending.timer);
    ReplyToClient(pending.client, pending.request_id, /*ok=*/false);
  }
  pending_reads_.clear();
}

void Server::ReplyToClient(net::NodeId client, uint64_t request_id, bool ok,
                           const std::string& value, bool not_leader) {
  auto reply = std::make_shared<ClientReply>();
  reply->request_id = request_id;
  reply->ok = ok;
  reply->not_leader = not_leader;
  reply->leader_hint = current_leader_;
  reply->value = value;
  SendEnvelope(client, reply);
}

void Server::ApplyEntry(const LogEntry& entry) {
  StoreValue& slot = store_[entry.key];
  slot.timestamp = entry.timestamp;
  if (entry.kind == OpKind::kPut) {
    slot.value = entry.value;
    slot.present = true;
  } else {
    slot.value.clear();
    slot.present = false;
  }
  if (entry.committed) {
    ApplyCommittedView(entry);
  }
}

void Server::ApplyCommittedView(const LogEntry& entry) {
  StoreValue& slot = store_[entry.key];
  if (entry.kind == OpKind::kPut) {
    slot.committed_value = entry.value;
    slot.committed_present = true;
  } else {
    slot.committed_value.clear();
    slot.committed_present = false;
  }
}

void Server::CommitEntry(uint64_t lsn) {
  for (LogEntry& entry : log_) {
    if (entry.lsn == lsn && !entry.committed) {
      entry.committed = true;
      ApplyCommittedView(entry);
    }
  }
}

void Server::RebuildStore() {
  store_.clear();
  for (const LogEntry& entry : log_) {
    ApplyEntry(entry);
  }
}

std::optional<std::string> Server::StoreGet(const std::string& key) const {
  auto it = store_.find(key);
  if (it == store_.end() || !it->second.present) {
    return std::nullopt;
  }
  return it->second.value;
}

std::optional<std::string> Server::StoreGetCommitted(const std::string& key) const {
  auto it = store_.find(key);
  if (it == store_.end() || !it->second.committed_present) {
    return std::nullopt;
  }
  return it->second.committed_value;
}

void Server::OnMessage(const net::Envelope& envelope) {
  // Any traffic from a member doubles as liveness evidence.
  if (std::find(members_.begin(), members_.end(), envelope.src) != members_.end()) {
    detector_.RecordHeartbeat(envelope.src, Now());
  }
  const net::Message& msg = *envelope.msg;
  if (auto* request = msg.As<ClientRequest>()) {
    HandleClientRequest(envelope, *request);
  } else if (auto* client_reply = msg.As<ClientReply>()) {
    HandleForwardedReply(*client_reply);
  } else if (auto* replicate = msg.As<Replicate>()) {
    HandleReplicate(envelope, *replicate);
  } else if (auto* ack = msg.As<ReplicateAck>()) {
    HandleReplicateAck(envelope, *ack);
  } else if (auto* vote_req = msg.As<RequestVote>()) {
    HandleRequestVote(envelope, *vote_req);
  } else if (auto* vote = msg.As<VoteGranted>()) {
    HandleVoteGranted(envelope, *vote);
  } else if (auto* announce = msg.As<LeaderAnnounce>()) {
    HandleLeaderAnnounce(envelope, *announce);
  } else if (auto* stepdown = msg.As<StepDownCommand>()) {
    HandleStepDownCommand(*stepdown);
  } else if (msg.As<SyncRequest>() != nullptr) {
    HandleSyncRequest(envelope);
  } else if (auto* snapshot = msg.As<SyncSnapshot>()) {
    HandleSyncSnapshot(*snapshot);
  } else if (auto* guard = msg.As<ReadGuard>()) {
    HandleReadGuard(envelope, *guard);
  } else if (auto* guard_ack = msg.As<ReadGuardAck>()) {
    HandleReadGuardAck(envelope, *guard_ack);
  }
  // HeartbeatMsg needs no handling beyond the liveness recording above.
}

void Server::ForwardToPrimary(const net::Envelope& envelope, const ClientRequest& request) {
  const uint64_t forward_id = next_forward_id_++;
  PendingForward forward;
  forward.client = envelope.src;
  forward.request_id = request.request_id;
  forward.timer = After(2 * options_.replication_timeout, [this, forward_id]() {
    auto it = forwards_.find(forward_id);
    if (it != forwards_.end()) {
      // No reply from the primary. The write may well have committed — but
      // the client is told it failed (#9967's wrong status code).
      TraceEvent("forward-timeout", "id=" + std::to_string(forward_id));
      ReplyToClient(it->second.client, it->second.request_id, /*ok=*/false);
      forwards_.erase(it);
    }
  });
  forwards_.emplace(forward_id, forward);
  auto forwarded = std::make_shared<ClientRequest>();
  forwarded->request_id = forward_id;
  forwarded->kind = request.kind;
  forwarded->is_read = request.is_read;
  forwarded->key = request.key;
  forwarded->value = request.value;
  SendEnvelope(current_leader_, forwarded);
}

void Server::HandleForwardedReply(const ClientReply& reply) {
  auto it = forwards_.find(reply.request_id);
  if (it == forwards_.end()) {
    return;
  }
  simulator()->Cancel(it->second.timer);
  ReplyToClient(it->second.client, it->second.request_id, reply.ok, reply.value);
  forwards_.erase(it);
}

void Server::HandleClientRequest(const net::Envelope& envelope, const ClientRequest& request) {
  if (role_ != Role::kPrimary) {
    if (options_.forward_writes && !request.is_read && role_ == Role::kFollower &&
        current_leader_ != net::kInvalidNode && current_leader_ != id()) {
      ForwardToPrimary(envelope, request);
      return;
    }
    ReplyToClient(envelope.src, request.request_id, /*ok=*/false, "", /*not_leader=*/true);
    return;
  }
  if (request.is_read) {
    if (!options_.quorum_reads) {
      // Local read: serves the raw store, dirty state included (Figure 2).
      auto value = StoreGet(request.key);
      ReplyToClient(envelope.src, request.request_id, /*ok=*/true, value.value_or(""));
      return;
    }
    if (DataMajority() <= 1) {
      auto value = StoreGetCommitted(request.key);
      ReplyToClient(envelope.src, request.request_id, /*ok=*/true, value.value_or(""));
      return;
    }
    const uint64_t guard_id = next_guard_id_++;
    PendingRead pending;
    pending.client = envelope.src;
    pending.request_id = request.request_id;
    pending.key = request.key;
    pending.acks.insert(id());
    pending.needed = DataMajority();
    pending.timer = After(options_.read_guard_timeout, [this, guard_id]() {
      auto it = pending_reads_.find(guard_id);
      if (it != pending_reads_.end()) {
        ReplyToClient(it->second.client, it->second.request_id, /*ok=*/false);
        pending_reads_.erase(it);
      }
    });
    pending_reads_.emplace(guard_id, std::move(pending));
    for (net::NodeId peer : replicas_) {
      if (peer == id()) {
        continue;
      }
      auto msg = std::make_shared<ReadGuard>();
      msg->term = term_;
      msg->guard_id = guard_id;
      SendEnvelope(peer, msg);
    }
    return;
  }

  // Write path: append locally (eagerly applied — the dirty state the study
  // documents), then replicate.
  LogEntry entry;
  entry.lsn = log_.empty() ? 1 : log_.back().lsn + 1;
  entry.term = term_;
  entry.kind = request.kind;
  entry.key = request.key;
  entry.value = request.value;
  entry.timestamp = Now();
  log_.push_back(entry);
  ApplyEntry(entry);

  size_t needed = 0;
  switch (options_.write_concern) {
    case WriteConcern::kMajorityOfCluster:
      needed = DataMajority();
      break;
    case WriteConcern::kMajorityOfReachable: {
      size_t reachable = 1;
      for (net::NodeId peer : replicas_) {
        if (peer != id() && detector_.IsAlive(peer, Now())) {
          ++reachable;
        }
      }
      needed = MajorityOf(reachable);
      break;
    }
    case WriteConcern::kAsync:
      needed = 1;
      break;
  }

  for (net::NodeId peer : replicas_) {
    if (peer == id()) {
      continue;
    }
    auto msg = std::make_shared<Replicate>();
    msg->term = term_;
    msg->leader = id();
    msg->entry = entry;
    SendEnvelope(peer, msg);
  }

  if (needed <= 1) {
    CommitEntry(entry.lsn);
    ReplyToClient(envelope.src, request.request_id, /*ok=*/true);
    return;
  }
  PendingWrite pending;
  pending.client = envelope.src;
  pending.request_id = request.request_id;
  pending.acks.insert(id());
  pending.needed = needed;
  const uint64_t lsn = entry.lsn;
  pending.timer = After(options_.replication_timeout, [this, lsn]() {
    auto it = pending_writes_.find(lsn);
    if (it != pending_writes_.end()) {
      // Replication quorum not reached: fail the write. The entry stays in
      // the local log/store — the source of dirty reads (Figure 2).
      TraceEvent("write-failed", "lsn=" + std::to_string(lsn));
      ReplyToClient(it->second.client, it->second.request_id, /*ok=*/false);
      pending_writes_.erase(it);
    }
  });
  pending_writes_.emplace(lsn, std::move(pending));
}

void Server::HandleReplicate(const net::Envelope& envelope, const Replicate& msg) {
  if (role_ == Role::kArbiter) {
    return;
  }
  const bool confused_follower = !options_.refuse_vote_if_leader_alive;
  if (msg.term < term_ && !confused_follower) {
    return;  // stale leader; let it time out
  }
  if (msg.term > term_ || (msg.term == term_ && role_ != Role::kPrimary)) {
    if (role_ == Role::kPrimary && msg.term > term_) {
      StepDown("higher-term replication", msg.leader, msg.term);
    }
    term_ = std::max(term_, msg.term);
    current_leader_ = msg.leader;
    last_leader_contact_ = Now();
    if (role_ != Role::kArbiter) {
      role_ = role_ == Role::kPrimary ? role_ : Role::kFollower;
    }
  }
  // Deduplicate by (term, lsn); otherwise append and apply.
  bool known = false;
  for (const LogEntry& existing : log_) {
    if (existing.term == msg.entry.term && existing.lsn == msg.entry.lsn) {
      known = true;
      break;
    }
  }
  if (!known) {
    log_.push_back(msg.entry);
    ApplyEntry(msg.entry);
  }
  auto ack = std::make_shared<ReplicateAck>();
  ack->term = msg.term;
  ack->lsn = msg.entry.lsn;
  SendEnvelope(envelope.src, ack);
}

void Server::HandleReplicateAck(const net::Envelope& envelope, const ReplicateAck& msg) {
  if (role_ != Role::kPrimary || msg.term != term_) {
    return;
  }
  auto it = pending_writes_.find(msg.lsn);
  if (it == pending_writes_.end()) {
    return;
  }
  it->second.acks.insert(envelope.src);
  if (it->second.acks.size() >= it->second.needed) {
    simulator()->Cancel(it->second.timer);
    CommitEntry(msg.lsn);
    ReplyToClient(it->second.client, it->second.request_id, /*ok=*/true);
    pending_writes_.erase(it);
  }
}

bool Server::CriterionAccepts(const RequestVote& msg) const {
  if (role_ == Role::kArbiter) {
    return true;  // arbiters hold no data; any contestant satisfies the criterion
  }
  switch (options_.criterion) {
    case ElectionCriterion::kLongestLog:
      return msg.log_length >= log_.size();
    case ElectionCriterion::kLatestTimestamp:
      return msg.last_timestamp >= LastTimestamp();
    case ElectionCriterion::kLowestId:
      return msg.candidate < id();
    case ElectionCriterion::kPriorityThenTimestamp:
      // The two rejections whose conjunction can leave the cluster
      // leaderless (SERVER-14885).
      if (Priority() > msg.priority) {
        return false;
      }
      if (LastTimestamp() > msg.last_timestamp) {
        return false;
      }
      return true;
  }
  return false;
}

void Server::HandleRequestVote(const net::Envelope& envelope, const RequestVote& msg) {
  bool granted = true;
  if (msg.term <= voted_term_ || msg.term <= term_) {
    granted = false;  // already voted in this term, or the term is stale
  }
  if (granted && role_ == Role::kPrimary) {
    granted = false;  // we are the leader; the candidate should follow us
  }
  if (granted && role_ == Role::kArbiter) {
    if (options_.arbiter_checks_leader && current_leader_ != msg.candidate &&
        LeaderFunctioning()) {
      granted = false;  // SERVER-27125 fix: a healthy primary is visible
    }
  } else if (granted && options_.refuse_vote_if_leader_alive &&
             current_leader_ != msg.candidate && LeaderFunctioning()) {
    granted = false;  // the Elasticsearch #2488 fix
  }
  if (granted && !CriterionAccepts(msg)) {
    granted = false;
  }
  if (granted) {
    voted_term_ = msg.term;
    TraceEvent("vote", "for=" + std::to_string(msg.candidate) +
                           " term=" + std::to_string(msg.term));
  }
  auto reply = std::make_shared<VoteGranted>();
  reply->term = msg.term;
  reply->granted = granted;
  reply->voter_term = term_;
  if (!granted) {
    if (role_ == Role::kPrimary) {
      reply->leader_hint = id();
    } else if (LeaderFunctioning()) {
      reply->leader_hint = current_leader_;
    }
  }
  SendEnvelope(envelope.src, reply);
}

void Server::HandleVoteGranted(const net::Envelope& envelope, const VoteGranted& msg) {
  if (role_ == Role::kCandidate && !msg.granted && msg.voter_term > term_) {
    // Our candidacies inflated our term past the cluster's reality while we
    // were partitioned away; adopt the voter's term so the current leader's
    // announcements are no longer "stale" to us.
    term_ = msg.voter_term;
    voted_term_ = std::max(voted_term_, msg.voter_term);
    role_ = Role::kFollower;
    return;
  }
  if (role_ == Role::kCandidate && !msg.granted && msg.leader_hint != net::kInvalidNode &&
      msg.leader_hint != id()) {
    // The voter sees a healthy leader we lost track of (our term may have
    // run ahead during the partition): fall in line and resynchronize.
    role_ = Role::kFollower;
    current_leader_ = msg.leader_hint;
    detector_.RecordHeartbeat(msg.leader_hint, Now());
    last_leader_contact_ = Now();
    auto sync = std::make_shared<SyncRequest>();
    sync->term = term_;
    SendEnvelope(msg.leader_hint, sync);
    return;
  }
  if (role_ != Role::kCandidate || msg.term != term_ || !msg.granted) {
    return;
  }
  votes_.insert(envelope.src);
  if (votes_.size() >= VotingMajority()) {
    BecomeLeader();
  }
}

bool Server::WinsConflict(uint64_t other_term, net::NodeId other_leader,
                          uint64_t other_log_length, sim::Time other_last_timestamp) const {
  if (options_.conflict_winner == ConflictWinner::kHigherTerm) {
    if (term_ != other_term) {
      return term_ > other_term;
    }
    return id() < other_leader;
  }
  switch (options_.criterion) {
    case ElectionCriterion::kLowestId:
      return id() < other_leader;
    case ElectionCriterion::kLongestLog:
      if (log_.size() != other_log_length) {
        return log_.size() > other_log_length;
      }
      return id() < other_leader;
    case ElectionCriterion::kLatestTimestamp:
    case ElectionCriterion::kPriorityThenTimestamp:
      if (LastTimestamp() != other_last_timestamp) {
        return LastTimestamp() > other_last_timestamp;
      }
      return id() < other_leader;
  }
  return id() < other_leader;
}

void Server::HandleLeaderAnnounce(const net::Envelope& envelope, const LeaderAnnounce& msg) {
  if (msg.leader == id()) {
    return;
  }
  if (role_ == Role::kPrimary) {
    if (WinsConflict(msg.term, msg.leader, msg.log_length, msg.last_timestamp)) {
      // Push back: re-announce so the other primary resolves and steps down.
      // Rate limiting is unnecessary: announcements already flow each tick.
      if (Now() >= primary_conflict_backoff_until_) {
        primary_conflict_backoff_until_ = Now() + options_.heartbeat_interval;
        auto push = std::make_shared<LeaderAnnounce>();
        push->term = term_;
        push->leader = id();
        push->log_length = log_.size();
        push->last_timestamp = LastTimestamp();
        SendEnvelope(envelope.src, push);
      }
      return;
    }
    StepDown("lost primary conflict", msg.leader, msg.term);
    auto sync = std::make_shared<SyncRequest>();
    sync->term = msg.term;
    SendEnvelope(msg.leader, sync);
    return;
  }
  if (msg.term < term_) {
    return;  // stale announcement
  }
  const net::NodeId old_leader = current_leader_;
  term_ = std::max(term_, msg.term);
  current_leader_ = msg.leader;
  if (role_ == Role::kCandidate) {
    role_ = Role::kFollower;
  }
  detector_.RecordHeartbeat(msg.leader, Now());
  last_leader_contact_ = Now();
  // An arbiter that accepts a new leader tells the deposed one to step down
  // (the MongoDB arbiter notification that drives the thrash failure).
  if (role_ == Role::kArbiter && old_leader != net::kInvalidNode && old_leader != msg.leader) {
    auto cmd = std::make_shared<StepDownCommand>();
    cmd->term = msg.term;
    cmd->leader = msg.leader;
    SendEnvelope(old_leader, cmd);
  }
}

void Server::HandleStepDownCommand(const StepDownCommand& msg) {
  if (role_ == Role::kPrimary && msg.term >= term_ && msg.leader != id()) {
    StepDown("arbiter step-down command", msg.leader, msg.term);
  }
}

void Server::HandleSyncRequest(const net::Envelope& envelope) {
  if (role_ != Role::kPrimary) {
    return;
  }
  auto snapshot = std::make_shared<SyncSnapshot>();
  snapshot->term = term_;
  snapshot->leader = id();
  snapshot->log = log_;
  SendEnvelope(envelope.src, snapshot);
}

void Server::HandleSyncSnapshot(const SyncSnapshot& msg) {
  if (role_ == Role::kArbiter) {
    return;
  }
  switch (options_.consolidation) {
    case ConsolidationPolicy::kAdoptWinner:
      log_ = msg.log;
      RebuildStore();
      break;
    case ConsolidationPolicy::kMergeLww: {
      // Union of both logs, replayed in timestamp order: per-key latest
      // writer wins — the policy that resurrects deleted data and loses
      // overwrites, as the study documents for Redis/Hazelcast/Aerospike.
      std::vector<LogEntry> merged = msg.log;
      for (const LogEntry& mine : log_) {
        bool dup = false;
        for (const LogEntry& theirs : msg.log) {
          if (theirs.term == mine.term && theirs.lsn == mine.lsn &&
              theirs.key == mine.key) {
            dup = true;
            break;
          }
        }
        if (!dup) {
          merged.push_back(mine);
        }
      }
      std::stable_sort(merged.begin(), merged.end(), [](const LogEntry& a, const LogEntry& b) {
        return a.timestamp < b.timestamp;
      });
      log_ = std::move(merged);
      RebuildStore();
      break;
    }
  }
  term_ = std::max(term_, msg.term);
  current_leader_ = msg.leader;
  last_leader_contact_ = Now();
  role_ = Role::kFollower;
  TraceEvent("synced", "from=" + std::to_string(msg.leader));
}

void Server::HandleReadGuard(const net::Envelope& envelope, const ReadGuard& msg) {
  if (role_ == Role::kArbiter) {
    return;
  }
  auto ack = std::make_shared<ReadGuardAck>();
  ack->term = msg.term;
  ack->guard_id = msg.guard_id;
  ack->confirms = current_leader_ == envelope.src && term_ == msg.term;
  SendEnvelope(envelope.src, ack);
}

void Server::HandleReadGuardAck(const net::Envelope& envelope, const ReadGuardAck& msg) {
  auto it = pending_reads_.find(msg.guard_id);
  if (it == pending_reads_.end() || !msg.confirms || msg.term != term_) {
    return;
  }
  it->second.acks.insert(envelope.src);
  if (it->second.acks.size() >= it->second.needed) {
    auto value = StoreGetCommitted(it->second.key);
    simulator()->Cancel(it->second.timer);
    ReplyToClient(it->second.client, it->second.request_id, /*ok=*/true, value.value_or(""));
    pending_reads_.erase(it);
  }
}

}  // namespace pbkv
