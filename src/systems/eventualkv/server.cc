#include "systems/eventualkv/server.h"

#include <algorithm>

namespace eventualkv {

Server::Server(sim::Simulator* simulator, net::Network* network, net::NodeId id,
               const Options& options, std::vector<net::NodeId> replicas,
               bool hints_count_toward_quorum)
    : cluster::Process(simulator, network, id, "ekv.n" + std::to_string(id)),
      options_(options),
      hints_count_toward_quorum_(hints_count_toward_quorum),
      replicas_(std::move(replicas)),
      detector_(id, replicas_, {options.heartbeat_interval, options.miss_threshold}) {}

void Server::OnStart() {
  detector_.Reset(Now());
  Every(options_.heartbeat_interval, [this]() { Tick(); });
  if (options_.anti_entropy_interval > 0) {
    Every(options_.anti_entropy_interval, [this]() { AntiEntropy(); });
  }
}

void Server::OnRestart() {
  // The store is in-memory: a crash loses everything, including hints.
  store_.clear();
  hints_.clear();
  pending_.clear();
  detector_.Reset(Now());
}

sim::Time Server::LocalClock() const {
  auto it = options_.clock_skew.find(id());
  return Now() + (it == options_.clock_skew.end() ? 0 : it->second);
}

std::vector<Record> Server::Resolve(std::vector<Record> records) const {
  // Keep only causally maximal records.
  std::vector<Record> maximal;
  for (const Record& candidate : records) {
    bool dominated = false;
    for (const Record& other : records) {
      if (&other != &candidate && other.Dominates(candidate)) {
        dominated = true;
        break;
      }
    }
    if (dominated) {
      continue;
    }
    // Deduplicate identical versions.
    bool duplicate = false;
    for (const Record& kept : maximal) {
      if (kept.version == candidate.version && kept.value == candidate.value &&
          kept.tombstone == candidate.tombstone) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      maximal.push_back(candidate);
    }
  }
  if (options_.conflict_mode == ConflictMode::kLww && maximal.size() > 1) {
    // Collapse concurrent records to the latest wall-clock timestamp: the
    // silent-loss behaviour of LWW systems.
    Record winner = maximal.front();
    for (const Record& record : maximal) {
      if (record.Newer(winner)) {
        winner = record;
      }
    }
    return {winner};
  }
  return maximal;
}

std::string Server::RenderValue(const std::vector<Record>& records) {
  std::vector<std::string> values;
  for (const Record& record : records) {
    if (!record.tombstone) {
      values.push_back(record.value);
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += '|';
    }
    out += values[i];
  }
  return out;
}

std::optional<std::string> Server::LocalGet(const std::string& key) const {
  auto it = store_.find(key);
  if (it == store_.end()) {
    return std::nullopt;
  }
  const std::string rendered = RenderValue(it->second);
  if (rendered.empty()) {
    return std::nullopt;  // only tombstones
  }
  return rendered;
}

std::vector<std::string> Server::LocalSiblings(const std::string& key) const {
  std::vector<std::string> out;
  auto it = store_.find(key);
  if (it == store_.end()) {
    return out;
  }
  for (const Record& record : it->second) {
    if (!record.tombstone) {
      out.push_back(record.value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Server::HasTombstone(const std::string& key) const {
  auto it = store_.find(key);
  if (it == store_.end()) {
    return false;
  }
  for (const Record& record : it->second) {
    if (record.tombstone) {
      return true;
    }
  }
  return false;
}

bool Server::Merge(const std::string& key, const Record& record) {
  if (record.tombstone && !options_.tombstones) {
    // Flawed delete: erase the record; nothing remembers the deletion.
    return store_.erase(key) != 0;
  }
  std::vector<Record>& siblings = store_[key];
  for (const Record& existing : siblings) {
    if (existing.Dominates(record) ||
        (existing.version == record.version && existing.value == record.value &&
         existing.tombstone == record.tombstone)) {
      return false;  // already superseded or already known
    }
  }
  siblings.push_back(record);
  siblings = Resolve(std::move(siblings));
  return true;
}

void Server::Tick() {
  for (net::NodeId peer : replicas_) {
    if (peer != id()) {
      Send<cluster::HeartbeatMsg>(peer, incarnation());
    }
  }
  DeliverHints();
}

void Server::AntiEntropy() {
  if (replicas_.size() < 2 || store_.empty()) {
    return;
  }
  // Round-robin peer choice keeps runs deterministic.
  net::NodeId peer = replicas_[next_sync_peer_ % replicas_.size()];
  ++next_sync_peer_;
  if (peer == id()) {
    peer = replicas_[next_sync_peer_ % replicas_.size()];
    ++next_sync_peer_;
  }
  auto offer = std::make_shared<SyncOffer>();
  offer->records = store_;
  SendEnvelope(peer, offer);
}

void Server::DeliverHints() {
  std::vector<Hint> keep;
  for (Hint& hint : hints_) {
    if (!detector_.IsAlive(hint.target, Now())) {
      keep.push_back(std::move(hint));
      continue;
    }
    auto write = std::make_shared<ReplicaWrite>();
    write->txn_id = hint.id;
    write->key = hint.key;
    write->record = hint.record;
    SendEnvelope(hint.target, write);
    if (options_.handoff_retries) {
      keep.push_back(std::move(hint));  // cleared by the ack
    }
    // Flawed mode: fire and forget; a lost message loses the hint.
  }
  hints_ = std::move(keep);
}

void Server::HandleClientRequest(const net::Envelope& envelope,
                                 const ClientKvRequest& request) {
  const uint64_t txn_id = next_txn_++;
  if (request.op == ClientKvRequest::Op::kGet) {
    PendingOp op;
    op.client = envelope.src;
    op.request_id = request.request_id;
    op.is_read = true;
    op.key = request.key;
    auto mine = store_.find(request.key);
    if (mine != store_.end()) {
      op.collected = mine->second;
    }
    op.acks = 1;
    op.needed = static_cast<size_t>(std::max(1, options_.read_quorum));
    if (op.acks >= op.needed) {
      pending_.emplace(txn_id, std::move(op));
      FinishRead(txn_id);
      return;
    }
    op.timer = After(options_.quorum_timeout, [this, txn_id]() {
      // Reads degrade rather than fail: answer with what we collected.
      FinishRead(txn_id);
    });
    for (net::NodeId peer : replicas_) {
      if (peer == id()) {
        continue;
      }
      auto read = std::make_shared<ReplicaRead>();
      read->txn_id = txn_id;
      read->key = request.key;
      SendEnvelope(peer, read);
    }
    pending_.emplace(txn_id, std::move(op));
    return;
  }

  // Put / Delete. The new record causally supersedes everything this
  // coordinator currently sees (its version vector is the merge of the
  // visible siblings' vectors, bumped at this node).
  Record record;
  record.value = request.value;
  record.timestamp = LocalClock();
  record.origin = id();
  record.tombstone = request.op == ClientKvRequest::Op::kDelete;
  auto current = store_.find(request.key);
  if (current != store_.end()) {
    for (const Record& sibling : current->second) {
      for (const auto& [node, counter] : sibling.version) {
        record.version[node] = std::max(record.version[node], counter);
      }
    }
  }
  ++record.version[id()];
  Merge(request.key, record);

  PendingOp op;
  op.client = envelope.src;
  op.request_id = request.request_id;
  op.key = request.key;
  op.acks = 1;  // self
  op.needed = static_cast<size_t>(std::max(1, options_.write_quorum));
  for (net::NodeId peer : replicas_) {
    if (peer == id()) {
      continue;
    }
    if (detector_.IsAlive(peer, Now())) {
      auto write = std::make_shared<ReplicaWrite>();
      write->txn_id = txn_id;
      write->key = request.key;
      write->record = record;
      SendEnvelope(peer, write);
    } else if (record.tombstone && !options_.tombstones) {
      // No tombstones means the deletion is forgotten the moment it is
      // applied — there is nothing to hand off to the unreachable replica,
      // whose stale record will later win the anti-entropy merge.
      if (hints_count_toward_quorum_) {
        ++op.acks;
      }
    } else {
      // The peer looks down: stash a hinted handoff.
      Hint hint;
      hint.id = next_hint_++;
      hint.target = peer;
      hint.key = request.key;
      hint.record = record;
      hints_.push_back(std::move(hint));
      TraceEvent("hint", request.key + " for n" + std::to_string(peer));
      if (hints_count_toward_quorum_) {
        ++op.acks;  // the sloppy-quorum flaw: a hint is not a replica
      }
    }
  }
  if (op.acks >= op.needed) {
    pending_.emplace(txn_id, std::move(op));
    FinishWrite(txn_id, /*ok=*/true);
    return;
  }
  op.timer = After(options_.quorum_timeout,
                   [this, txn_id]() { FinishWrite(txn_id, /*ok=*/false); });
  pending_.emplace(txn_id, std::move(op));
}

void Server::FinishWrite(uint64_t txn_id, bool ok) {
  auto it = pending_.find(txn_id);
  if (it == pending_.end()) {
    return;
  }
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  simulator()->Cancel(op.timer);
  auto reply = std::make_shared<ClientKvReply>();
  reply->request_id = op.request_id;
  reply->ok = ok;
  SendEnvelope(op.client, reply);
}

void Server::FinishRead(uint64_t txn_id) {
  auto it = pending_.find(txn_id);
  if (it == pending_.end()) {
    return;
  }
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  simulator()->Cancel(op.timer);

  const std::vector<Record> resolved = Resolve(std::move(op.collected));
  auto reply = std::make_shared<ClientKvReply>();
  reply->request_id = op.request_id;
  reply->ok = true;
  reply->value = RenderValue(resolved);
  SendEnvelope(op.client, reply);

  // Read repair: push the resolved set back out.
  for (const Record& record : resolved) {
    Merge(op.key, record);
    for (net::NodeId peer : replicas_) {
      if (peer == id()) {
        continue;
      }
      auto write = std::make_shared<ReplicaWrite>();
      write->key = op.key;
      write->record = record;
      SendEnvelope(peer, write);
    }
  }
}

void Server::OnMessage(const net::Envelope& envelope) {
  if (std::find(replicas_.begin(), replicas_.end(), envelope.src) != replicas_.end()) {
    detector_.RecordHeartbeat(envelope.src, Now());
  }
  const net::Message& msg = *envelope.msg;
  if (auto* request = msg.As<ClientKvRequest>()) {
    HandleClientRequest(envelope, *request);
    return;
  }
  if (auto* write = msg.As<ReplicaWrite>()) {
    Merge(write->key, write->record);
    if (write->txn_id != 0) {
      auto ack = std::make_shared<ReplicaWriteAck>();
      ack->txn_id = write->txn_id;
      SendEnvelope(envelope.src, ack);
    }
    return;
  }
  if (auto* ack = msg.As<ReplicaWriteAck>()) {
    if (ack->txn_id >= (1ULL << 32)) {
      // A delivered hint.
      hints_.erase(std::remove_if(hints_.begin(), hints_.end(),
                                  [&ack](const Hint& h) { return h.id == ack->txn_id; }),
                   hints_.end());
      return;
    }
    auto it = pending_.find(ack->txn_id);
    if (it != pending_.end() && !it->second.is_read) {
      ++it->second.acks;
      if (it->second.acks >= it->second.needed) {
        FinishWrite(ack->txn_id, /*ok=*/true);
      }
    }
    return;
  }
  if (auto* read = msg.As<ReplicaRead>()) {
    auto reply = std::make_shared<ReplicaReadReply>();
    reply->txn_id = read->txn_id;
    auto it = store_.find(read->key);
    if (it != store_.end()) {
      reply->records = it->second;
    }
    SendEnvelope(envelope.src, reply);
    return;
  }
  if (auto* read_reply = msg.As<ReplicaReadReply>()) {
    auto it = pending_.find(read_reply->txn_id);
    if (it != pending_.end() && it->second.is_read) {
      it->second.collected.insert(it->second.collected.end(), read_reply->records.begin(),
                                  read_reply->records.end());
      ++it->second.acks;
      if (it->second.acks >= it->second.needed) {
        FinishRead(read_reply->txn_id);
      }
    }
    return;
  }
  if (auto* offer = msg.As<SyncOffer>()) {
    for (const auto& [key, records] : offer->records) {
      for (const Record& record : records) {
        Merge(key, record);
      }
    }
    return;
  }
}

}  // namespace eventualkv
