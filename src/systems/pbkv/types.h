// Shared types and configuration for the primary-backup key-value system.
//
// pbkv models the replication/leader-election archetype shared by MongoDB,
// VoltDB, and Elasticsearch in the study. Every design decision the paper
// identifies as a flaw is a configuration knob, so the same code base can
// run as the flawed system (reproducing the failure) or the corrected one
// (showing the failure disappears):
//
//  - election criterion: longest log (VoltDB), latest operation timestamp
//    (MongoDB), lowest node id (Elasticsearch), priority+timestamp
//    (MongoDB's conflicting criteria, SERVER-14885)
//  - voting while still connected to a live leader (Elasticsearch #2488)
//  - write concern: majority of cluster, majority of reachable, or async
//  - reads served locally by a possibly-deposed primary vs. quorum reads
//    (the VoltDB dirty read of Figure 2, ENG-10389)
//  - conflict resolution when two primaries meet after heal: higher term
//    (correct) vs. lowest id / longest log / latest timestamp (data loss)
//  - data consolidation: adopt winner's log vs. per-key last-writer-wins
//  - arbiter behaviour: votes unconditionally (leader thrash, MongoDB
//    arbiter failure) vs. refuses when it sees a healthy leader
//    (SERVER-27125 fix)

#ifndef SYSTEMS_PBKV_TYPES_H_
#define SYSTEMS_PBKV_TYPES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/message.h"
#include "sim/time.h"

namespace pbkv {

enum class OpKind { kPut, kDelete };

struct LogEntry {
  uint64_t lsn = 0;
  uint64_t term = 0;
  OpKind kind = OpKind::kPut;
  std::string key;
  std::string value;
  sim::Time timestamp = sim::kTimeZero;  // "operation time" used by ts-based criteria
  // Set once the write reached its replication quorum. The dirty state of
  // Figure 2 is exactly an applied-but-never-committed entry; quorum reads
  // serve only committed data, local reads serve everything.
  bool committed = false;
  bool operator==(const LogEntry&) const = default;
};

// Which candidate a voter prefers / which of two meeting primaries survives.
enum class ElectionCriterion {
  kLongestLog,          // VoltDB: the node with the longest log wins
  kLatestTimestamp,     // MongoDB: the node with the latest operation timestamp wins
  kLowestId,            // Elasticsearch: the replica with the smaller id wins
  kPriorityThenTimestamp,  // MongoDB's conflicting criteria (can elect nobody)
};

enum class WriteConcern {
  kMajorityOfCluster,    // ack after a majority of the configured cluster replicated
  kMajorityOfReachable,  // ack after a majority of currently-reachable replicas (flawed)
  kAsync,                // ack immediately, replicate in the background (Redis-style)
};

enum class ConsolidationPolicy {
  kAdoptWinner,   // loser discards its log and adopts the winner's
  kMergeLww,      // per-key latest-timestamp-wins merge (resurrects deletes)
};

enum class ConflictWinner {
  kHigherTerm,  // correct: the later election wins
  kByCriterion,  // flawed: re-apply the election criterion (e.g. lowest id)
};

struct Options {
  // --- correctness-relevant knobs (defaults are the *correct* choices) ---
  ElectionCriterion criterion = ElectionCriterion::kLongestLog;
  WriteConcern write_concern = WriteConcern::kMajorityOfCluster;
  ConsolidationPolicy consolidation = ConsolidationPolicy::kAdoptWinner;
  ConflictWinner conflict_winner = ConflictWinner::kHigherTerm;
  // Voters refuse to vote while their failure detector still sees a live
  // leader. Disabling this is the Elasticsearch #2488 intersecting-splits flaw.
  bool refuse_vote_if_leader_alive = true;
  // A primary verifies its leadership with a quorum round before answering
  // reads. Disabling this opens the dirty/stale read window of Figure 2.
  bool quorum_reads = true;
  // The arbiter refuses to vote when it can see a healthy primary
  // (the SERVER-27125 fix). Disabling causes leader thrash.
  bool arbiter_checks_leader = true;
  // Followers act as coordinators: they forward client writes to the
  // primary and relay the reply (the Elasticsearch request-routing path).
  // When the primary's reply is lost — e.g. a simplex partition — the
  // coordinator reports failure for a write that committed (#9967).
  bool forward_writes = false;

  // --- topology ---
  int num_replicas = 3;
  bool has_arbiter = false;
  std::map<net::NodeId, int> priorities;  // used by kPriorityThenTimestamp

  // --- timing ---
  sim::Duration heartbeat_interval = sim::Milliseconds(50);
  int election_miss_threshold = 3;   // follower declares leader dead after this
  int stepdown_miss_threshold = 6;   // primary steps down after this (the window)
  sim::Duration replication_timeout = sim::Milliseconds(120);
  sim::Duration read_guard_timeout = sim::Milliseconds(120);

  // --- observability ---
  // Collect the trace in causal mode (sim::TraceLog::set_causal): the
  // network records send/deliver edges and the cascade checker
  // (check/causal.h) runs over the stitched happens-before graph. Off by
  // default so non-causal traces and coverage digests stay byte-identical.
  bool causal_trace = false;
};

// The corrected configuration: all safety knobs on.
Options CorrectOptions();

// VoltDB-like configuration reproducing the Figure 2 dirty read
// (ENG-10389): local reads, longest-log election.
Options VoltDbOptions();

// Elasticsearch-like configuration reproducing intersecting-split data loss
// (#2488): lowest-id election, voting despite a live leader, lowest-id
// conflict resolution.
Options ElasticsearchOptions();

// MongoDB-like configuration with an arbiter that votes unconditionally,
// reproducing leader thrash under a partial partition.
Options MongoArbiterOptions();

// MongoDB-like configuration with conflicting priority/timestamp criteria
// (SERVER-14885): the cluster can end up with no electable leader.
Options MongoConflictingCriteriaOptions();

// Redis-like asynchronous replication: acknowledged writes lost on failover.
Options AsyncReplicationOptions();

// Elasticsearch-like request routing (#9967): followers coordinate writes
// by forwarding to the primary; a lost acknowledgement turns a committed
// write into a reported failure.
Options CoordinatorRoutingOptions();

const char* CriterionName(ElectionCriterion criterion);

}  // namespace pbkv

#endif  // SYSTEMS_PBKV_TYPES_H_
