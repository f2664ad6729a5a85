// Network-partitioning fault injection.
//
// A PartitionBackend decides, per directed (src, dst) pair, whether traffic
// is allowed. Faults are installed as directional block rules; the three
// partition types of the paper (complete, partial, simplex — Figure 1) are
// built from these rules by net::Partitioner.
//
// Two backends mirror NEAT's two implementations:
//  - SwitchPartitioner: a central priority-rule table, modelling the
//    OpenFlow/Floodlight controller that installs drop rules above the
//    learning-switch rules.
//  - FirewallPartitioner: per-node ingress/egress chains, modelling the
//    iptables deployment that alters firewall rules at every end host.
// Both enforce identical semantics; tests verify their equivalence.
//
// Invariants enforced by the base class for every backend:
//  - Allows(n, n) == true always: self traffic never leaves the host, so no
//    switch rule or firewall chain can cut it, even when a rule's groups
//    overlap.
//  - Groups are deduplicated before installation, so Block({1, 1}, {2})
//    installs the same rule as Block({1}, {2}).
//  - Every Block/Unblock bumps a monotonic epoch and patches any attached
//    ConnectivityCache (see connectivity.h), which is how the network gets
//    an O(1) Allows fast path regardless of the rule-table size.

#ifndef NET_PARTITION_H_
#define NET_PARTITION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"

namespace net {

// Identifies one installed directional block rule.
using RuleId = uint64_t;

class ConnectivityCache;

class PartitionBackend {
 public:
  virtual ~PartitionBackend();

  // True if a packet from src to dst would currently be forwarded. Self
  // traffic is always allowed. This is the authoritative (slow) path; hot
  // paths should query a ConnectivityCache instead.
  bool Allows(NodeId src, NodeId dst) const {
    return src == dst || AllowsLink(src, dst);
  }

  // Installs a rule dropping all traffic from any node in `srcs` to any node
  // in `dsts` (one direction only). Duplicate group entries are ignored;
  // self pairs (the same node in both groups) never block self traffic.
  RuleId Block(const Group& srcs, const Group& dsts);

  // Removes a previously installed rule. Returns false if unknown.
  bool Unblock(RuleId id);

  // Number of rules currently installed (for tests and benches).
  virtual size_t rule_count() const = 0;

  virtual std::string name() const = 0;

  // Monotonic counter, bumped by every successful Block/Unblock. Caches use
  // it to detect staleness without re-reading the rule table.
  uint64_t epoch() const { return epoch_; }

  // --- snapshot / restore (NEAT fork executor) ---
  //
  // An opaque value copy of the installed rule table (and the id counter),
  // restorable onto the same backend type. The epoch is deliberately NOT
  // part of the snapshot: it stays monotonic across restores — Restore
  // bumps it like any other mutation — so attached caches can never read a
  // replayed epoch as "still coherent".
  struct RulesSnapshot {
    virtual ~RulesSnapshot() = default;
  };
  virtual std::unique_ptr<RulesSnapshot> CaptureRules() const = 0;
  // Replaces the rule table with the snapshot's and re-syncs every attached
  // cache (wholesale replacement has no per-rule delta to patch from).
  virtual void RestoreRules(const RulesSnapshot& snapshot) = 0;

 protected:
  // A directed (src, dst) link, as reported in rule coverage.
  using Link = std::pair<NodeId, NodeId>;

  // Authoritative verdict for src != dst (the src == dst case is handled by
  // Allows above).
  virtual bool AllowsLink(NodeId src, NodeId dst) const = 0;

  // Installs a rule for already-deduplicated groups.
  virtual RuleId DoBlock(const Group& srcs, const Group& dsts) = 0;

  // Removes rule `id`, appending every directed link the rule covered to
  // `coverage` (for cache patching). Returns false if the rule is unknown.
  virtual bool DoUnblock(RuleId id, std::vector<Link>* coverage) = 0;

  // For RestoreRules implementations: advances the epoch and has every
  // attached cache re-derive its bitmap from the (just-replaced) table.
  void BumpEpochAndResync();

 private:
  friend class ConnectivityCache;
  void Attach(ConnectivityCache* cache);
  void Detach(ConnectivityCache* cache);

  uint64_t epoch_ = 0;
  std::vector<ConnectivityCache*> caches_;
};

// Central switch with a priority flow table (OpenFlow analog). Drop rules sit
// at a higher priority than the default learning-switch forward-all rule.
class SwitchPartitioner : public PartitionBackend {
 public:
  size_t rule_count() const override { return rules_.size(); }
  std::string name() const override { return "switch"; }

  std::unique_ptr<RulesSnapshot> CaptureRules() const override;
  void RestoreRules(const RulesSnapshot& snapshot) override;

 protected:
  bool AllowsLink(NodeId src, NodeId dst) const override;
  RuleId DoBlock(const Group& srcs, const Group& dsts) override;
  bool DoUnblock(RuleId id, std::vector<Link>* coverage) override;

 private:
  struct FlowRule {
    std::set<NodeId> srcs;
    std::set<NodeId> dsts;
  };
  struct Rules : RulesSnapshot {
    RuleId next_id = 1;
    std::map<RuleId, FlowRule> rules;
  };
  RuleId next_id_ = 1;
  std::map<RuleId, FlowRule> rules_;
};

// Per-host firewall chains (iptables analog). Block(srcs, dsts) adds an
// egress entry on every src host and an ingress entry on every dst host;
// a packet is dropped if either endpoint's chain matches. A reverse index
// RuleId -> chain entries makes Unblock touch only the chains the rule
// created instead of scanning every host.
class FirewallPartitioner : public PartitionBackend {
 public:
  size_t rule_count() const override { return rule_index_.size(); }
  std::string name() const override { return "firewall"; }

  std::unique_ptr<RulesSnapshot> CaptureRules() const override;
  void RestoreRules(const RulesSnapshot& snapshot) override;

 protected:
  bool AllowsLink(NodeId src, NodeId dst) const override;
  RuleId DoBlock(const Group& srcs, const Group& dsts) override;
  bool DoUnblock(RuleId id, std::vector<Link>* coverage) override;

 private:
  struct ChainRef {
    NodeId host;
    NodeId peer;
    bool egress;  // true: host's egress chain; false: host's ingress chain
  };
  struct HostChains {
    // Maps peer -> rule ids that drop traffic in that direction.
    std::map<NodeId, std::set<RuleId>> egress_drop;   // this host -> peer
    std::map<NodeId, std::set<RuleId>> ingress_drop;  // peer -> this host
  };
  struct Rules : RulesSnapshot {
    RuleId next_id = 1;
    std::map<NodeId, HostChains> hosts;
    std::map<RuleId, std::vector<ChainRef>> rule_index;
  };
  RuleId next_id_ = 1;
  std::map<NodeId, HostChains> hosts_;
  // Reverse index: every chain entry a live rule installed.
  std::map<RuleId, std::vector<ChainRef>> rule_index_;
};

// A handle to an injected partition; holds the rules that created it so the
// partition can be healed as a unit.
struct Partition {
  uint64_t id = 0;
  std::vector<RuleId> rules;
  std::string kind;  // "complete" | "partial" | "simplex"
  bool healed = false;
  bool operator==(const Partition&) const = default;
};

// The NEAT partition API (Section 6.2): complete / partial / simplex / heal.
class Partitioner {
 public:
  explicit Partitioner(PartitionBackend* backend) : backend_(backend) {}

  // Complete partition: groupA and groupB cannot exchange traffic in either
  // direction. For a true complete partition the two groups should cover the
  // whole cluster; the mechanics do not require it. Overlapping or
  // duplicated groups are tolerated: a node listed on both sides keeps its
  // self connectivity (Allows(n, n) is always true) but is cut from every
  // other member of both groups.
  Partition Complete(const Group& group_a, const Group& group_b);

  // Partial partition: same bidirectional cut between groupA and groupB, but
  // nodes outside both groups keep full connectivity to both.
  Partition Partial(const Group& group_a, const Group& group_b);

  // Simplex partition: packets flow only from group_src to group_dst; the
  // reverse direction is dropped.
  Partition Simplex(const Group& group_src, const Group& group_dst);

  // Heals a partition; idempotent.
  void Heal(Partition& partition);

  // Helper mirroring NEAT's Partitioner.rest(): all registered nodes not in
  // `group`, in id order. The universe is supplied by the caller.
  static Group Rest(const Group& universe, const Group& group);

  PartitionBackend* backend() const { return backend_; }

  // Snapshot/restore of the handle counter, so partition ids issued after a
  // fork match the ids a full replay would have issued.
  uint64_t next_partition_id() const { return next_partition_id_; }
  void set_next_partition_id(uint64_t id) { next_partition_id_ = id; }

 private:
  Partition MakeBidirectional(const Group& a, const Group& b, const std::string& kind);

  PartitionBackend* backend_;
  uint64_t next_partition_id_ = 1;
};

}  // namespace net

#endif  // NET_PARTITION_H_
