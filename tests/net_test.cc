// Unit tests for the network, the partition backends, and the partition API.
// The backend tests run against both SwitchPartitioner (OpenFlow analog) and
// FirewallPartitioner (iptables analog) via a parameterized suite, verifying
// that NEAT's two implementations enforce identical semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/failure_detector.h"
#include "net/connectivity.h"
#include "net/message.h"
#include "net/network.h"
#include "net/partition.h"
#include "sim/simulator.h"

namespace net {
namespace {

struct Ping final : MessageOf<Ping> {
  static constexpr MessageType kType{"Ping"};
  explicit Ping(int seq_in = 0) : seq(seq_in) {}
  int seq;
};

std::unique_ptr<PartitionBackend> MakeBackend(const std::string& kind) {
  if (kind == "switch") {
    return std::make_unique<SwitchPartitioner>();
  }
  return std::make_unique<FirewallPartitioner>();
}

class BackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { backend_ = MakeBackend(GetParam()); }
  std::unique_ptr<PartitionBackend> backend_;
};

TEST_P(BackendTest, DefaultAllowsEverything) {
  EXPECT_TRUE(backend_->Allows(1, 2));
  EXPECT_TRUE(backend_->Allows(2, 1));
  EXPECT_TRUE(backend_->Allows(5, 9));
}

TEST_P(BackendTest, BlockIsDirectional) {
  backend_->Block({1}, {2});
  EXPECT_FALSE(backend_->Allows(1, 2));
  EXPECT_TRUE(backend_->Allows(2, 1));
}

TEST_P(BackendTest, BlockGroups) {
  backend_->Block({1, 2}, {3, 4});
  EXPECT_FALSE(backend_->Allows(1, 3));
  EXPECT_FALSE(backend_->Allows(2, 4));
  EXPECT_TRUE(backend_->Allows(3, 1));
  EXPECT_TRUE(backend_->Allows(1, 2));
  EXPECT_TRUE(backend_->Allows(5, 3));
}

TEST_P(BackendTest, UnblockRestoresConnectivity) {
  RuleId rule = backend_->Block({1}, {2});
  EXPECT_FALSE(backend_->Allows(1, 2));
  EXPECT_TRUE(backend_->Unblock(rule));
  EXPECT_TRUE(backend_->Allows(1, 2));
  EXPECT_FALSE(backend_->Unblock(rule));
}

TEST_P(BackendTest, OverlappingRulesBothMustBeRemoved) {
  RuleId a = backend_->Block({1}, {2});
  RuleId b = backend_->Block({1, 3}, {2, 4});
  backend_->Unblock(a);
  EXPECT_FALSE(backend_->Allows(1, 2));  // still blocked by rule b
  backend_->Unblock(b);
  EXPECT_TRUE(backend_->Allows(1, 2));
}

TEST_P(BackendTest, RuleCountTracksInstalls) {
  EXPECT_EQ(backend_->rule_count(), 0u);
  RuleId a = backend_->Block({1}, {2});
  backend_->Block({3}, {4});
  EXPECT_EQ(backend_->rule_count(), 2u);
  backend_->Unblock(a);
  EXPECT_EQ(backend_->rule_count(), 1u);
}

TEST_P(BackendTest, SelfTrafficIsAlwaysAllowed) {
  // Regression: overlapping groups used to install rules that cut a node's
  // traffic to itself; self links must be immune to every rule.
  backend_->Block({1}, {1});
  EXPECT_TRUE(backend_->Allows(1, 1));
  backend_->Block({1, 2}, {2, 3});
  EXPECT_TRUE(backend_->Allows(2, 2));
  EXPECT_FALSE(backend_->Allows(1, 2));
  EXPECT_FALSE(backend_->Allows(2, 3));
}

TEST_P(BackendTest, DuplicateGroupEntriesAreDeduped) {
  RuleId rule = backend_->Block({1, 1, 1}, {2, 2});
  EXPECT_EQ(backend_->rule_count(), 1u);
  EXPECT_FALSE(backend_->Allows(1, 2));
  EXPECT_TRUE(backend_->Unblock(rule));
  EXPECT_TRUE(backend_->Allows(1, 2));
}

TEST_P(BackendTest, EpochAdvancesOnEveryMutation) {
  const uint64_t start = backend_->epoch();
  RuleId rule = backend_->Block({1}, {2});
  EXPECT_EQ(backend_->epoch(), start + 1);
  EXPECT_TRUE(backend_->Unblock(rule));
  EXPECT_EQ(backend_->epoch(), start + 2);
  EXPECT_FALSE(backend_->Unblock(rule));  // failed unblock: no epoch bump
  EXPECT_EQ(backend_->epoch(), start + 2);
}

TEST_P(BackendTest, BackendsAgreeOnRandomRuleSets) {
  // Differential test: both backends must give identical verdicts after the
  // same sequence of installs/removals.
  auto other = MakeBackend(GetParam() == "switch" ? "firewall" : "switch");
  sim::Rng rng(99);
  std::vector<std::pair<RuleId, RuleId>> rules;
  for (int step = 0; step < 200; ++step) {
    if (rules.empty() || rng.NextBool(0.6)) {
      Group srcs;
      Group dsts;
      for (int i = 0; i < 3; ++i) {
        srcs.push_back(static_cast<NodeId>(rng.NextBelow(6)));
        dsts.push_back(static_cast<NodeId>(rng.NextBelow(6)));
      }
      rules.emplace_back(backend_->Block(srcs, dsts), other->Block(srcs, dsts));
    } else {
      const size_t pick = rng.NextBelow(rules.size());
      backend_->Unblock(rules[pick].first);
      other->Unblock(rules[pick].second);
      rules.erase(rules.begin() + static_cast<ptrdiff_t>(pick));
    }
    for (NodeId s = 0; s < 6; ++s) {
      for (NodeId d = 0; d < 6; ++d) {
        ASSERT_EQ(backend_->Allows(s, d), other->Allows(s, d))
            << "step " << step << " link " << s << "->" << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest, ::testing::Values("switch", "firewall"),
                         [](const auto& param_info) { return param_info.param; });

class PartitionerTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    backend_ = MakeBackend(GetParam());
    partitioner_ = std::make_unique<Partitioner>(backend_.get());
  }
  std::unique_ptr<PartitionBackend> backend_;
  std::unique_ptr<Partitioner> partitioner_;
};

TEST_P(PartitionerTest, CompletePartitionCutsBothDirections) {
  Partition p = partitioner_->Complete({1, 2}, {3, 4, 5});
  EXPECT_FALSE(backend_->Allows(1, 3));
  EXPECT_FALSE(backend_->Allows(3, 1));
  EXPECT_FALSE(backend_->Allows(2, 5));
  EXPECT_TRUE(backend_->Allows(1, 2));
  EXPECT_TRUE(backend_->Allows(3, 4));
  partitioner_->Heal(p);
  EXPECT_TRUE(backend_->Allows(1, 3));
}

TEST_P(PartitionerTest, PartialPartitionLeavesThirdGroupConnected) {
  // Figure 1b: groups 1 and 2 are cut; group 3 reaches both.
  Partition p = partitioner_->Partial({1}, {2});
  EXPECT_FALSE(backend_->Allows(1, 2));
  EXPECT_FALSE(backend_->Allows(2, 1));
  EXPECT_TRUE(backend_->Allows(1, 3));
  EXPECT_TRUE(backend_->Allows(3, 1));
  EXPECT_TRUE(backend_->Allows(2, 3));
  EXPECT_TRUE(backend_->Allows(3, 2));
  partitioner_->Heal(p);
  EXPECT_TRUE(backend_->Allows(1, 2));
}

TEST_P(PartitionerTest, SimplexPartitionIsOneWay) {
  // Figure 1c: traffic flows src -> dst only.
  Partition p = partitioner_->Simplex({1}, {2});
  EXPECT_TRUE(backend_->Allows(1, 2));
  EXPECT_FALSE(backend_->Allows(2, 1));
  partitioner_->Heal(p);
  EXPECT_TRUE(backend_->Allows(2, 1));
}

TEST_P(PartitionerTest, HealIsIdempotent) {
  Partition p = partitioner_->Complete({1}, {2});
  partitioner_->Heal(p);
  partitioner_->Heal(p);
  EXPECT_TRUE(backend_->Allows(1, 2));
  EXPECT_EQ(backend_->rule_count(), 0u);
}

TEST_P(PartitionerTest, OverlappingPartitionsHealIndependently) {
  Partition p1 = partitioner_->Complete({1}, {2, 3});
  Partition p2 = partitioner_->Complete({1, 2}, {3});
  partitioner_->Heal(p1);
  EXPECT_TRUE(backend_->Allows(1, 2));
  EXPECT_FALSE(backend_->Allows(1, 3));  // still cut by p2
  partitioner_->Heal(p2);
  EXPECT_TRUE(backend_->Allows(1, 3));
}

TEST_P(PartitionerTest, OverlappingGroupsNeverCutSelfTraffic) {
  // Regression: a node listed on both sides of a Complete/Partial partition
  // must keep Allows(n, n) == true (its traffic to itself never leaves the
  // host), while still being cut from everyone else.
  Partition p = partitioner_->Complete({1, 2}, {2, 3});
  EXPECT_TRUE(backend_->Allows(2, 2));
  EXPECT_FALSE(backend_->Allows(1, 2));
  EXPECT_FALSE(backend_->Allows(2, 1));
  EXPECT_FALSE(backend_->Allows(2, 3));
  EXPECT_FALSE(backend_->Allows(3, 2));
  partitioner_->Heal(p);
  EXPECT_TRUE(backend_->Allows(1, 2));
  EXPECT_TRUE(backend_->Allows(2, 3));
  EXPECT_EQ(backend_->rule_count(), 0u);
}

TEST_P(PartitionerTest, RestReturnsComplement) {
  Group universe{1, 2, 3, 4, 5};
  EXPECT_EQ(Partitioner::Rest(universe, {2, 4}), (Group{1, 3, 5}));
  EXPECT_EQ(Partitioner::Rest(universe, {}), universe);
  EXPECT_EQ(Partitioner::Rest(universe, universe), Group{});
}

INSTANTIATE_TEST_SUITE_P(Backends, PartitionerTest, ::testing::Values("switch", "firewall"),
                         [](const auto& param_info) { return param_info.param; });

class ConnectivityCacheTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    backend_ = MakeBackend(GetParam());
    cache_ = std::make_unique<ConnectivityCache>(backend_.get());
    for (NodeId n = 1; n <= 6; ++n) {
      cache_->AddNode(n);
    }
  }
  std::unique_ptr<PartitionBackend> backend_;
  std::unique_ptr<ConnectivityCache> cache_;
};

TEST_P(ConnectivityCacheTest, PatchesOnBlockAndUnblock) {
  EXPECT_TRUE(cache_->Allows(1, 2));
  RuleId a = backend_->Block({1}, {2});
  RuleId b = backend_->Block({1, 3}, {2, 4});
  EXPECT_FALSE(cache_->Allows(1, 2));
  EXPECT_FALSE(cache_->Allows(3, 4));
  backend_->Unblock(a);
  EXPECT_FALSE(cache_->Allows(1, 2));  // still cut by the overlapping rule b
  backend_->Unblock(b);
  EXPECT_TRUE(cache_->Allows(1, 2));
  EXPECT_TRUE(cache_->Allows(3, 4));
  EXPECT_EQ(cache_->synced_epoch(), backend_->epoch());
  EXPECT_EQ(cache_->fallback_queries(), 0u);
}

TEST_P(ConnectivityCacheTest, ReflectsRulesInstalledBeforeTracking) {
  backend_->Block({1}, {9});
  cache_->AddNode(9);  // the new row/column pick up the pre-existing rule
  EXPECT_FALSE(cache_->Allows(1, 9));
  EXPECT_TRUE(cache_->Allows(9, 1));
}

TEST_P(ConnectivityCacheTest, UntrackedNodesFallBackToTheBackend) {
  backend_->Block({1}, {42});
  EXPECT_FALSE(cache_->Allows(1, 42));
  EXPECT_TRUE(cache_->Allows(42, 1));
  EXPECT_GT(cache_->fallback_queries(), 0u);
}

TEST_P(ConnectivityCacheTest, SelfTrafficAlwaysAllowed) {
  backend_->Block({1, 2}, {2, 3});
  EXPECT_TRUE(cache_->Allows(2, 2));
  EXPECT_TRUE(cache_->Allows(7, 7));  // even untracked
}

// Registering a node must stay incremental when the bitmap stride grows past
// one 64-bit word per row: the re-layout is a pure bit copy, so rules
// installed before tracking (and rules patched after the growth) are both
// reflected without any full rebuild or fallback query.
TEST_P(ConnectivityCacheTest, StrideGrowthKeepsRulesAcrossTheWordBoundary) {
  const RuleId early = backend_->Block({1, 65}, {2, 66});  // before tracking 65/66
  for (NodeId n = 7; n <= 70; ++n) {
    cache_->AddNode(n);  // count crosses 64: rows re-lay onto a wider stride
  }
  EXPECT_EQ(cache_->node_count(), 70u);
  EXPECT_EQ(cache_->full_rebuilds(), 0u);
  const RuleId late = backend_->Block({70}, {1});  // patched on the wider stride
  for (NodeId s = 1; s <= 70; ++s) {
    for (NodeId d = 1; d <= 70; ++d) {
      ASSERT_EQ(cache_->Allows(s, d), backend_->Allows(s, d))
          << GetParam() << " cache diverged on " << s << "->" << d;
    }
  }
  EXPECT_TRUE(backend_->Unblock(early));
  EXPECT_TRUE(backend_->Unblock(late));
  for (NodeId s = 1; s <= 70; ++s) {
    for (NodeId d = 1; d <= 70; ++d) {
      ASSERT_TRUE(cache_->Allows(s, d)) << s << "->" << d;
    }
  }
  EXPECT_EQ(cache_->fallback_queries(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ConnectivityCacheTest,
                         ::testing::Values("switch", "firewall"),
                         [](const auto& param_info) { return param_info.param; });

// Counts authoritative link queries so the test can pin AddNode's cost to
// exactly one row plus one column — the regression guard for the old
// full-matrix rebuild, which made registration O(N^2) per node.
class CountingBackend : public PartitionBackend {
 public:
  size_t rule_count() const override { return 0; }
  std::string name() const override { return "counting"; }
  uint64_t link_queries() const { return link_queries_; }
  std::unique_ptr<RulesSnapshot> CaptureRules() const override {
    return std::make_unique<RulesSnapshot>();  // no rules to capture
  }
  void RestoreRules(const RulesSnapshot&) override {}

 protected:
  bool AllowsLink(NodeId, NodeId) const override {
    ++link_queries_;
    return true;
  }
  RuleId DoBlock(const Group&, const Group&) override { return 0; }
  bool DoUnblock(RuleId, std::vector<Link>*) override { return false; }

 private:
  mutable uint64_t link_queries_ = 0;
};

TEST(ConnectivityCacheCost, AddNodeQueriesOneRowAndOneColumn) {
  CountingBackend backend;
  ConnectivityCache cache(&backend);
  const uint64_t n = 40;
  for (NodeId node = 0; node < static_cast<NodeId>(n); ++node) {
    const uint64_t before = backend.link_queries();
    cache.AddNode(node);
    // The new node's row and column, minus the self pair (never queried).
    EXPECT_EQ(backend.link_queries() - before, 2 * static_cast<uint64_t>(node));
  }
  EXPECT_EQ(backend.link_queries(), n * (n - 1));
  EXPECT_EQ(cache.full_rebuilds(), 0u);
  cache.AddNode(0);  // re-registration is a no-op, not a re-scan
  EXPECT_EQ(backend.link_queries(), n * (n - 1));
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : simulator_(1), network_(&simulator_, &backend_) {
    network_.Register(1, [this](const Envelope& e) { received_by_1_.push_back(e); });
    network_.Register(2, [this](const Envelope& e) { received_by_2_.push_back(e); });
  }
  sim::Simulator simulator_;
  SwitchPartitioner backend_;
  Network network_;
  std::vector<Envelope> received_by_1_;
  std::vector<Envelope> received_by_2_;
};

TEST_F(NetworkTest, DeliversWithLatency) {
  network_.set_latency({sim::Milliseconds(1), 0});
  network_.SendNew<Ping>(1, 2, 7);
  EXPECT_TRUE(received_by_2_.empty());
  simulator_.RunUntilIdle();
  ASSERT_EQ(received_by_2_.size(), 1u);
  EXPECT_EQ(received_by_2_[0].src, 1);
  EXPECT_EQ(simulator_.Now(), sim::Milliseconds(1));
  auto* ping = received_by_2_[0].msg->As<Ping>();
  ASSERT_NE(ping, nullptr);
  EXPECT_EQ(ping->seq, 7);
}

TEST_F(NetworkTest, DropsWhenPartitionedAtSend) {
  backend_.Block({1}, {2});
  network_.SendNew<Ping>(1, 2);
  simulator_.RunUntilIdle();
  EXPECT_TRUE(received_by_2_.empty());
  EXPECT_EQ(network_.messages_dropped(), 1u);
}

TEST_F(NetworkTest, DropsInFlightWhenPartitionInstalledBeforeDelivery) {
  network_.set_latency({sim::Milliseconds(10), 0});
  network_.SendNew<Ping>(1, 2);
  simulator_.Schedule(sim::Milliseconds(1), [this]() { backend_.Block({1}, {2}); });
  simulator_.RunUntilIdle();
  EXPECT_TRUE(received_by_2_.empty());
  EXPECT_EQ(network_.messages_dropped(), 1u);
}

TEST_F(NetworkTest, DropsToUnregisteredNode) {
  // Handlers are indexed by NodeId: 0 lies inside the table but was never
  // registered, 99 lies past its end, and -3 can never index it. Each is
  // a "no receiver" drop, and none joins the universe.
  for (const NodeId dst : {NodeId{0}, NodeId{99}, NodeId{-3}}) {
    network_.SendNew<Ping>(1, dst);
  }
  simulator_.RunUntilIdle();
  EXPECT_EQ(network_.messages_dropped(), 3u);
  EXPECT_EQ(network_.messages_delivered(), 0u);
  const auto drops = simulator_.Trace().Filter("net");
  ASSERT_EQ(drops.size(), 3u);
  for (const auto& drop : drops) {
    EXPECT_NE(drop.detail.find("(no receiver)"), std::string::npos) << drop.detail;
  }
  EXPECT_EQ(network_.Universe(), (Group{1, 2}));
}

TEST_F(NetworkTest, FlakyLinkDropsProbabilistically) {
  network_.SetLinkLoss(1, 2, 1.0);
  network_.SendNew<Ping>(1, 2);
  simulator_.RunUntilIdle();
  EXPECT_TRUE(received_by_2_.empty());
  network_.SetLinkLoss(1, 2, 0.0);
  network_.SendNew<Ping>(1, 2);
  simulator_.RunUntilIdle();
  EXPECT_EQ(received_by_2_.size(), 1u);
}

TEST_F(NetworkTest, CountsDeliveries) {
  network_.SendNew<Ping>(1, 2);
  network_.SendNew<Ping>(2, 1);
  simulator_.RunUntilIdle();
  EXPECT_EQ(network_.messages_sent(), 2u);
  EXPECT_EQ(network_.messages_delivered(), 2u);
  EXPECT_EQ(network_.messages_dropped(), 0u);
}

TEST_F(NetworkTest, UniverseListsRegisteredNodes) {
  EXPECT_EQ(network_.Universe(), (Group{1, 2}));
}

TEST_F(NetworkTest, CrashedNodeStaysInUniverseAndDropsAsNoReceiver) {
  // Crashed-node semantics: a null handler detaches the process but the node
  // keeps its address — Universe() is unchanged and traffic to it is dropped
  // at delivery as "no receiver".
  network_.Register(2, nullptr);
  EXPECT_EQ(network_.Universe(), (Group{1, 2}));
  network_.SendNew<Ping>(1, 2);
  simulator_.RunUntilIdle();
  EXPECT_EQ(network_.messages_dropped(), 1u);
  auto drops = simulator_.Trace().Filter("net");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_NE(drops[0].detail.find("no receiver"), std::string::npos);
  // Re-registering (restart) resumes delivery.
  network_.Register(2, [this](const Envelope& e) { received_by_2_.push_back(e); });
  network_.SendNew<Ping>(1, 2);
  simulator_.RunUntilIdle();
  EXPECT_EQ(received_by_2_.size(), 1u);
}

// A handler may change the handler table while it runs: crash its own
// node (nulling its own entry) or register a NodeId past the table's end
// (growing it). The running handler must be unaffected — its captures
// stay alive until it returns — and both changes take effect for later
// deliveries. The label capture is too large for std::function's inline
// buffer, so a handler destroyed mid-run shows up under ASan.
TEST_F(NetworkTest, HandlerMayCrashItsOwnNodeOrRegisterAHigherIdWhileRunning) {
  std::vector<std::string> log;
  const std::string label = "node3-handler-with-a-heap-allocated-label";
  network_.Register(3, [this, &log, label](const Envelope& e) {
    network_.Register(3, nullptr);
    network_.Register(500, [&log](const Envelope& inner) {
      log.push_back("n500 from " + std::to_string(inner.src));
    });
    log.push_back(label + " from " + std::to_string(e.src));
  });
  network_.set_latency({sim::Milliseconds(1), 0});
  network_.SendNew<Ping>(1, 3);
  network_.SendNew<Ping>(2, 3);  // arrives after node 3 crashed itself
  simulator_.RunUntilIdle();
  network_.SendNew<Ping>(1, 500);
  simulator_.RunUntilIdle();
  EXPECT_EQ(log, (std::vector<std::string>{label + " from 1", "n500 from 1"}));
  EXPECT_EQ(network_.messages_delivered(), 2u);
  EXPECT_EQ(network_.messages_dropped(), 1u);
  EXPECT_EQ(network_.Universe(), (Group{1, 2, 3, 500}));
}

// A second message type so fault-rule matching can be shown to be
// type-exact (Ping must not match a rule for Pong and vice versa).
struct Pong final : MessageOf<Pong> {
  static constexpr MessageType kType{"Pong"};
  explicit Pong(int seq_in = 0) : seq(seq_in) {}
  int seq;
};

// A type that reuses Ping's name. Dispatch compares descriptors, not names,
// so the clash cannot make one type pass for the other.
struct PingTwin final : MessageOf<PingTwin> {
  static constexpr MessageType kType{"Ping"};
};

TEST(MessageTest, AsReturnsTheObjectOnlyForItsExactType) {
  const Ping ping(3);
  const Pong pong;
  const PingTwin twin;
  const cluster::HeartbeatMsg heartbeat(1);
  const std::vector<const Message*> messages = {&ping, &pong, &twin, &heartbeat};

  ASSERT_EQ(messages[0]->As<Ping>(), &ping);
  EXPECT_EQ(messages[0]->As<Ping>()->seq, 3);
  EXPECT_EQ(messages[1]->As<Pong>(), &pong);
  EXPECT_EQ(messages[2]->As<PingTwin>(), &twin);
  EXPECT_EQ(messages[3]->As<cluster::HeartbeatMsg>(), &heartbeat);
  for (size_t i = 0; i < messages.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(messages[i]->As<Ping>() != nullptr, i == 0);
    EXPECT_EQ(messages[i]->As<Pong>() != nullptr, i == 1);
    EXPECT_EQ(messages[i]->As<PingTwin>() != nullptr, i == 2);
    EXPECT_EQ(messages[i]->As<cluster::HeartbeatMsg>() != nullptr, i == 3);
  }

  // A copy is its own object of the same type.
  const Ping copy = ping;
  EXPECT_EQ(static_cast<const Message&>(copy).As<Ping>(), &copy);
}

TEST(MessageTest, TypeNameIsTheDescriptorName) {
  const Ping ping;
  EXPECT_EQ(ping.TypeName(), "Ping");
  EXPECT_EQ(ping.TypeName().data(), Ping::kType.name.data());
  EXPECT_EQ(PingTwin().TypeName(), "Ping");
  EXPECT_EQ(Pong().TypeName(), "Pong");
  EXPECT_EQ(cluster::HeartbeatMsg().TypeName(), "Heartbeat");
}

TEST_F(NetworkTest, FaultDropKillsOnlyTheNamedType) {
  network_.AddFaultRule({.type_name = "Ping", .action = FaultRule::Action::kDrop});
  network_.SendNew<Ping>(1, 2);
  network_.SendNew<Pong>(1, 2);
  simulator_.RunUntilIdle();
  ASSERT_EQ(received_by_2_.size(), 1u);
  EXPECT_EQ(received_by_2_[0].msg->TypeName(), "Pong");
  EXPECT_EQ(network_.messages_dropped(), 1u);
  EXPECT_EQ(network_.messages_faulted(), 1u);
  auto records = simulator_.Trace().Filter("net");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event, "drop");
  EXPECT_NE(records[0].detail.find("(fault drop)"), std::string::npos);
}

TEST_F(NetworkTest, FaultDropHonorsTheMatchLimit) {
  network_.AddFaultRule(
      {.type_name = "Ping", .action = FaultRule::Action::kDrop, .limit = 2});
  for (int i = 0; i < 5; ++i) {
    network_.SendNew<Ping>(1, 2, i);
  }
  simulator_.RunUntilIdle();
  EXPECT_EQ(received_by_2_.size(), 3u);
  EXPECT_EQ(network_.messages_dropped(), 2u);
  EXPECT_EQ(network_.messages_faulted(), 2u);
}

TEST_F(NetworkTest, FaultDropRestrictsToSrcAndDst) {
  network_.AddFaultRule(
      {.type_name = "Ping", .action = FaultRule::Action::kDrop, .src = 2, .dst = 1});
  network_.SendNew<Ping>(1, 2);  // does not match: wrong direction
  network_.SendNew<Ping>(2, 1);  // matches
  simulator_.RunUntilIdle();
  EXPECT_EQ(received_by_2_.size(), 1u);
  EXPECT_TRUE(received_by_1_.empty());
}

TEST_F(NetworkTest, FaultDelayPostponesDelivery) {
  network_.set_latency({sim::Milliseconds(1), 0});
  network_.AddFaultRule({.type_name = "Ping",
                         .action = FaultRule::Action::kDelay,
                         .delay = sim::Milliseconds(50)});
  network_.SendNew<Ping>(1, 2);
  simulator_.RunUntilIdle();
  ASSERT_EQ(received_by_2_.size(), 1u);
  EXPECT_EQ(simulator_.Now(), sim::Milliseconds(51));
  EXPECT_EQ(network_.messages_delivered(), 1u);
  EXPECT_EQ(network_.messages_faulted(), 1u);
}

TEST_F(NetworkTest, FaultReorderSwapsConsecutiveMatches) {
  network_.set_latency({sim::Milliseconds(1), 0});
  network_.AddFaultRule({.type_name = "Ping", .action = FaultRule::Action::kReorder});
  for (int seq = 1; seq <= 4; ++seq) {
    simulator_.Schedule(sim::Milliseconds(10 * seq),
                        [this, seq]() { network_.SendNew<Ping>(1, 2, seq); });
  }
  simulator_.RunUntilIdle();
  ASSERT_EQ(received_by_2_.size(), 4u);
  std::vector<int> order;
  for (const Envelope& envelope : received_by_2_) {
    order.push_back(envelope.msg->As<Ping>()->seq);
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1, 4, 3}));
}

TEST_F(NetworkTest, FaultReorderLeavesOtherTypesInOrder) {
  network_.set_latency({sim::Milliseconds(1), 0});
  network_.AddFaultRule({.type_name = "Ping", .action = FaultRule::Action::kReorder});
  network_.SendNew<Ping>(1, 2, 1);
  network_.SendNew<Pong>(1, 2, 2);
  simulator_.RunUntilIdle();
  // The Pong sails through; the held Ping stays held (no successor yet).
  ASSERT_EQ(received_by_2_.size(), 1u);
  EXPECT_EQ(received_by_2_[0].msg->TypeName(), "Pong");
}

TEST_F(NetworkTest, RemovingAReorderRuleFlushesTheHeldMessage) {
  network_.set_latency({sim::Milliseconds(1), 0});
  const FaultRuleId rule =
      network_.AddFaultRule({.type_name = "Ping", .action = FaultRule::Action::kReorder});
  network_.SendNew<Ping>(1, 2, 1);
  simulator_.RunUntilIdle();
  EXPECT_TRUE(received_by_2_.empty());  // held
  network_.RemoveFaultRule(rule);
  simulator_.RunUntilIdle();
  ASSERT_EQ(received_by_2_.size(), 1u);  // flushed with its original delay
  EXPECT_FALSE(network_.HasFaultRules());
  network_.RemoveFaultRule(rule);  // unknown id: a safe no-op
}

TEST_F(NetworkTest, ClearFaultRulesFlushesEveryHeldMessage) {
  network_.AddFaultRule({.type_name = "Ping", .action = FaultRule::Action::kReorder});
  network_.AddFaultRule({.type_name = "Pong", .action = FaultRule::Action::kReorder});
  network_.SendNew<Ping>(1, 2, 1);
  network_.SendNew<Pong>(1, 2, 2);
  simulator_.RunUntilIdle();
  EXPECT_TRUE(received_by_2_.empty());
  network_.ClearFaultRules();
  simulator_.RunUntilIdle();
  EXPECT_EQ(received_by_2_.size(), 2u);
}

TEST_F(NetworkTest, FirstMatchingFaultRuleWins) {
  network_.AddFaultRule({.type_name = "Ping", .action = FaultRule::Action::kDrop, .limit = 1});
  network_.AddFaultRule({.type_name = "Ping",
                         .action = FaultRule::Action::kDelay,
                         .delay = sim::Milliseconds(5)});
  network_.set_latency({sim::Milliseconds(1), 0});
  network_.SendNew<Ping>(1, 2, 1);  // dropped by the first rule
  network_.SendNew<Ping>(1, 2, 2);  // first rule exhausted; delayed by the second
  simulator_.RunUntilIdle();
  ASSERT_EQ(received_by_2_.size(), 1u);
  EXPECT_EQ(simulator_.Now(), sim::Milliseconds(6));
}

TEST_F(NetworkTest, FaultStateSurvivesSnapshotRestore) {
  network_.AddFaultRule(
      {.type_name = "Ping", .action = FaultRule::Action::kDrop, .limit = 2});
  network_.SendNew<Ping>(1, 2, 1);
  simulator_.RunUntilIdle();
  const Network::State snapshot = network_.CaptureState();
  network_.SendNew<Ping>(1, 2, 2);  // consumes the second (last) match
  network_.SendNew<Ping>(1, 2, 3);  // delivered
  simulator_.RunUntilIdle();
  EXPECT_EQ(received_by_2_.size(), 1u);
  // Rewind: the rule must again have one match left, so the replayed
  // sends fault identically to the first run.
  network_.RestoreState(snapshot);
  EXPECT_TRUE(network_.CaptureState() == snapshot);
  received_by_2_.clear();
  network_.SendNew<Ping>(1, 2, 2);
  network_.SendNew<Ping>(1, 2, 3);
  simulator_.RunUntilIdle();
  EXPECT_EQ(received_by_2_.size(), 1u);
  EXPECT_EQ(network_.messages_faulted(), 2u);
}

TEST_F(NetworkTest, HeldMessageSurvivesSnapshotRestore) {
  network_.set_latency({sim::Milliseconds(1), 0});
  network_.AddFaultRule({.type_name = "Ping", .action = FaultRule::Action::kReorder});
  network_.SendNew<Ping>(1, 2, 1);
  simulator_.RunUntilIdle();
  const Network::State snapshot = network_.CaptureState();
  network_.SendNew<Ping>(1, 2, 2);
  simulator_.RunUntilIdle();
  ASSERT_EQ(received_by_2_.size(), 2u);
  network_.RestoreState(snapshot);
  EXPECT_TRUE(network_.CaptureState() == snapshot);  // the same held message
  received_by_2_.clear();
  network_.SendNew<Ping>(1, 2, 2);  // releases the snapshotted held message
  simulator_.RunUntilIdle();
  std::vector<int> order;
  for (const Envelope& envelope : received_by_2_) {
    order.push_back(envelope.msg->As<Ping>()->seq);
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(NetworkTest, NoFaultRulesMeansNoFaultTraceRecords) {
  network_.SendNew<Ping>(1, 2);
  simulator_.RunUntilIdle();
  for (const auto& record : simulator_.Trace().records()) {
    EXPECT_NE(record.event, "fault");
  }
  EXPECT_EQ(network_.messages_faulted(), 0u);
}

TEST_F(NetworkTest, DropTraceNamesThePartitionedLink) {
  backend_.Block({1}, {2});
  network_.SendNew<Ping>(1, 2);
  simulator_.RunUntilIdle();
  auto drops = simulator_.Trace().Filter("net");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].event, "drop");
  EXPECT_NE(drops[0].detail.find("1->2"), std::string::npos);
}

}  // namespace
}  // namespace net

namespace net_property {
namespace {

// Property: with a static partition in place for the whole run, no message
// ever crosses a cut link, in either backend, regardless of traffic shape.
TEST(NetworkProperty, NothingCrossesAStaticPartition) {
  for (const char* kind : {"switch", "firewall"}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      sim::Simulator simulator(seed);
      auto backend = net::SwitchPartitioner();
      auto firewall = net::FirewallPartitioner();
      net::PartitionBackend* active =
          std::string(kind) == "switch" ? static_cast<net::PartitionBackend*>(&backend)
                                        : &firewall;
      net::Network network(&simulator, active);
      net::Partitioner partitioner(active);

      // Random bipartition of 6 nodes.
      sim::Rng rng(seed * 31);
      net::Group side_a;
      net::Group side_b;
      for (net::NodeId n = 1; n <= 6; ++n) {
        (rng.NextBool(0.5) ? side_a : side_b).push_back(n);
      }
      if (side_a.empty() || side_b.empty()) {
        continue;
      }
      auto in_a = [&side_a](net::NodeId n) {
        return std::find(side_a.begin(), side_a.end(), n) != side_a.end();
      };
      partitioner.Complete(side_a, side_b);

      std::vector<std::pair<net::NodeId, net::NodeId>> delivered;
      for (net::NodeId n = 1; n <= 6; ++n) {
        network.Register(n, [n, &delivered](const net::Envelope& envelope) {
          delivered.emplace_back(envelope.src, n);
        });
      }
      for (int i = 0; i < 300; ++i) {
        const net::NodeId src = static_cast<net::NodeId>(1 + rng.NextBelow(6));
        const net::NodeId dst = static_cast<net::NodeId>(1 + rng.NextBelow(6));
        network.SendNew<net::Ping>(src, dst);
      }
      simulator.RunUntilIdle();
      for (const auto& [src, dst] : delivered) {
        EXPECT_EQ(in_a(src), in_a(dst))
            << kind << " let " << src << "->" << dst << " cross the partition";
      }
    }
  }
}

// Property: after any randomized sequence of Block/Unblock/Complete/Partial/
// Simplex/Heal (with duplicated and overlapping groups), both backends and
// both connectivity caches give the same verdict for every pair — including
// an untracked node that exercises the cache's fallback path.
TEST(NetworkProperty, BackendsAndCachesAgreeUnderChurn) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    sim::Rng rng(seed * 101);
    net::SwitchPartitioner sw;
    net::FirewallPartitioner fw;
    net::ConnectivityCache sw_cache(&sw);
    net::ConnectivityCache fw_cache(&fw);
    for (net::NodeId n = 0; n < 7; ++n) {
      sw_cache.AddNode(n);
      fw_cache.AddNode(n);
    }
    net::Partitioner sw_part(&sw);
    net::Partitioner fw_part(&fw);

    auto random_group = [&rng]() {
      net::Group g;
      const size_t len = 1 + rng.NextBelow(4);
      for (size_t i = 0; i < len; ++i) {
        g.push_back(static_cast<net::NodeId>(rng.NextBelow(7)));  // dups allowed
      }
      return g;
    };

    std::vector<std::pair<net::RuleId, net::RuleId>> rules;
    std::vector<std::pair<net::Partition, net::Partition>> partitions;
    for (int step = 0; step < 250; ++step) {
      switch (rng.NextBelow(4)) {
        case 0: {
          const net::Group srcs = random_group();
          const net::Group dsts = random_group();
          rules.emplace_back(sw.Block(srcs, dsts), fw.Block(srcs, dsts));
          break;
        }
        case 1: {
          if (!rules.empty()) {
            const size_t pick = rng.NextBelow(rules.size());
            EXPECT_TRUE(sw.Unblock(rules[pick].first));
            EXPECT_TRUE(fw.Unblock(rules[pick].second));
            rules.erase(rules.begin() + static_cast<ptrdiff_t>(pick));
          }
          break;
        }
        case 2: {
          const net::Group a = random_group();
          const net::Group b = random_group();
          switch (rng.NextBelow(3)) {
            case 0:
              partitions.emplace_back(sw_part.Complete(a, b), fw_part.Complete(a, b));
              break;
            case 1:
              partitions.emplace_back(sw_part.Partial(a, b), fw_part.Partial(a, b));
              break;
            default:
              partitions.emplace_back(sw_part.Simplex(a, b), fw_part.Simplex(a, b));
              break;
          }
          break;
        }
        default: {
          if (!partitions.empty()) {
            const size_t pick = rng.NextBelow(partitions.size());
            sw_part.Heal(partitions[pick].first);
            fw_part.Heal(partitions[pick].second);
          }
          break;
        }
      }
      ASSERT_EQ(sw.rule_count(), fw.rule_count()) << "seed " << seed << " step " << step;
      ASSERT_EQ(sw_cache.synced_epoch(), sw.epoch());
      ASSERT_EQ(fw_cache.synced_epoch(), fw.epoch());
      for (net::NodeId s = 0; s < 8; ++s) {    // node 7 is untracked
        for (net::NodeId d = 0; d < 8; ++d) {
          const bool truth = sw.Allows(s, d);
          ASSERT_EQ(truth, fw.Allows(s, d))
              << "seed " << seed << " step " << step << " link " << s << "->" << d;
          ASSERT_EQ(truth, sw_cache.Allows(s, d))
              << "switch cache diverged at seed " << seed << " step " << step << " link "
              << s << "->" << d;
          ASSERT_EQ(truth, fw_cache.Allows(s, d))
              << "firewall cache diverged at seed " << seed << " step " << step
              << " link " << s << "->" << d;
          if (s == d) {
            ASSERT_TRUE(truth) << "self traffic cut at " << s;
          }
        }
      }
    }
    EXPECT_GT(sw_cache.patched_pairs(), 0u);
    EXPECT_EQ(sw_cache.full_rebuilds(), 0u);
    EXPECT_EQ(fw_cache.full_rebuilds(), 0u);
  }
}

}  // namespace
}  // namespace net_property

namespace net_latency {
namespace {

// Delivery latency stays within [base, base + jitter].
TEST(NetworkLatency, JitterIsBounded) {
  sim::Simulator simulator(5);
  net::SwitchPartitioner backend;
  net::Network network(&simulator, &backend);
  network.set_latency({sim::Microseconds(300), sim::Microseconds(150)});
  std::vector<sim::Time> latencies;
  network.Register(2, [&](const net::Envelope& envelope) {
    latencies.push_back(simulator.Now() - envelope.sent_at);
  });
  network.Register(1, [](const net::Envelope&) {});
  for (int i = 0; i < 500; ++i) {
    network.SendNew<net::Ping>(1, 2);
    simulator.RunUntilIdle();
  }
  ASSERT_EQ(latencies.size(), 500u);
  sim::Time lo = latencies[0];
  sim::Time hi = latencies[0];
  for (sim::Time t : latencies) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    EXPECT_GE(t, sim::Microseconds(300));
    EXPECT_LE(t, sim::Microseconds(450));
  }
  // The jitter draw actually spreads across the window.
  EXPECT_LT(lo, sim::Microseconds(330));
  EXPECT_GT(hi, sim::Microseconds(420));
}

}  // namespace
}  // namespace net_latency
