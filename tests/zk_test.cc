// Unit tests for the coordination-service registry (ZooKeeper analog).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "net/network.h"
#include "net/partition.h"
#include "sim/simulator.h"
#include "systems/zk/messages.h"
#include "systems/zk/registry.h"

namespace zksvc {
namespace {

// A scriptable registry client for the tests.
class Probe : public cluster::Process {
 public:
  Probe(sim::Simulator* simulator, net::Network* network, net::NodeId id)
      : cluster::Process(simulator, network, id, "probe" + std::to_string(id)) {}

  std::vector<bool> create_replies;
  std::vector<std::pair<std::string, bool>> events;  // (path, deleted)
  std::vector<std::pair<bool, std::string>> get_replies;
  int pongs = 0;

  void Create(net::NodeId zk, const std::string& path, const std::string& data,
              bool ephemeral = true) {
    auto msg = std::make_shared<ZkCreate>();
    msg->request_id = next_request_++;
    msg->path = path;
    msg->data = data;
    msg->ephemeral = ephemeral;
    SendEnvelope(zk, msg);
  }
  void Get(net::NodeId zk, const std::string& path) {
    auto msg = std::make_shared<ZkGet>();
    msg->request_id = next_request_++;
    msg->path = path;
    SendEnvelope(zk, msg);
  }
  void Watch(net::NodeId zk, const std::string& path) {
    auto msg = std::make_shared<ZkWatch>();
    msg->path = path;
    SendEnvelope(zk, msg);
  }
  void Delete(net::NodeId zk, const std::string& path) {
    auto msg = std::make_shared<ZkDelete>();
    msg->path = path;
    SendEnvelope(zk, msg);
  }
  void StartPinging(net::NodeId zk, sim::Duration interval) {
    Every(interval, [this, zk]() { Send<ZkPing>(zk); });
  }

 protected:
  void OnMessage(const net::Envelope& envelope) override {
    const net::Message& msg = *envelope.msg;
    if (auto* reply = msg.As<ZkCreateReply>()) {
      create_replies.push_back(reply->ok);
    } else if (auto* event = msg.As<ZkEvent>()) {
      events.emplace_back(event->path, event->deleted);
    } else if (auto* get_reply = msg.As<ZkGetReply>()) {
      get_replies.emplace_back(get_reply->exists, get_reply->data);
    } else if (msg.As<ZkPong>() != nullptr) {
      ++pongs;
    }
  }

 private:
  uint64_t next_request_ = 1;
};

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : simulator_(1), network_(&simulator_, &backend_) {
    Registry::Options options;
    options.session_timeout = sim::Milliseconds(300);
    registry_ = std::make_unique<Registry>(&simulator_, &network_, 50, options);
    a_ = std::make_unique<Probe>(&simulator_, &network_, 1);
    b_ = std::make_unique<Probe>(&simulator_, &network_, 2);
    registry_->Boot();
    a_->Boot();
    b_->Boot();
  }
  sim::Simulator simulator_;
  net::SwitchPartitioner backend_;
  net::Network network_;
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<Probe> a_;
  std::unique_ptr<Probe> b_;
};

TEST_F(RegistryTest, FirstCreateWins) {
  a_->Create(50, "/master", "1");
  simulator_.RunFor(sim::Milliseconds(5));
  b_->Create(50, "/master", "2");
  simulator_.RunFor(sim::Milliseconds(5));
  ASSERT_EQ(a_->create_replies, (std::vector<bool>{true}));
  ASSERT_EQ(b_->create_replies, (std::vector<bool>{false}));
  EXPECT_EQ(registry_->Data("/master"), "1");
}

TEST_F(RegistryTest, GetReturnsDataAndExistence) {
  a_->Create(50, "/x", "payload");
  simulator_.RunFor(sim::Milliseconds(10));
  b_->Get(50, "/x");
  simulator_.RunFor(sim::Milliseconds(5));
  b_->Get(50, "/missing");
  simulator_.RunFor(sim::Milliseconds(5));
  ASSERT_EQ(b_->get_replies.size(), 2u);
  EXPECT_TRUE(b_->get_replies[0].first);
  EXPECT_EQ(b_->get_replies[0].second, "payload");
  EXPECT_FALSE(b_->get_replies[1].first);
}

TEST_F(RegistryTest, SessionExpiryDeletesEphemeralsAndFiresWatches) {
  a_->StartPinging(50, sim::Milliseconds(50));
  a_->Create(50, "/master", "1");
  simulator_.RunFor(sim::Milliseconds(100));
  b_->Watch(50, "/master");
  // Partition a away from the registry; its session expires.
  backend_.Block({1}, {50});
  simulator_.RunFor(sim::Milliseconds(600));
  EXPECT_FALSE(registry_->Exists("/master"));
  ASSERT_EQ(b_->events.size(), 1u);
  EXPECT_EQ(b_->events[0], std::make_pair(std::string("/master"), true));
}

TEST_F(RegistryTest, PingKeepsSessionAlive) {
  a_->StartPinging(50, sim::Milliseconds(50));
  a_->Create(50, "/master", "1");
  simulator_.RunFor(sim::Seconds(2));
  EXPECT_TRUE(registry_->Exists("/master"));
}

TEST_F(RegistryTest, PersistentEntrySurvivesSessionExpiry) {
  a_->Create(50, "/config", "v", /*ephemeral=*/false);
  simulator_.RunFor(sim::Milliseconds(10));
  backend_.Block({1}, {50});
  simulator_.RunFor(sim::Seconds(1));
  EXPECT_TRUE(registry_->Exists("/config"));
}

TEST_F(RegistryTest, WatchFiresOnCreateAndIsOneShot) {
  b_->Watch(50, "/master");
  simulator_.RunFor(sim::Milliseconds(5));
  a_->Create(50, "/master", "1");
  simulator_.RunFor(sim::Milliseconds(5));
  ASSERT_EQ(b_->events.size(), 1u);
  EXPECT_FALSE(b_->events[0].second);  // created, not deleted
  // One-shot: a later delete does not fire again without re-arming.
  a_->Delete(50, "/master");
  simulator_.RunFor(sim::Milliseconds(10));
  EXPECT_EQ(b_->events.size(), 1u);
}

TEST_F(RegistryTest, ExplicitDeleteFiresWatch) {
  a_->Create(50, "/master", "1");
  simulator_.RunFor(sim::Milliseconds(10));
  b_->Watch(50, "/master");
  simulator_.RunFor(sim::Milliseconds(5));
  a_->Delete(50, "/master");
  simulator_.RunFor(sim::Milliseconds(5));
  ASSERT_EQ(b_->events.size(), 1u);
  EXPECT_TRUE(b_->events[0].second);
}

TEST_F(RegistryTest, WatchRearmsAfterFiring) {
  a_->Create(50, "/master", "1");
  simulator_.RunFor(sim::Milliseconds(10));
  b_->Watch(50, "/master");
  simulator_.RunFor(sim::Milliseconds(5));
  a_->Delete(50, "/master");
  simulator_.RunFor(sim::Milliseconds(5));
  ASSERT_EQ(b_->events.size(), 1u);
  // Re-arm and observe the next transition.
  b_->Watch(50, "/master");
  simulator_.RunFor(sim::Milliseconds(5));
  a_->Create(50, "/master", "2");
  simulator_.RunFor(sim::Milliseconds(5));
  ASSERT_EQ(b_->events.size(), 2u);
  EXPECT_FALSE(b_->events[1].second);  // created
}

TEST_F(RegistryTest, MultipleWatchersAllFire) {
  a_->Watch(50, "/x");
  b_->Watch(50, "/x");
  simulator_.RunFor(sim::Milliseconds(5));
  a_->Create(50, "/x", "v");
  simulator_.RunFor(sim::Milliseconds(5));
  EXPECT_EQ(a_->events.size(), 1u);
  EXPECT_EQ(b_->events.size(), 1u);
}

TEST_F(RegistryTest, ReconnectedSessionCanRecreateItsEntry) {
  a_->StartPinging(50, sim::Milliseconds(50));
  a_->Create(50, "/master", "1");
  simulator_.RunFor(sim::Milliseconds(100));
  backend_.Block({1}, {50});
  simulator_.RunFor(sim::Milliseconds(600));  // session expires, entry gone
  EXPECT_FALSE(registry_->Exists("/master"));
  backend_ = net::SwitchPartitioner();  // heal: replace the whole rule table
  // After the heal, the mastership slot is up for grabs again.
  b_->Create(50, "/master", "2");
  simulator_.RunFor(sim::Milliseconds(10));
  EXPECT_EQ(registry_->Data("/master"), "2");
}

TEST_F(RegistryTest, PongAnswersPing) {
  a_->StartPinging(50, sim::Milliseconds(50));
  simulator_.RunFor(sim::Milliseconds(220));
  EXPECT_GE(a_->pongs, 4);
}

}  // namespace
}  // namespace zksvc
