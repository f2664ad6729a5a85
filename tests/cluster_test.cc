// Unit tests for the process runtime, the failure detector and the client
// skeleton.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/history.h"
#include "cluster/failure_detector.h"
#include "cluster/op_client.h"
#include "cluster/process.h"
#include "net/network.h"
#include "net/partition.h"
#include "sim/simulator.h"

namespace cluster {
namespace {

struct Note final : net::MessageOf<Note> {
  static constexpr net::MessageType kType{"Note"};
  explicit Note(std::string text_in = "") : text(std::move(text_in)) {}
  std::string text;
};

// A process that echoes notes back and counts ticks.
class Echoer : public Process {
 public:
  Echoer(sim::Simulator* simulator, net::Network* network, net::NodeId id)
      : Process(simulator, network, id, "echo" + std::to_string(id)) {}

  int ticks = 0;
  std::vector<std::string> seen;
  int starts = 0;
  int restarts = 0;

  void SendNote(net::NodeId dst, const std::string& text) { Send<Note>(dst, text); }
  void ArmAfter(sim::Duration d) {
    After(d, [this]() { ++ticks; });
  }
  void ArmEvery(sim::Duration d) {
    Every(d, [this]() { ++ticks; });
  }

 protected:
  void OnStart() override { ++starts; }
  void OnRestart() override { ++restarts; }
  void OnMessage(const net::Envelope& envelope) override {
    auto* note = envelope.msg->As<Note>();
    if (note != nullptr) {
      seen.push_back(note->text);
    }
  }
};

class ProcessTest : public ::testing::Test {
 protected:
  ProcessTest() : simulator_(3), network_(&simulator_, &backend_) {
    a_ = std::make_unique<Echoer>(&simulator_, &network_, 1);
    b_ = std::make_unique<Echoer>(&simulator_, &network_, 2);
    a_->Boot();
    b_->Boot();
  }
  sim::Simulator simulator_;
  net::SwitchPartitioner backend_;
  net::Network network_;
  std::unique_ptr<Echoer> a_;
  std::unique_ptr<Echoer> b_;
};

TEST_F(ProcessTest, DeliversMessagesBetweenProcesses) {
  a_->SendNote(2, "hello");
  simulator_.RunUntilIdle();
  ASSERT_EQ(b_->seen.size(), 1u);
  EXPECT_EQ(b_->seen[0], "hello");
}

TEST_F(ProcessTest, CrashedProcessReceivesNothing) {
  b_->Crash();
  a_->SendNote(2, "lost");
  simulator_.RunUntilIdle();
  EXPECT_TRUE(b_->seen.empty());
}

TEST_F(ProcessTest, RestartResumesDelivery) {
  b_->Crash();
  b_->Restart();
  a_->SendNote(2, "back");
  simulator_.RunUntilIdle();
  ASSERT_EQ(b_->seen.size(), 1u);
  EXPECT_EQ(b_->restarts, 1);
  EXPECT_EQ(b_->starts, 2);
}

TEST_F(ProcessTest, CrashCancelsPendingTimers) {
  a_->ArmAfter(sim::Milliseconds(5));
  a_->Crash();
  simulator_.RunUntilIdle();
  EXPECT_EQ(a_->ticks, 0);
}

TEST_F(ProcessTest, TimerFromOldIncarnationDoesNotFireAfterRestart) {
  a_->ArmAfter(sim::Milliseconds(5));
  a_->Crash();
  a_->Restart();
  simulator_.RunUntilIdle();
  EXPECT_EQ(a_->ticks, 0);  // the timer belonged to the old incarnation
}

TEST_F(ProcessTest, EveryRepeatsUntilCrash) {
  a_->ArmEvery(sim::Milliseconds(10));
  simulator_.RunUntil(sim::Milliseconds(55));
  EXPECT_EQ(a_->ticks, 5);
  a_->Crash();
  simulator_.RunUntil(sim::Milliseconds(200));
  EXPECT_EQ(a_->ticks, 5);
}

TEST_F(ProcessTest, IncarnationIncrementsOnCrashAndBoot) {
  const uint64_t first = a_->incarnation();
  a_->Crash();
  a_->Restart();
  EXPECT_GT(a_->incarnation(), first);
}

class FailureDetectorTest : public ::testing::Test {
 protected:
  FailureDetector::Options MakeOptions() {
    FailureDetector::Options o;
    o.interval = sim::Milliseconds(100);
    o.miss_threshold = 3;
    return o;
  }
};

TEST_F(FailureDetectorTest, PeersStartAlive) {
  FailureDetector fd(1, {2, 3}, MakeOptions());
  EXPECT_TRUE(fd.IsAlive(2, sim::Milliseconds(100)));
  EXPECT_TRUE(fd.IsAlive(3, sim::kTimeZero));
}

TEST_F(FailureDetectorTest, SelfIsExcludedFromPeers) {
  FailureDetector fd(1, {1, 2}, MakeOptions());
  EXPECT_EQ(fd.AlivePeers(sim::kTimeZero), (std::vector<net::NodeId>{2}));
}

TEST_F(FailureDetectorTest, PeerDiesAfterMissedHeartbeats) {
  FailureDetector fd(1, {2}, MakeOptions());
  EXPECT_TRUE(fd.IsAlive(2, sim::Milliseconds(300)));
  EXPECT_FALSE(fd.IsAlive(2, sim::Milliseconds(301)));
}

TEST_F(FailureDetectorTest, HeartbeatRefreshesLiveness) {
  FailureDetector fd(1, {2}, MakeOptions());
  fd.RecordHeartbeat(2, sim::Milliseconds(250));
  EXPECT_TRUE(fd.IsAlive(2, sim::Milliseconds(500)));
  EXPECT_FALSE(fd.IsAlive(2, sim::Milliseconds(600)));
}

TEST_F(FailureDetectorTest, UnknownPeerIsDead) {
  FailureDetector fd(1, {2}, MakeOptions());
  EXPECT_FALSE(fd.IsAlive(42, sim::kTimeZero));
}

TEST_F(FailureDetectorTest, CustomWindowQueries) {
  FailureDetector fd(1, {2}, MakeOptions());
  fd.RecordHeartbeat(2, sim::Milliseconds(100));
  // Dead by the default 300ms window, alive by a 600ms step-down window.
  EXPECT_FALSE(fd.IsAlive(2, sim::Milliseconds(500)));
  EXPECT_TRUE(fd.IsAliveWithin(2, sim::Milliseconds(500), sim::Milliseconds(600)));
}

TEST_F(FailureDetectorTest, AliveAndDeadPartitionThePeerSet) {
  FailureDetector fd(1, {2, 3, 4}, MakeOptions());
  fd.RecordHeartbeat(2, sim::Milliseconds(400));
  const sim::Time now = sim::Milliseconds(500);
  EXPECT_EQ(fd.AlivePeers(now), (std::vector<net::NodeId>{2}));
  EXPECT_EQ(fd.DeadPeers(now), (std::vector<net::NodeId>{3, 4}));
}

TEST_F(FailureDetectorTest, ResetRevivesEveryone) {
  FailureDetector fd(1, {2, 3}, MakeOptions());
  EXPECT_FALSE(fd.IsAlive(2, sim::Seconds(10)));
  fd.Reset(sim::Seconds(10));
  EXPECT_TRUE(fd.IsAlive(2, sim::Seconds(10)));
}

TEST_F(FailureDetectorTest, LastHeardTracksLatest) {
  FailureDetector fd(1, {2}, MakeOptions());
  fd.RecordHeartbeat(2, sim::Milliseconds(7));
  fd.RecordHeartbeat(2, sim::Milliseconds(11));
  EXPECT_EQ(fd.LastHeard(2), sim::Milliseconds(11));
  EXPECT_EQ(fd.LastHeard(99), sim::kTimeZero);
}

// Partial-partition disagreement: with nodes {1,2,3} and a partial partition
// between 1 and 2, node 2's detector sees node 1 dead while node 3's sees it
// alive — the paper's defining confusion for partial partitions.
TEST(FailureDetectorScenario, PartialPartitionCausesDisagreement) {
  FailureDetector::Options options;
  options.interval = sim::Milliseconds(100);
  options.miss_threshold = 3;
  FailureDetector on_node2(2, {1, 3}, options);
  FailureDetector on_node3(3, {1, 2}, options);
  // Node 1 heartbeats reach node 3 but not node 2 (partial partition 1|2).
  for (int t = 1; t <= 10; ++t) {
    on_node3.RecordHeartbeat(1, sim::Milliseconds(100 * t));
  }
  const sim::Time now = sim::Milliseconds(1000);
  EXPECT_FALSE(on_node2.IsAlive(1, now));  // node 2: "node 1 crashed"
  EXPECT_TRUE(on_node3.IsAlive(1, now));   // node 3: "node 1 is fine"
}

// --- OpClient: the single-outstanding-operation client skeleton ---

struct Ask final : net::MessageOf<Ask> {
  static constexpr net::MessageType kType{"Ask"};
  uint64_t request_id = 0;
  std::string key;
};

struct Answer final : net::MessageOf<Answer> {
  static constexpr net::MessageType kType{"Answer"};
  uint64_t request_id = 0;
  std::string value;
};

// Answers every Ask `delay` after it arrives, with "v:" + the asked key.
class DelayedServer : public Process {
 public:
  DelayedServer(sim::Simulator* simulator, net::Network* network, net::NodeId id,
                sim::Duration delay)
      : Process(simulator, network, id, "server"), delay_(delay) {}

 protected:
  void OnMessage(const net::Envelope& envelope) override {
    const auto* ask = envelope.msg->As<Ask>();
    if (ask == nullptr) {
      return;
    }
    auto answer = std::make_shared<Answer>();
    answer->request_id = ask->request_id;
    answer->value = "v:" + ask->key;
    const net::NodeId src = envelope.src;
    After(delay_, [this, src, answer]() { SendEnvelope(src, answer); });
  }

 private:
  const sim::Duration delay_;
};

// The smallest OpClient: one request type, and every answer is ok.
class AskClient : public OpClient {
 public:
  AskClient(sim::Simulator* simulator, net::Network* network, net::NodeId server,
            check::History* history)
      : OpClient(simulator, network, 100, "client", 1, {server}, history) {}

  void BeginOp(check::OpType type, const std::string& key, const std::string& value = "") {
    Begin(type, key, value, /*final_read=*/false, [&]() {
      auto ask = std::make_shared<Ask>();
      ask->request_id = current_request_id_;
      ask->key = key;
      return ask;
    });
  }

 protected:
  void OnMessage(const net::Envelope& envelope) override {
    const auto* answer = envelope.msg->As<Answer>();
    if (answer != nullptr && Awaiting(answer->request_id)) {
      Complete(check::OpStatus::kOk, answer->value);
    }
  }
};

class OpClientTest : public ::testing::Test {
 protected:
  // The server answers 300 ms after each request; the client's op timeout
  // is the skeleton's default 800 ms unless a test sets another.
  OpClientTest()
      : simulator_(5),
        network_(&simulator_, &backend_),
        server_(&simulator_, &network_, 1, sim::Milliseconds(300)),
        client_(&simulator_, &network_, 1, &history_) {
    server_.Boot();
    client_.Boot();
  }

  // Runs the outstanding op to completion, as neat::TestEnv does.
  check::Operation RunToCompletion() {
    simulator_.RunUntilPredicate([this]() { return client_.idle(); },
                                 simulator_.Now() + sim::Seconds(5));
    return client_.last_op();
  }

  sim::Simulator simulator_;
  net::SwitchPartitioner backend_;
  net::Network network_;
  check::History history_;
  DelayedServer server_;
  AskClient client_;
};

TEST_F(OpClientTest, LateReplyWhileTheNextOpIsOutstandingIsIgnored) {
  client_.set_op_timeout(sim::Milliseconds(100));
  client_.BeginOp(check::OpType::kRead, "a");
  EXPECT_EQ(RunToCompletion().status, check::OpStatus::kTimeout);
  client_.set_op_timeout(sim::Seconds(1));
  client_.BeginOp(check::OpType::kRead, "b");
  // The answer to "a" lands at about 300 ms, while "b" is outstanding.
  simulator_.RunUntil(sim::Milliseconds(350));
  EXPECT_FALSE(client_.idle());
  const check::Operation op = RunToCompletion();
  EXPECT_EQ(op.status, check::OpStatus::kOk);
  EXPECT_EQ(op.key, "b");
  EXPECT_EQ(op.value, "v:b");
  EXPECT_EQ(history_.size(), 2u);
}

TEST_F(OpClientTest, TimeoutIsRecordedExactlyOnce) {
  client_.set_op_timeout(sim::Milliseconds(100));
  client_.BeginOp(check::OpType::kWrite, "k", "mine");
  const check::Operation op = RunToCompletion();
  EXPECT_EQ(op.status, check::OpStatus::kTimeout);
  EXPECT_EQ(op.completed, sim::Milliseconds(100));
  // The late answer lands while the client is idle and records nothing.
  simulator_.RunUntilIdle();
  ASSERT_EQ(history_.size(), 1u);
  EXPECT_EQ(history_.ops()[0], op);
  EXPECT_EQ(client_.last_op(), op);
}

TEST_F(OpClientTest, AnsweredOpRecordsNoTimeout) {
  client_.BeginOp(check::OpType::kWrite, "k", "mine");
  EXPECT_EQ(RunToCompletion().status, check::OpStatus::kOk);
  // The cancelled 800 ms timer must not record a second outcome.
  simulator_.RunUntilIdle();
  ASSERT_EQ(history_.size(), 1u);
  EXPECT_EQ(history_.ops()[0].status, check::OpStatus::kOk);
}

TEST_F(OpClientTest, ReadsRecordTheReplyValueAndWritesKeepTheirOwn) {
  client_.BeginOp(check::OpType::kRead, "k");
  EXPECT_EQ(RunToCompletion().value, "v:k");
  client_.BeginOp(check::OpType::kWrite, "k", "mine");
  EXPECT_EQ(RunToCompletion().value, "mine");
  client_.BeginOp(check::OpType::kDequeue, "q");
  EXPECT_EQ(RunToCompletion().value, "v:q");
  client_.BeginOp(check::OpType::kEnqueue, "q", "m1");
  EXPECT_EQ(RunToCompletion().value, "m1");
  ASSERT_EQ(history_.size(), 4u);
  for (const check::Operation& op : history_.ops()) {
    EXPECT_EQ(op.status, check::OpStatus::kOk);
    EXPECT_EQ(op.client, 1);
  }
}

}  // namespace
}  // namespace cluster
