#include "neat/adapters.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "check/causal.h"
#include "check/checkers.h"
#include "check/linearizability.h"
#include "neat/coverage.h"
#include "neat/fnv.h"
#include "neat/trace_report.h"
#include "neat/trace_scan.h"

namespace neat {

bool LocksvcSystem::GetStatus() {
  const std::string resource = "__status_probe_" + std::to_string(cluster_.history().size());
  if (cluster_.Lock(0, resource).status != check::OpStatus::kOk) {
    return false;
  }
  return cluster_.Unlock(0, resource).status == check::OpStatus::kOk;
}

uint64_t PbkvSystem::StateDigest() const {
  Fnv1a hash;
  hash.MixWord(static_cast<uint64_t>(cluster_.FindPrimary()));
  return hash.value();
}

uint64_t RaftKvSystem::StateDigest() const {
  Fnv1a hash;
  for (const net::NodeId leader : cluster_.Leaders()) {
    hash.MixWord(static_cast<uint64_t>(leader));
  }
  return hash.value();
}

uint64_t LocksvcSystem::StateDigest() const {
  Fnv1a hash;
  for (const net::NodeId id : cluster_.server_ids()) {
    hash.MixWord(static_cast<uint64_t>(id));
    for (const net::NodeId member : cluster_.server(id).view()) {
      hash.MixWord(static_cast<uint64_t>(member));
    }
  }
  return hash.value();
}

uint64_t MqueueSystem::StateDigest() const {
  Fnv1a hash;
  hash.MixWord(static_cast<uint64_t>(cluster_.MasterPerRegistry()));
  for (const net::NodeId master : cluster_.SelfBelievedMasters()) {
    hash.MixWord(static_cast<uint64_t>(master));
  }
  return hash.value();
}

namespace {

const char* PartitionKindName(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::kComplete:
      return "complete";
    case PartitionKind::kPartial:
      return "partial";
    case PartitionKind::kSimplex:
      return "simplex";
  }
  return "?";
}

// The partition/heal machinery every runner shares: builds the requested
// partition shape around an isolated node (or between explicit groups) and
// tears it down, keeping track of the currently installed partition so
// re-partition and final heal are uniform across systems. Each install and
// heal appends a "neat" trace record — the phase markers the coverage
// signal keys partition-phase edges off (neat/coverage.h).
//
// The installed-partition tracking is part of a forked run's state: the
// backend rules themselves rewind through the environment snapshot, and
// this mirrors the script's view of them.
struct PartitionScriptState {
  bool partitioned_ = false;
  net::Partition partition_;
  net::NodeId isolated_ = net::kInvalidNode;
  bool operator==(const PartitionScriptState&) const = default;
};

class PartitionScript : private PartitionScriptState {
 public:
  PartitionScript(TestEnv& env, net::Group servers)
      : env_(env), servers_(std::move(servers)) {}

  bool partitioned() const { return partitioned_; }
  net::NodeId isolated() const { return isolated_; }

  void Partition(PartitionKind kind, net::NodeId isolated) {
    isolated_ = isolated;
    net::Group rest = net::Partitioner::Rest(servers_, {isolated});
    if (kind == PartitionKind::kPartial) {
      // Cut the isolated node from all but one bridge replica.
      rest = net::Group(rest.begin(), rest.end() - 1);
    }
    PartitionGroups(kind, {isolated}, rest);
  }

  // Cuts `side_a` from `side_b`; nodes in neither group keep full
  // connectivity (the bridge of a partial partition).
  void PartitionGroups(PartitionKind kind, const net::Group& side_a,
                       const net::Group& side_b) {
    Heal();
    switch (kind) {
      case PartitionKind::kComplete:
        partition_ = env_.partitioner().Complete(side_a, side_b);
        break;
      case PartitionKind::kPartial:
        partition_ = env_.partitioner().Partial(side_a, side_b);
        break;
      case PartitionKind::kSimplex:
        partition_ = env_.partitioner().Simplex(side_a, side_b);
        break;
    }
    partitioned_ = true;
    sim::Simulator& simulator = env_.simulator();
    simulator.Trace().Append(simulator.Now(), "neat", "partition", PartitionKindName(kind));
  }

  void Heal() {
    if (partitioned_) {
      env_.partitioner().Heal(partition_);
      partitioned_ = false;
      sim::Simulator& simulator = env_.simulator();
      simulator.Trace().Append(simulator.Now(), "neat", "heal");
    }
  }

  using State = PartitionScriptState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 private:
  TestEnv& env_;
  const net::Group servers_;
};

// Samples ISystem::StateDigest between test events and turns the observed
// transitions into sd: coverage features. Also owns the incremental trace
// fold (neat/trace_scan.h): each Observe advances it over the records the
// event just appended, so a snapshot taken at an event boundary carries the
// fold's position — a forked case re-scans only its own suffix instead of
// the whole trace at Finish.
struct StateObserverState {
  uint64_t last_ = 0;
  std::vector<std::string> features_;
  TraceScan scan_;
  bool operator==(const StateObserverState&) const = default;
};

class StateObserver : private StateObserverState {
 public:
  StateObserver(ISystem& system, const sim::TraceLog& trace)
      : system_(system), trace_(trace) {
    last_ = system.StateDigest();
  }

  void Observe() {
    const uint64_t digest = system_.StateDigest();
    if (digest != last_) {
      features_.push_back(StateTransitionFeature(last_, digest));
      last_ = digest;
    }
    scan_.Advance(trace_);
  }

  // The run's full coverage: trace-derived features plus the observed
  // state transitions, sorted and deduplicated.
  std::vector<std::string> Finish() {
    scan_.Advance(trace_);
    std::vector<std::string> features = scan_.Features();
    features.insert(features.end(), features_.begin(), features_.end());
    std::sort(features.begin(), features.end());
    features.erase(std::unique(features.begin(), features.end()), features.end());
    return features;
  }

  // What Summarize(trace) would report — served from the fold.
  TraceReport Report() {
    scan_.Advance(trace_);
    return scan_.Report(trace_);
  }

  using State = StateObserverState;
  State CaptureState() const { return *this; }
  void RestoreState(const State& state) { static_cast<State&>(*this) = state; }

 private:
  ISystem& system_;
  const sim::TraceLog& trace_;
};

// --- the case-runner skeleton ---
//
// Runner<Driver> is every system's case runner: the constructor builds and
// boots the cluster, ApplyEvent applies one test event, and Finish runs the
// post-sequence phase; the fork executor snapshots between events. The
// skeleton owns what all systems share — the system, the partition script,
// the state observer, the driver's per-run Scalars (copyable, snapshotted)
// — and asks the driver for what differs: the cluster config (MakeConfig);
// the boot settle (the driver's constructor, which records boot-time
// constants; the observer samples its first digest right after) and the
// rest of boot (Boot); the nodes partitions cut (Universe); a partition
// event's cut around the driver's isolated node (Partition); the client-
// event mapping (Client); verification operations after the heal
// (FinalOps); and the history checkers (kCheckers). kSettleBeforeHeal and
// kObserveFinalOps keep each system's exact Finish sequence.

using Checker = std::vector<check::Violation> (*)(const check::History& history);

template <class Driver>
class Runner final : public CaseRunner {
 public:
  using Cluster = typename Driver::Cluster;

  Runner(const typename Driver::Options& options, uint64_t seed)
      : system_(Driver::MakeConfig(options, seed)),
        driver_(system_.cluster()),
        observer_(system_, system_.Env().simulator().Trace()),
        script_(system_.Env(), driver_.Universe(system_.cluster())) {
    driver_.Boot(system_.cluster());
  }

  TestEnv& Env() override { return system_.Env(); }
  ISystem* System() override { return &system_; }

  void ApplyEvent(const TestEvent& event) override {
    Cluster& cluster = system_.cluster();
    switch (event.kind) {
      case EventKind::kPartition:
        driver_.Partition(cluster, event, script_, scalars_);
        break;
      case EventKind::kHeal:
        script_.Heal();
        break;
      default:
        driver_.Client(cluster, event, script_, scalars_);
        break;
    }
    observer_.Observe();
  }

  ExecutionResult Finish(const TestCase& test_case) override {
    Cluster& cluster = system_.cluster();
    ExecutionResult result;
    result.trace = FormatTestCase(test_case);
    if (Driver::kSettleBeforeHeal && script_.partitioned()) {
      // The studied partitions last minutes to hours; let the system run its
      // failure-handling (elections, step-downs) before the heal so latent
      // damage — e.g. asynchronously replicated writes stranded on a deposed
      // leader — manifests.
      cluster.Settle(sim::Milliseconds(800));
    }
    script_.Heal();
    cluster.Settle(sim::Seconds(1));
    observer_.Observe();
    driver_.FinalOps(cluster);
    if (Driver::kObserveFinalOps) {
      observer_.Observe();
    }

    auto add = [&result](std::vector<check::Violation> violations) {
      result.violations.insert(result.violations.end(), violations.begin(), violations.end());
    };
    for (const Checker checker : Driver::kCheckers) {
      add(checker(cluster.history()));
    }
    const sim::TraceLog& trace = system_.Env().simulator().Trace();
    if (trace.causal()) {
      add(check::CheckCascades(trace));
    }
    result.found_failure = !result.violations.empty();
    result.trace_report = observer_.Report();
    result.coverage = observer_.Finish();
    return result;
  }

  std::unique_ptr<SystemState> Snapshot() const override {
    auto state = std::make_unique<State>();
    state->cluster = system_.cluster().CaptureState();
    state->script = script_.CaptureState();
    state->observer = observer_.CaptureState();
    state->scalars = scalars_;
    return state;
  }

  void Restore(const SystemState& state) override {
    const auto* saved = dynamic_cast<const State*>(&state);
    assert(saved != nullptr && "a runner restores only its own snapshots");
    system_.cluster().RestoreState(saved->cluster);
    script_.RestoreState(saved->script);
    observer_.RestoreState(saved->observer);
    scalars_ = saved->scalars;
  }

 private:
  struct State final : SystemState {
    typename Cluster::State cluster;
    PartitionScript::State script;
    StateObserver::State observer;
    typename Driver::Scalars scalars;
  };

  typename Driver::System system_;
  const Driver driver_;
  StateObserver observer_;
  PartitionScript script_;
  typename Driver::Scalars scalars_;
};

template <class Driver>
RunnerFactory Factory(const typename Driver::Options& options) {
  return [options](uint64_t seed) -> std::unique_ptr<CaseRunner> {
    return std::make_unique<Runner<Driver>>(options, seed);
  };
}

// --- drivers ---

constexpr int kMinorityClient = 0;
constexpr int kMajorityClient = 1;
constexpr char kKey[] = "k";  // the one key the KV systems' events touch

// Maps a KV client event (write/read/delete) to the cluster's Put/Get/
// Delete; `client_for` picks the client, and is called only for those
// events because picking may sleep for an election.
template <class Cluster, class ClientFor>
void ApplyKvEvent(Cluster& cluster, const TestEvent& event, int& value_counter,
                  const ClientFor& client_for) {
  switch (event.kind) {
    case EventKind::kWrite:
      cluster.Put(client_for(), kKey, "v" + std::to_string(++value_counter));
      break;
    case EventKind::kRead:
      cluster.Get(client_for(), kKey);
      break;
    case EventKind::kDelete:
      cluster.Delete(client_for(), kKey);
      break;
    default:
      break;  // no lock surface; the locksvc driver covers those
  }
}

class PbkvDriver {
 public:
  using Cluster = pbkv::Cluster;
  using System = PbkvSystem;
  using Options = pbkv::Options;
  struct Scalars {
    bool slept_for_election = false;
    int value_counter = 0;
  };
  static constexpr bool kSettleBeforeHeal = true;
  static constexpr bool kObserveFinalOps = false;
  static constexpr Checker kCheckers[] = {check::CheckDirtyReads, check::CheckDataLoss,
                                          check::CheckReappearance, check::CheckStaleReads};

  static Cluster::Config MakeConfig(const Options& options, uint64_t seed) {
    Cluster::Config config;
    config.options = options;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  explicit PbkvDriver(Cluster& cluster) { cluster.Settle(sim::Milliseconds(500)); }

  void Boot(Cluster& cluster) const {
    cluster.client(kMinorityClient).set_allow_redirect(false);
    cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
  }

  net::Group Universe(const Cluster& cluster) const { return cluster.server_ids(); }

  void Partition(Cluster& cluster, const TestEvent& event, PartitionScript& script,
                 Scalars& scalars) const {
    script.Partition(event.partition, PickIsolated(cluster, event.target));
    scalars.slept_for_election = false;
  }

  void Client(Cluster& cluster, const TestEvent& event, const PartitionScript& script,
              Scalars& scalars) const {
    ApplyKvEvent(cluster, event, scalars.value_counter,
                 [&] { return ClientFor(cluster, event.side, script, scalars); });
  }

  void FinalOps(Cluster& cluster) const {
    cluster.client(kMajorityClient).set_contact(cluster.server_ids().front());
    cluster.client(kMajorityClient).set_allow_redirect(true);
    cluster.Get(kMajorityClient, kKey, /*final_read=*/true);
  }

 private:
  // Picks the node the partition isolates.
  static net::NodeId PickIsolated(const Cluster& cluster, IsolationTarget target) {
    if (target == IsolationTarget::kLeader) {
      const net::NodeId primary = cluster.FindPrimary();
      if (primary != net::kInvalidNode) {
        return primary;
      }
    }
    // "Any replica": a fixed non-initial-leader replica keeps runs comparable.
    return cluster.server_ids().back();
  }

  static int ClientFor(Cluster& cluster, Side side, const PartitionScript& script,
                       Scalars& scalars) {
    if (side == Side::kMinority && script.partitioned()) {
      // Section 5.2: events on the old leader's side must be invoked right
      // after the partition, before it steps down — no sleep.
      cluster.client(kMinorityClient).set_contact(script.isolated());
      return kMinorityClient;
    }
    if (script.partitioned() && !scalars.slept_for_election) {
      // ...while on the majority side, the test sleeps until a new leader
      // is elected (the NEAT tests' SLEEP_LEADER_ELECTION_PERIOD).
      cluster.Settle(sim::Milliseconds(600));
      scalars.slept_for_election = true;
    }
    net::NodeId contact = cluster.server_ids().front();
    if (script.partitioned()) {
      for (net::NodeId node : cluster.server_ids()) {
        if (node != script.isolated()) {
          contact = node;
          break;
        }
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }
};

class LocksvcDriver {
 public:
  using Cluster = locksvc::Cluster;
  using System = LocksvcSystem;
  using Options = locksvc::Options;
  struct Scalars {};
  static constexpr bool kSettleBeforeHeal = false;
  static constexpr bool kObserveFinalOps = false;
  static constexpr Checker kCheckers[] = {check::CheckBrokenLocks};

  static Cluster::Config MakeConfig(const Options& options, uint64_t seed) {
    Cluster::Config config;
    config.options = options;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  explicit LocksvcDriver(Cluster& cluster) : isolated_(cluster.server_ids().back()) {
    cluster.Settle(sim::Milliseconds(300));
  }

  void Boot(Cluster& cluster) const {
    cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
  }

  net::Group Universe(const Cluster& cluster) const { return cluster.server_ids(); }

  void Partition(Cluster& cluster, const TestEvent& event, PartitionScript& script,
                 Scalars& /*scalars*/) const {
    script.Partition(event.partition, isolated_);
    // Let the flawed views shrink, as the Ignite failures require.
    cluster.Settle(sim::Milliseconds(400));
  }

  void Client(Cluster& cluster, const TestEvent& event, const PartitionScript& script,
              Scalars& /*scalars*/) const {
    switch (event.kind) {
      case EventKind::kLock:
        cluster.Lock(ClientFor(cluster, event.side, script), kLock);
        break;
      case EventKind::kUnlock:
        cluster.Unlock(ClientFor(cluster, event.side, script), kLock);
        break;
      default:
        break;  // the lock service has no KV surface
    }
  }

  void FinalOps(Cluster& /*cluster*/) const {}

 private:
  static constexpr char kLock[] = "L";

  int ClientFor(Cluster& cluster, Side side, const PartitionScript& script) const {
    if (side == Side::kMinority && script.partitioned()) {
      cluster.client(kMinorityClient).set_contact(isolated_);
      return kMinorityClient;
    }
    net::NodeId contact = cluster.server_ids().front();
    if (script.partitioned() && contact == isolated_) {
      contact = cluster.server_ids()[1];
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  // Every partition isolates the same replica, so forks never change the
  // victim.
  const net::NodeId isolated_;
};

// The linearizability checker as a history checker: one violation when the
// history has no linearization.
std::vector<check::Violation> CheckLinearizability(const check::History& history) {
  const check::LinearizabilityResult linearizable = check::CheckLinearizable(history);
  if (linearizable.linearizable) {
    return {};
  }
  check::Violation violation;
  violation.impact = "non-linearizable";
  violation.description = linearizable.reason;
  return {std::move(violation)};
}

class RaftKvDriver {
 public:
  using Cluster = raftkv::Cluster;
  using System = RaftKvSystem;
  using Options = raftkv::Options;
  struct Scalars {
    // The nodes cut off by the current partition; minority-side client
    // events contact its first member.
    net::Group minority_side;
    bool slept_for_election = false;
    int value_counter = 0;
  };
  static constexpr bool kSettleBeforeHeal = true;
  static constexpr bool kObserveFinalOps = false;
  // raftkv promises strong consistency, so stale reads count.
  static constexpr Checker kCheckers[] = {check::CheckDirtyReads, check::CheckDataLoss,
                                          check::CheckReappearance, check::CheckStaleReads,
                                          CheckLinearizability};

  static Cluster::Config MakeConfig(const Options& options, uint64_t seed) {
    Cluster::Config config;
    config.options = options;
    config.num_servers = 5;  // the #5289 topology needs an orphaned pair
    config.num_clients = 3;
    config.seed = seed;
    return config;
  }

  explicit RaftKvDriver(Cluster& cluster) : initial_leader_(cluster.WaitForLeader()) {}

  void Boot(Cluster& cluster) const {
    cluster.client(kMinorityClient).set_allow_redirect(false);
    cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(800));
    cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(800));
    cluster.client(kAdminClient).set_allow_redirect(false);
    cluster.client(kAdminClient).set_op_timeout(sim::Milliseconds(800));
  }

  net::Group Universe(const Cluster& cluster) const { return cluster.server_ids(); }

  void Partition(Cluster& cluster, const TestEvent& event, PartitionScript& script,
                 Scalars& scalars) const {
    const net::Group servers = cluster.server_ids();
    net::NodeId leader = initial_leader_;
    const std::vector<net::NodeId> leaders = cluster.Leaders();
    if (!leaders.empty()) {
      leader = leaders.front();
    }
    if (event.partition == PartitionKind::kPartial) {
      // RethinkDB #5289: orphan two replicas behind the cut, keep the
      // leader plus one replica, leave one bridge replica reaching both
      // sides — then the admin removes everything beyond the leader pair
      // while the partition is up. With delete_log_on_removal, the bridge
      // wipes its log and votes the orphaned side a second, amnesiac
      // majority.
      const net::Group others = net::Partitioner::Rest(servers, {leader});
      const net::Group keep = {leader, others[1]};
      const net::Group orphaned = {others[2], others[3]};
      script.PartitionGroups(PartitionKind::kPartial, orphaned, keep);
      scalars.minority_side = orphaned;
      cluster.Settle(sim::Milliseconds(100));
      cluster.client(kAdminClient).set_contact(leader);
      cluster.ChangeMembers(kAdminClient, keep);
      cluster.Settle(sim::Seconds(1));
    } else {
      const net::NodeId isolated =
          event.target == IsolationTarget::kLeader ? leader : servers.back();
      script.Partition(event.partition, isolated);
      scalars.minority_side = {isolated};
    }
    scalars.slept_for_election = false;
  }

  void Client(Cluster& cluster, const TestEvent& event, const PartitionScript& script,
              Scalars& scalars) const {
    ApplyKvEvent(cluster, event, scalars.value_counter,
                 [&] { return ClientFor(cluster, event.side, script, scalars); });
  }

  void FinalOps(Cluster& cluster) const {
    cluster.client(kMajorityClient).set_contact(cluster.server_ids().front());
    cluster.Get(kMajorityClient, kKey, /*final_read=*/true);
  }

 private:
  static constexpr int kAdminClient = 2;

  int ClientFor(Cluster& cluster, Side side, const PartitionScript& script,
                Scalars& scalars) const {
    if (side == Side::kMinority && script.partitioned() && !scalars.minority_side.empty()) {
      cluster.client(kMinorityClient).set_contact(scalars.minority_side.front());
      return kMinorityClient;
    }
    if (script.partitioned() && !scalars.slept_for_election) {
      cluster.Settle(sim::Milliseconds(700));
      scalars.slept_for_election = true;
    }
    net::NodeId contact = initial_leader_;
    const std::vector<net::NodeId> leaders = cluster.Leaders();
    for (const net::NodeId leader : leaders) {
      if (std::find(scalars.minority_side.begin(), scalars.minority_side.end(), leader) ==
          scalars.minority_side.end()) {
        contact = leader;
        break;
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }

  const net::NodeId initial_leader_;  // elected during boot
};

class MqueueDriver {
 public:
  using Cluster = mqueue::Cluster;
  using System = MqueueSystem;
  using Options = mqueue::Options;
  struct Scalars {
    bool slept_for_takeover = false;
    int value_counter = 0;
  };
  static constexpr bool kSettleBeforeHeal = true;
  static constexpr bool kObserveFinalOps = true;
  static constexpr Checker kCheckers[] = {check::CheckDoubleDequeue, check::CheckLostMessages};

  static Cluster::Config MakeConfig(const Options& options, uint64_t seed) {
    Cluster::Config config;
    config.options = options;
    config.num_clients = 2;
    config.seed = seed;
    return config;
  }

  explicit MqueueDriver(Cluster& cluster) {
    cluster.Settle(sim::Milliseconds(500));  // first master election via the registry
  }

  void Boot(Cluster& cluster) const {
    cluster.client(kMinorityClient).set_op_timeout(sim::Milliseconds(500));
    cluster.client(kMajorityClient).set_op_timeout(sim::Milliseconds(500));
    // One fully replicated message before any fault: partition-first pruning
    // leaves no room for a pre-partition enqueue inside the case, but the
    // double-dequeue flaw needs a message both sides of the cut believe they
    // hold.
    cluster.Send(kMajorityClient, kQueue, "m0");
    cluster.Settle(sim::Milliseconds(300));
  }

  // The partition universe includes the coordination service, which always
  // rides the majority side: an isolated master's session expires there
  // and the survivors elect a replacement (Figure 6).
  net::Group Universe(const Cluster& cluster) const {
    net::Group universe = cluster.broker_ids();
    universe.push_back(cluster.zk_id());
    return universe;
  }

  void Partition(Cluster& cluster, const TestEvent& event, PartitionScript& script,
                 Scalars& scalars) const {
    net::NodeId isolated = cluster.MasterPerRegistry();
    if (event.target == IsolationTarget::kAnyReplica || isolated == net::kInvalidNode) {
      // A non-master broker (the last one that is not master).
      for (const net::NodeId broker : cluster.broker_ids()) {
        if (broker != cluster.MasterPerRegistry()) {
          isolated = broker;
        }
      }
    }
    script.Partition(event.partition, isolated);
    scalars.slept_for_takeover = false;
  }

  void Client(Cluster& cluster, const TestEvent& event, const PartitionScript& script,
              Scalars& scalars) const {
    switch (event.kind) {
      case EventKind::kWrite:
        cluster.Send(ClientFor(cluster, event.side, script, scalars), kQueue,
                     "m" + std::to_string(++scalars.value_counter));
        break;
      case EventKind::kRead:
        cluster.Receive(ClientFor(cluster, event.side, script, scalars), kQueue);
        break;
      default:
        break;  // no KV/lock surface
    }
  }

  // Drains the healed cluster's queue so the lost-message checker sees the
  // final state; drained values also complete the double-dequeue pattern.
  void FinalOps(Cluster& cluster) const {
    net::NodeId master = cluster.MasterPerRegistry();
    if (master == net::kInvalidNode) {
      master = cluster.broker_ids().front();
    }
    cluster.client(kMajorityClient).set_contact(master);
    for (int i = 0; i < 8; ++i) {
      const check::Operation drained =
          cluster.Receive(kMajorityClient, kQueue, /*final_drain=*/true);
      if (drained.status != check::OpStatus::kOk || drained.value.empty()) {
        break;
      }
    }
  }

 private:
  static constexpr char kQueue[] = "q";

  static int ClientFor(Cluster& cluster, Side side, const PartitionScript& script,
                       Scalars& scalars) {
    if (side == Side::kMinority && script.partitioned()) {
      cluster.client(kMinorityClient).set_contact(script.isolated());
      return kMinorityClient;
    }
    if (script.partitioned() && !scalars.slept_for_takeover) {
      // Wait out the session timeout so the surviving brokers take over.
      cluster.Settle(sim::Milliseconds(800));
      scalars.slept_for_takeover = true;
    }
    net::NodeId contact = cluster.MasterPerRegistry();
    if (contact == net::kInvalidNode || contact == script.isolated()) {
      for (const net::NodeId broker : cluster.broker_ids()) {
        if (broker != script.isolated()) {
          contact = broker;
          break;
        }
      }
    }
    cluster.client(kMajorityClient).set_contact(contact);
    return kMajorityClient;
  }
};

// --- the system registry ---

template <class Driver>
struct Preset {
  const char* name;
  typename Driver::Options (*options)();
};

// One registry row: the presets by name, the correct options, and runner
// factories for the system's driver.
template <class Driver>
SystemEntry Row(const char* name, std::vector<Preset<Driver>> presets,
                typename Driver::Options (*correct)()) {
  SystemEntry row{name, {}, typeid(typename Driver::System), nullptr};
  for (const Preset<Driver>& preset : presets) {
    row.presets.push_back(preset.name);
  }
  row.factory = [presets, correct](Variant variant, const std::string& preset, bool causal) {
    const Preset<Driver>* chosen = &presets.front();
    for (const Preset<Driver>& candidate : presets) {
      if (preset == candidate.name) {
        chosen = &candidate;
      }
    }
    typename Driver::Options options =
        variant == Variant::kCorrect ? correct() : chosen->options();
    options.causal_trace = causal;
    return Factory<Driver>(options);
  };
  return row;
}

}  // namespace

const std::vector<SystemEntry>& Systems() {
  static const std::vector<SystemEntry> rows = {
      Row<PbkvDriver>("pbkv",
                      {{"voltdb", pbkv::VoltDbOptions},
                       {"elasticsearch", pbkv::ElasticsearchOptions},
                       {"mongo-arbiter", pbkv::MongoArbiterOptions},
                       {"mongo-conflicting-criteria", pbkv::MongoConflictingCriteriaOptions},
                       {"async-replication", pbkv::AsyncReplicationOptions},
                       {"coordinator-routing", pbkv::CoordinatorRoutingOptions}},
                      pbkv::CorrectOptions),
      Row<RaftKvDriver>("raftkv", {{"rethinkdb", raftkv::RethinkDbOptions}},
                        raftkv::CorrectOptions),
      Row<LocksvcDriver>("locksvc", {{"ignite", locksvc::IgniteOptions}},
                         locksvc::CorrectOptions),
      Row<MqueueDriver>("mqueue", {{"activemq", mqueue::ActiveMqOptions}},
                        mqueue::CorrectOptions),
  };
  return rows;
}

const SystemEntry* FindSystem(const std::string& name) {
  for (const SystemEntry& row : Systems()) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

std::string SystemName(const ISystem& system) {
  for (const SystemEntry& row : Systems()) {
    if (row.system == typeid(system)) {
      return row.name;
    }
  }
  return "";
}

RunnerFactory PbkvRunnerFactory(const pbkv::Options& options) {
  return Factory<PbkvDriver>(options);
}

RunnerFactory LocksvcRunnerFactory(const locksvc::Options& options) {
  return Factory<LocksvcDriver>(options);
}

RunnerFactory RaftKvRunnerFactory(const raftkv::Options& options) {
  return Factory<RaftKvDriver>(options);
}

RunnerFactory MqueueRunnerFactory(const mqueue::Options& options) {
  return Factory<MqueueDriver>(options);
}

}  // namespace neat
