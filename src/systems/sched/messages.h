// Wire messages of the scheduler system.

#ifndef SYSTEMS_SCHED_MESSAGES_H_
#define SYSTEMS_SCHED_MESSAGES_H_

#include <cstdint>
#include <string>

#include "net/message.h"

namespace sched {

// --- client <-> ResourceManager / AppMaster ---

struct SubmitTask final : net::MessageOf<SubmitTask> {
  static constexpr net::MessageType kType{"sched.SubmitTask"};
  uint64_t request_id = 0;
  std::string task_id;
};

struct SubmitAck final : net::MessageOf<SubmitAck> {
  static constexpr net::MessageType kType{"sched.SubmitAck"};
  uint64_t request_id = 0;
  bool ok = false;
};

// Sent by an AppMaster whose commit went through.
struct ResultNotification final : net::MessageOf<ResultNotification> {
  static constexpr net::MessageType kType{"sched.ResultNotification"};
  std::string task_id;
  int attempt = 0;
};

// --- ResourceManager <-> AppMaster host ---

struct StartAppMaster final : net::MessageOf<StartAppMaster> {
  static constexpr net::MessageType kType{"sched.StartAppMaster"};
  std::string task_id;
  int attempt = 0;
  net::NodeId client = net::kInvalidNode;
};

struct AmHeartbeat final : net::MessageOf<AmHeartbeat> {
  static constexpr net::MessageType kType{"sched.AmHeartbeat"};
  std::string task_id;
  int attempt = 0;
};

struct TaskDone final : net::MessageOf<TaskDone> {
  static constexpr net::MessageType kType{"sched.TaskDone"};
  std::string task_id;
  int attempt = 0;
};

// --- AppMaster <-> workers ---

struct RunContainer final : net::MessageOf<RunContainer> {
  static constexpr net::MessageType kType{"sched.RunContainer"};
  std::string task_id;
  int attempt = 0;
  int part = 0;
};

struct ContainerDone final : net::MessageOf<ContainerDone> {
  static constexpr net::MessageType kType{"sched.ContainerDone"};
  std::string task_id;
  int attempt = 0;
  int part = 0;
};

// --- output store ---

struct RegisterAttempt final : net::MessageOf<RegisterAttempt> {
  static constexpr net::MessageType kType{"sched.RegisterAttempt"};
  std::string task_id;
  int attempt = 0;
};

struct RecordExecution final : net::MessageOf<RecordExecution> {
  static constexpr net::MessageType kType{"sched.RecordExecution"};
  std::string task_id;
  int attempt = 0;
  int part = 0;
};

struct CommitResult final : net::MessageOf<CommitResult> {
  static constexpr net::MessageType kType{"sched.CommitResult"};
  std::string task_id;
  int attempt = 0;
};

struct CommitAck final : net::MessageOf<CommitAck> {
  static constexpr net::MessageType kType{"sched.CommitAck"};
  std::string task_id;
  int attempt = 0;
  bool accepted = false;
};

}  // namespace sched

#endif  // SYSTEMS_SCHED_MESSAGES_H_
