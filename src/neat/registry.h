// The system registry: one row per runner-backed model system. The
// scenario parser validates `system`/`preset` clauses against it, the
// scenario executor builds its runners from it, and ISystem::Name() reads
// its key from it. Adding a system takes one driver and one row, both in
// neat/adapters.cc.

#ifndef NEAT_REGISTRY_H_
#define NEAT_REGISTRY_H_

#include <functional>
#include <string>
#include <typeindex>
#include <vector>

#include "neat/fork.h"
#include "neat/system.h"

namespace neat {

// Which configuration of the system under test a run uses. kFlawed maps to
// a preset that reproduces a studied failure; kCorrect maps to the
// system's all-safety-knobs-on options.
enum class Variant { kFlawed, kCorrect };

struct SystemEntry {
  std::string name;                  // the key; ISystem::Name() of `system`
  std::vector<std::string> presets;  // the flawed presets; the first is the default
  std::type_index system;            // the ISystem adapter its runners drive
  // The runner factory under the variant's options: the named preset (an
  // empty name selects the default) for kFlawed, the correct options for
  // kCorrect, with causal tracing on or off.
  std::function<RunnerFactory(Variant variant, const std::string& preset, bool causal)> factory;
};

// Every row, in registration order.
const std::vector<SystemEntry>& Systems();

// The row keyed `name`, or null.
const SystemEntry* FindSystem(const std::string& name);

// The registry key of the row whose runners drive `system`'s type.
std::string SystemName(const ISystem& system);

}  // namespace neat

#endif  // NEAT_REGISTRY_H_
