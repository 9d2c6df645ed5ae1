// How a ShardedSim (sim/sharded.hpp) steps its shards. The sequential
// merger is the only stepper; the enum survives solely because the
// standalone benchmark program assigns ControllerConfig::exec.
#pragma once

#include <cstdint>

namespace tsu::sim {

enum class ExecMode : std::uint8_t { kSequential = 0 };

}  // namespace tsu::sim
