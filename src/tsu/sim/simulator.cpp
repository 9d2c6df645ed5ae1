#include "tsu/sim/simulator.hpp"

namespace tsu::sim {

std::size_t Simulator::run(SimTime until) {
  std::size_t processed = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    EventQueue::Fired fired = queue_.pop();
    *now_ = fired.time;
    executed_frontier_ = fired.time;
    fired.fn();
    ++processed;
  }
  if (*now_ < until && until != std::numeric_limits<SimTime>::max())
    *now_ = until;
  return processed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventQueue::Fired fired = queue_.pop();
  *now_ = fired.time;
  executed_frontier_ = fired.time;
  fired.fn();
  return true;
}

}  // namespace tsu::sim
