#include "congest/stats.hpp"

#include <ostream>

namespace hypercover::congest {

std::ostream& operator<<(std::ostream& os, const RunStats& s) {
  return os << "rounds=" << s.rounds << (s.completed ? "" : " (INCOMPLETE)")
            << " messages=" << s.total_messages << " bits=" << s.total_bits
            << " max_msg_bits=" << s.max_message_bits << "/"
            << s.bandwidth_limit_bits
            << " violations=" << s.bandwidth_violations
            << " steps=" << s.agent_steps
            << " slots=" << s.slots_processed
            << " cycles/step="
            << (s.agent_steps > 0
                    ? static_cast<double>(s.step_cycles) /
                          static_cast<double>(s.agent_steps)
                    : 0.0)
            << " account_cycles=" << s.account_cycles;
}

}  // namespace hypercover::congest
