/// \file schedule.hpp
/// \brief By-value form of Policy::schedule_into for tests and benches.
///
/// The simulation lends one scratch vector to every scheduler round; a test
/// that drives a policy by hand usually wants the assignments of one round
/// as a fresh vector instead.
#pragma once

#include <vector>

#include "sched/policy.hpp"

namespace e2c::test {

/// Runs one scheduling round of \p policy over \p context and returns the
/// assignments it made, in order.
[[nodiscard]] inline std::vector<sched::Assignment> schedule(
    sched::Policy& policy, sched::SchedulingContext& context) {
  std::vector<sched::Assignment> out;
  policy.schedule_into(context, out);
  return out;
}

/// Overload for a policy built in place, e.g. schedule(MectPolicy{}, context).
[[nodiscard]] inline std::vector<sched::Assignment> schedule(
    sched::Policy&& policy, sched::SchedulingContext& context) {
  return schedule(policy, context);
}

}  // namespace e2c::test
