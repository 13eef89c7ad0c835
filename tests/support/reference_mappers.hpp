/// \file reference_mappers.hpp
/// \brief The full-rescan batch mappers the tests and benches hold the
/// production mappers against.
///
/// Each reference is the original, obviously-correct form of a built-in
/// batch mapper: every round it rescans every pending task against every
/// machine. The production mappers (sched/batch.cpp, sched/elare.cpp) are
/// incremental and must emit the identical assignment sequence; the
/// differential fuzz test, the run-digest test and bench_sched_hotpath check
/// that against these oracles. They are test support only: no production
/// target links them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/elare.hpp"
#include "sched/policy.hpp"

namespace e2c::test {

/// The policies that have a reference mapper: {"MM", "MMU", "MSD", "ELARE",
/// "FELARE"}.
[[nodiscard]] std::vector<std::string> reference_policy_names();

/// The reference mapper of built-in batch policy \p name (one of
/// reference_policy_names(), spelled exactly), with the registry's default
/// parameters. Throws e2c::UnknownPolicyError for any other name.
[[nodiscard]] std::unique_ptr<sched::Policy> make_reference_policy(const std::string& name);

/// The reference ELARE mapper scoring with \p scores: its energy_weight()
/// and its fairness_factor() hook, so a subclass that overrides the hook
/// gets its own oracle. \p scores is only read, never scheduled.
[[nodiscard]] std::unique_ptr<sched::Policy> make_reference_elare(
    std::unique_ptr<const sched::ElarePolicy> scores);

}  // namespace e2c::test
