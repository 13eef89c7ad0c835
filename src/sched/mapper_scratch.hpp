/// \file mapper_scratch.hpp
/// \brief Per-policy scratch state for the incremental batch mappers.
///
/// The fast mappers (DESIGN.md §8) keep per-type and per-pair tables across
/// the rounds of one schedule() invocation. The tables span the whole task
/// catalog, but an invocation resets and reads only the entries of the
/// types its queue holds, so its cost does not grow with the catalog. The
/// backing vectors live on the policy instance so steady-state invocations
/// reuse their capacity instead of re-allocating every scheduler round
/// (policies are per-simulation and single-threaded, like the simulation
/// itself).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hetero/types.hpp"

namespace e2c::sched {

/// Lifecycle of a batch-queue entry within one schedule() invocation.
/// Order-preserving skip marks replace mid-vector erases: the scan walks
/// the arrival-ordered queue and skips resolved entries, so the FCFS
/// tie-break (earlier arrival wins on equal keys) is preserved bit-for-bit.
enum class MapSlot : std::uint8_t {
  kActive = 0,    ///< still competing for a machine
  kCommitted = 1, ///< mapped this invocation
  kDeferred = 2,  ///< infeasible everywhere; monotone within an invocation
                  ///< (ready times only grow, slots only shrink), so the
                  ///< mark is permanent until the next invocation
};

/// Scratch for the MM/MMU/MSD family: the best (machine, completion) pair
/// is a function of the task *type* alone, so the cache is per type.
struct BatchMapperScratch {
  std::vector<MapSlot> state;                 ///< per batch-queue entry
  std::vector<std::size_t> type_machine;      ///< cached argmin machine, or sentinels
  std::vector<double> type_completion;        ///< completion on the cached machine
  std::vector<hetero::TaskTypeId> live_types; ///< queued types, each once
};

/// A (type, machine) pair, as type * machines + machine, with its score.
struct ScoredPair {
  double score;
  std::size_t pair;
};

/// Scratch for ELARE/FELARE: scores mix energy and completion against
/// per-round normalization maxima, but both depend on the task only through
/// its type, so every table is per (type, machine) pair and nothing is per
/// task (see ElarePolicy::schedule_into). The tables are indexed over the
/// whole catalog but written and read only for the queued types.
struct ElareMapperScratch {
  std::vector<std::size_t> live;        ///< uncommitted tasks per type
  std::vector<double> factor;           ///< fairness factor per type
  std::vector<double> pair_completion;  ///< [type * machines + machine]
  std::vector<double> pair_score;       ///< factored score of the pair
  std::vector<std::uint8_t> exhausted;  ///< 1: no uncommitted task can meet the pair
  std::vector<std::uint32_t> committed; ///< sequence numbers mapped so far, sorted
  std::vector<ScoredPair> candidates;   ///< this commit's unexhausted pairs; sorted
                                        ///< by score once the lowest is exhausted
};

}  // namespace e2c::sched
