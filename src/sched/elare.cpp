#include "sched/elare.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace e2c::sched {

ElarePolicy::ElarePolicy(double energy_weight) : energy_weight_(energy_weight) {
  require_input(energy_weight >= 0.0 && energy_weight <= 1.0,
                "ELARE: energy_weight must be in [0, 1]");
}

double ElarePolicy::fairness_factor(const SchedulingContext&, hetero::TaskTypeId) const {
  return 1.0;
}

/// Index mapper, decision-equivalent to the full-rescan reference the tests
/// keep as their oracle (tests/support/reference_mappers.cpp), which scans
/// every pending task against every machine with a slot twice per round
/// (normalization bases, then the pair scan).
///
/// Both the score and the feasibility bound of a (task, machine) pair
/// depend on the task only through its type: the projected completion C and
/// the energy are functions of (type, machine), and the fairness factor is
/// per type. Each round therefore works on (live type x machine-with-slot)
/// tables, O(types x machines), where a type is live while any uncommitted
/// task of it remains (infeasible tasks keep normalizing, exactly like the
/// reference's still-pending ones). max is exact over doubles, so the
/// reduced value set gives the bit-identical normalization bases.
///
/// The reference commits the first minimum in (queue position, machine)
/// order over feasible pairs. With S* the lowest score over pairs (t, j)
/// that at least one uncommitted task of type t can meet (deadline >=
/// C[t][j]), that is: the earliest task, by sequence number, feasible for
/// some pair of its type scoring exactly S*, on the lowest such machine.
/// Per S*-pair the earliest feasible task is the first one its type's
/// arrival-ordered list yields after skipping tasks infeasible for that
/// pair (and ones already committed), so a pick walks only past those. A
/// pair whose walk finds nobody is exhausted for the rest of the
/// invocation: C only grows and the uncommitted set only shrinks.
///
/// Scores are fixed between commits. Each commit collects its P candidate
/// pairs (live type, machine with a slot, not exhausted) and their lowest
/// score, and probes that score's group in one pass: O(P) when it yields a
/// task, the usual case on deep queues. Only when every pair in it is
/// exhausted (large catalogs whose queued tasks are mostly infeasible) does
/// the commit sort the candidates and walk the higher equal-score groups
/// upwards until one yields: O(P log P), not O(P) per exhausted level.
void ElarePolicy::schedule_into(SchedulingContext& context,
                                std::vector<Assignment>& assignments) {
  assignments.clear();
  const TaskIndexQueue& queue = context.batch_index();
  const auto& machines = context.machines();
  const std::size_t machine_count = machines.size();
  const std::size_t type_count = queue.type_count();
  ElareMapperScratch& s = scratch_;

  // Tables are indexed by type id but only the queued types' entries are
  // written and read, so a round costs O(queued types x machines) however
  // large the EET is.
  const std::span<const hetero::TaskTypeId> types = queue.live_types();
  s.live.resize(type_count);
  s.factor.resize(type_count);
  s.pair_completion.resize(type_count * machine_count);
  s.pair_score.resize(type_count * machine_count);
  s.exhausted.resize(type_count * machine_count);
  for (const hetero::TaskTypeId t : types) {
    s.live[t] = queue.count(t);
    s.factor[t] = fairness_factor(context, t);
    std::fill_n(s.exhausted.begin() + static_cast<std::ptrdiff_t>(t * machine_count),
                machine_count, std::uint8_t{0});
  }
  s.committed.clear();

  const auto committed = [&](std::uint32_t seq) {
    return std::binary_search(s.committed.begin(), s.committed.end(), seq);
  };
  // Earliest uncommitted task of type t that meets \p completion.
  const auto first_feasible = [&](std::size_t t, core::SimTime completion) {
    std::int32_t node = queue.head(t);
    while (node != TaskIndexQueue::kNil &&
           (completion > queue.def(node).deadline || committed(queue.seq(node)))) {
      node = queue.next(node);
    }
    return node;
  };

  std::size_t pending = queue.size();
  while (pending > 0) {
    // Normalization bases over (live type, machine-with-slot) pairs; the
    // same value set the reference's pending x machines rescan maximizes.
    double max_energy = 0.0;
    core::SimTime max_completion = 0.0;
    bool any_slot = false;
    for (std::size_t j = 0; j < machine_count; ++j) {
      const MachineView& m = machines[j];
      if (m.free_slots == 0) continue;
      any_slot = true;
      for (const hetero::TaskTypeId t : types) {
        if (s.live[t] == 0) continue;
        const double exec = context.eet().eet_unchecked(t, m.type);
        max_energy = std::max(max_energy, exec * m.busy_watts);
        max_completion = std::max(max_completion, m.ready_time + exec);
      }
    }
    if (!any_slot || max_energy <= 0.0 || max_completion <= 0.0) break;

    s.candidates.clear();
    double lowest = 0.0;
    for (const hetero::TaskTypeId t : types) {
      if (s.live[t] == 0) continue;
      for (std::size_t j = 0; j < machine_count; ++j) {
        const MachineView& m = machines[j];
        if (m.free_slots == 0) continue;
        const std::size_t pair = t * machine_count + j;
        const double exec = context.eet().eet_unchecked(t, m.type);
        const core::SimTime completion = m.ready_time + exec;
        // Same expression shape as the reference's score (divisions block
        // FMA contraction), evaluated on identical operands.
        const double score =
            s.factor[t] * (energy_weight_ * (exec * m.busy_watts) / max_energy +
                           (1.0 - energy_weight_) * completion / max_completion);
        s.pair_completion[pair] = completion;
        s.pair_score[pair] = score;
        if (s.exhausted[pair] != 0) continue;
        if (s.candidates.empty() || score < lowest) lowest = score;
        s.candidates.push_back({score, pair});
      }
    }

    // The earliest task feasible for any pair of the lowest-scoring group
    // that has one; a pair whose walk finds nobody is marked exhausted.
    std::int32_t pick = TaskIndexQueue::kNil;
    std::size_t pick_type = 0;
    const auto probe = [&](std::size_t pair) {
      const std::size_t t = pair / machine_count;
      const std::int32_t node = first_feasible(t, s.pair_completion[pair]);
      if (node == TaskIndexQueue::kNil) {
        s.exhausted[pair] = 1;
      } else if (pick == TaskIndexQueue::kNil || queue.seq(node) < queue.seq(pick)) {
        pick = node;
        pick_type = t;
      }
    };
    double best_score = lowest;
    for (const ScoredPair& c : s.candidates) {
      if (c.score == best_score) probe(c.pair);
    }
    if (pick == TaskIndexQueue::kNil) {
      // Every pair at the lowest score is exhausted: sort the candidates
      // once and walk the higher equal-score groups upwards (the lowest
      // group comes first and is skipped).
      std::sort(s.candidates.begin(), s.candidates.end(),
                [](const ScoredPair& a, const ScoredPair& b) { return a.score < b.score; });
      for (std::size_t g = 0; g < s.candidates.size() && pick == TaskIndexQueue::kNil;) {
        best_score = s.candidates[g].score;
        for (; g < s.candidates.size() && s.candidates[g].score == best_score; ++g) {
          if (s.exhausted[s.candidates[g].pair] == 0) probe(s.candidates[g].pair);
        }
      }
    }
    if (pick == TaskIndexQueue::kNil) break;  // every remaining task is infeasible

    const workload::TaskDef& task = queue.def(pick);
    std::size_t best_machine = 0;
    for (std::size_t j = 0; j < machine_count; ++j) {
      const std::size_t pair = pick_type * machine_count + j;
      if (machines[j].free_slots != 0 && s.pair_score[pair] == best_score &&
          s.pair_completion[pair] <= task.deadline) {
        best_machine = j;
        break;
      }
    }
    assignments.push_back(Assignment{task.id, machines[best_machine].id});
    context.commit(task, best_machine);
    s.committed.insert(
        std::upper_bound(s.committed.begin(), s.committed.end(), queue.seq(pick)),
        queue.seq(pick));
    --s.live[pick_type];
    --pending;
  }
}

double FelarePolicy::fairness_factor(const SchedulingContext& context,
                                     hetero::TaskTypeId type) const {
  // A type completing only 40% on time gets factor ~0.4+eps: its score
  // shrinks, so its tasks win ties against well-served types. The floor
  // keeps starved types from monopolizing the mapper outright.
  constexpr double kFloor = 0.2;
  const double rate = context.type_ontime_rate(type);
  return std::max(kFloor, rate);
}

}  // namespace e2c::sched
