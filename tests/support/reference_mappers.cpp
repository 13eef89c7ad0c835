#include "support/reference_mappers.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace e2c::test {

namespace {

using sched::Assignment;
using sched::MachineView;
using sched::SchedulingContext;

/// Reference iterative batch mapper shared by MM/MMU/MSD. \p key computes
/// the selection score of a task given its best completion time; the task
/// with the smallest score is mapped each round (ties break to the earlier
/// arrival, which is the batch-queue order). Tasks whose best-case
/// completion already misses their deadline are deferred (left unmapped).
/// O(rounds x pending x machines).
template <typename Key>
void iterative_map_reference(SchedulingContext& context, Key key,
                             std::vector<Assignment>& assignments) {
  assignments.clear();
  std::vector<const workload::TaskDef*> pending = context.batch_queue();

  while (!pending.empty()) {
    std::size_t best_task = pending.size();
    std::size_t best_machine = context.machines().size();
    double best_key = 0.0;

    for (std::size_t i = 0; i < pending.size(); ++i) {
      const workload::TaskDef& task = *pending[i];
      const std::size_t machine_index = sched::argmin_completion(context, task);
      if (machine_index >= context.machines().size()) continue;  // no slot anywhere
      const core::SimTime completion =
          context.completion_time(task, context.machines()[machine_index]);
      if (completion > task.deadline) continue;  // infeasible: defer (prune)
      const double k = key(task, completion);
      if (best_task == pending.size() || k < best_key) {
        best_task = i;
        best_machine = machine_index;
        best_key = k;
      }
    }
    if (best_task == pending.size()) break;  // saturated or only infeasible left

    const workload::TaskDef& task = *pending[best_task];
    assignments.push_back(Assignment{task.id, context.machines()[best_machine].id});
    context.commit(task, best_machine);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best_task));
  }
}

template <typename Key>
class ReferenceIterativePolicy final : public sched::Policy {
 public:
  ReferenceIterativePolicy(std::string name, Key key) : name_(std::move(name)), key_(key) {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] sched::PolicyMode mode() const override { return sched::PolicyMode::kBatch; }
  void schedule_into(SchedulingContext& context, std::vector<Assignment>& out) override {
    iterative_map_reference(context, key_, out);
  }

 private:
  std::string name_;
  Key key_;
};

template <typename Key>
std::unique_ptr<sched::Policy> make_iterative(std::string name, Key key) {
  return std::make_unique<ReferenceIterativePolicy<Key>>(std::move(name), key);
}

/// Reference ELARE mapper: O(rounds x pending x machines) twice over
/// (normalization rescan plus pair scan) per invocation.
class ReferenceElarePolicy final : public sched::Policy {
 public:
  explicit ReferenceElarePolicy(std::unique_ptr<const sched::ElarePolicy> scores)
      : scores_(std::move(scores)) {}
  [[nodiscard]] std::string name() const override { return scores_->name(); }
  [[nodiscard]] sched::PolicyMode mode() const override { return sched::PolicyMode::kBatch; }
  void schedule_into(SchedulingContext& context, std::vector<Assignment>& assignments) override;

 private:
  std::unique_ptr<const sched::ElarePolicy> scores_;
};

void ReferenceElarePolicy::schedule_into(SchedulingContext& context,
                                         std::vector<Assignment>& assignments) {
  assignments.clear();
  const double weight = scores_->energy_weight();
  std::vector<const workload::TaskDef*> pending = context.batch_queue();

  // Normalization bases so the energy and latency terms are comparable:
  // the worst (largest) energy and completion values over all pairs in this
  // invocation. Recomputed per round because commits move ready times.
  while (!pending.empty()) {
    double max_energy = 0.0;
    core::SimTime max_completion = 0.0;
    bool any_slot = false;
    for (const workload::TaskDef* task : pending) {
      for (const MachineView& m : context.machines()) {
        if (m.free_slots == 0) continue;
        any_slot = true;
        max_energy = std::max(max_energy, context.exec_energy(*task, m));
        max_completion = std::max(max_completion, context.completion_time(*task, m));
      }
    }
    if (!any_slot || max_energy <= 0.0 || max_completion <= 0.0) break;

    std::size_t best_task = pending.size();
    std::size_t best_machine = context.machines().size();
    double best_score = 0.0;

    for (std::size_t i = 0; i < pending.size(); ++i) {
      const workload::TaskDef& task = *pending[i];
      const double factor = scores_->fairness_factor(context, task.type);
      for (std::size_t j = 0; j < context.machines().size(); ++j) {
        const MachineView& m = context.machines()[j];
        if (m.free_slots == 0) continue;
        const core::SimTime completion = context.completion_time(task, m);
        if (completion > task.deadline) continue;  // infeasible: defer, don't waste
        const double score = factor * (weight * context.exec_energy(task, m) / max_energy +
                                       (1.0 - weight) * completion / max_completion);
        if (best_task == pending.size() || score < best_score) {
          best_task = i;
          best_machine = j;
          best_score = score;
        }
      }
    }
    if (best_task == pending.size()) break;  // every remaining task is infeasible

    const workload::TaskDef& task = *pending[best_task];
    assignments.push_back(Assignment{task.id, context.machines()[best_machine].id});
    context.commit(task, best_machine);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best_task));
  }
}

}  // namespace

std::vector<std::string> reference_policy_names() {
  return {"MM", "MMU", "MSD", "ELARE", "FELARE"};
}

std::unique_ptr<sched::Policy> make_reference_policy(const std::string& name) {
  if (name == "MM") {
    return make_iterative(name, [](const workload::TaskDef&, core::SimTime completion) {
      return completion;
    });
  }
  if (name == "MMU") {
    // Smallest slack first == max urgency.
    return make_iterative(name, [](const workload::TaskDef& task, core::SimTime completion) {
      return task.deadline - completion;
    });
  }
  if (name == "MSD") {
    return make_iterative(
        name, [](const workload::TaskDef& task, core::SimTime) { return task.deadline; });
  }
  if (name == "ELARE") return make_reference_elare(std::make_unique<sched::ElarePolicy>());
  if (name == "FELARE") return make_reference_elare(std::make_unique<sched::FelarePolicy>());
  std::string message = "no reference mapper for policy '" + name + "' (have:";
  for (const std::string& known : reference_policy_names()) message += " " + known;
  throw UnknownPolicyError(message + ")");
}

std::unique_ptr<sched::Policy> make_reference_elare(
    std::unique_ptr<const sched::ElarePolicy> scores) {
  return std::make_unique<ReferenceElarePolicy>(std::move(scores));
}

}  // namespace e2c::test
