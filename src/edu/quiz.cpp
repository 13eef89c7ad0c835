#include "edu/quiz.hpp"

#include <algorithm>

#include "sched/registry.hpp"
#include "util/error.hpp"

namespace e2c::edu {

QuizScenario default_quiz() {
  QuizScenario scenario;
  // Three task types on four machines with CONTENTION: T1 and T3 share the
  // same fastest machine (m4), so load-aware methods divert one of them
  // while MEET does not — the quiz discriminates between the methods, and a
  // student who always picks the fastest machine cannot score full marks.
  scenario.eet = hetero::EetMatrix(
      {"T1", "T2", "T3"}, {"m1", "m2", "m3", "m4"},
      {
          {10.0, 4.0, 7.0, 3.0},  // T1: fastest on m4, runner-up m2
          {5.0, 8.0, 2.0, 9.0},   // T2: fastest on m3
          {6.0, 5.0, 8.0, 2.0},   // T3: fastest on m4 too (contention)
      });

  workload::TaskDef t1;
  t1.id = 1;
  t1.type = 0;
  t1.arrival = 0.0;
  t1.deadline = 12.0;
  workload::TaskDef t2;
  t2.id = 2;
  t2.type = 1;
  t2.arrival = 0.0;
  t2.deadline = 6.0;  // soonest deadline: MSD maps it first
  workload::TaskDef t3;
  t3.id = 3;
  t3.type = 2;
  t3.arrival = 0.0;
  t3.deadline = 9.0;
  scenario.tasks = {t1, t2, t3};
  return scenario;
}

const std::vector<std::string>& quiz_methods() {
  static const std::vector<std::string> methods{"MEET", "MECT", "MM", "MSD"};
  return methods;
}

MethodAnswer solve_method(const QuizScenario& scenario, const std::string& method) {
  require_input(std::find(quiz_methods().begin(), quiz_methods().end(), method) !=
                    quiz_methods().end(),
                "quiz: method '" + method + "' is not part of the quiz");

  // Idle machines, one free slot per task so batch policies can map all.
  std::vector<sched::MachineView> machines;
  for (std::size_t m = 0; m < scenario.eet.machine_type_count(); ++m) {
    sched::MachineView view;
    view.id = m;
    view.type = m;
    view.ready_time = 0.0;
    view.free_slots = scenario.tasks.size();
    machines.push_back(view);
  }
  // The scenario's task vector is the queue's storage: listed in order, so
  // queue order is arrival order and nothing is copied.
  sched::TaskIndexQueue queue;
  queue.reset(scenario.tasks, scenario.eet.task_type_count());
  for (std::size_t i = 0; i < scenario.tasks.size(); ++i) queue.push_back(i);

  sched::SchedulingContext context(0.0, scenario.eet, std::move(machines), queue, {});
  const auto policy = sched::make_policy(method);
  std::vector<sched::Assignment> assignments;
  policy->schedule_into(context, assignments);

  MethodAnswer answer;
  for (const sched::Assignment& assignment : assignments) {
    answer[assignment.task] = assignment.machine;
  }
  return answer;
}

AnswerSheet solve_quiz(const QuizScenario& scenario) {
  AnswerSheet sheet;
  for (const std::string& method : quiz_methods()) {
    sheet[method] = solve_method(scenario, method);
  }
  return sheet;
}

int grade(const QuizScenario& scenario, const AnswerSheet& answers) {
  const AnswerSheet truth = solve_quiz(scenario);
  int score = 0;
  for (const auto& [method, correct] : truth) {
    const auto submitted = answers.find(method);
    if (submitted == answers.end()) continue;
    for (const auto& [task, machine] : correct) {
      const auto pick = submitted->second.find(task);
      if (pick != submitted->second.end() && pick->second == machine) ++score;
    }
  }
  return score;
}

int max_score(const QuizScenario& scenario) {
  return static_cast<int>(quiz_methods().size() * scenario.tasks.size());
}

}  // namespace e2c::edu
