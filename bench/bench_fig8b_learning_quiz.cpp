// Reproduces Figure 8b of the paper (learning-outcome survey bars) plus the
// §5 pre/post quiz result: 3 tasks mapped to 4 heterogeneous machines via
// MEET, MECT, MM and MSD, 12 points, class average 7.6 -> 8.94 (+17.6%).
//
// Two parts:
//   1. the survey aggregation pipeline over the bundled dataset (Fig. 8b);
//   2. the quiz engine itself — ground truth derived from the real policies,
//      grading demonstrated on perfect/naive answer sheets.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "edu/quiz.hpp"
#include "edu/survey.hpp"
#include "util/string_util.hpp"
#include "viz/bar_chart.hpp"

namespace {

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

}  // namespace

int main() {
  using namespace e2c;

  const auto summary = edu::SurveyDataset::bundled().summarize();

  std::cout << "==== Fig. 8b — learning outcomes (n=23) ====\n\n";
  viz::BarChart chart;
  chart.title = "learning-outcome scores (0-10)";
  chart.groups = {"overall", "female", "male"};
  chart.max_value = 10.0;
  chart.unit = "";
  for (const auto& metric : summary.learning_outcomes) {
    chart.series.push_back(
        {metric.metric, {metric.mean, metric.female_mean, metric.male_mean}});
  }
  std::cout << viz::render_bar_chart(chart) << "\n";

  bool ok = true;
  auto metric = [&](const std::string& name) -> const edu::MetricAggregate& {
    for (const auto& m : summary.learning_outcomes) {
      if (m.metric == name) return m;
    }
    throw std::runtime_error("missing metric " + name);
  };
  ok &= bench::check(near(metric("scheduling in heterogeneous systems").female_mean, 9.8, 0.01),
                     "hetero-scheduling female mean 9.8", "value");
  ok &= bench::check(near(metric("scheduling in heterogeneous systems").male_mean, 8.2, 0.01),
                     "hetero-scheduling male mean 8.2", "value");
  ok &= bench::check(near(metric("impact of arrival rate").mean, 8.6, 0.05),
                     "arrival-rate understanding mean 8.6", "value");
  ok &= bench::check(near(metric("scheduling in heterogeneous systems").median, 8.7, 0.5),
                     "hetero-scheduling median ~8.7", "value");
  ok &= bench::check(near(metric("overall usefulness").median, 8.8, 0.5),
                     "overall usefulness median ~8.8", "value");
  // Gender effect the paper highlights: female medians exceed male medians.
  for (const auto& m : summary.learning_outcomes) {
    ok &= bench::check(m.female_mean > m.male_mean, m.metric + ": female > male scores", "value");
  }

  std::cout << "\n==== §5 quiz — 3 tasks x 4 methods on 4 heterogeneous machines ====\n\n";
  const auto scenario = edu::default_quiz();
  const auto truth = edu::solve_quiz(scenario);
  std::cout << "ground truth (task -> machine), derived from the real policies:\n";
  for (const auto& [method, answer] : truth) {
    std::cout << "  " << util::pad_right(method, 5) << ":";
    for (const auto& [task, machine] : answer) {
      std::cout << "  T" << task << "->" << scenario.eet.machine_type_name(machine);
    }
    std::cout << "\n";
  }

  const int full = edu::grade(scenario, truth);
  edu::AnswerSheet naive;  // the pre-course misconception: fastest machine always
  const auto meet = edu::solve_method(scenario, "MEET");
  for (const auto& method : edu::quiz_methods()) naive[method] = meet;
  const int naive_score = edu::grade(scenario, naive);

  std::cout << "\n  perfect answer sheet: " << full << "/" << edu::max_score(scenario)
            << "\n  naive (always-fastest) sheet: " << naive_score << "/"
            << edu::max_score(scenario) << "\n\n";

  ok &= bench::check(edu::max_score(scenario) == 12,
                     "quiz is worth 12 points (3 tasks x 4 methods)", "value");
  ok &= bench::check(full == 12, "policy-derived ground truth grades to 12/12", "value");
  ok &= bench::check(naive_score < full,
                     "the always-fastest misconception loses points (the learning gap the "
                     "pre-quiz measures)", "value");

  std::cout << "\nclass pre/post quiz averages (bundled dataset):\n  pre  = "
            << util::format_fixed(summary.quiz_pre_mean, 2)
            << "\n  post = " << util::format_fixed(summary.quiz_post_mean, 2)
            << "\n  improvement = "
            << util::format_fixed(summary.quiz_improvement_percent, 1) << "%\n\n";
  ok &= bench::check(near(summary.quiz_pre_mean, 7.6, 0.01), "pre-quiz mean 7.6 / 12", "value");
  ok &= bench::check(near(summary.quiz_post_mean, 8.94, 0.01), "post-quiz mean 8.94 / 12", "value");
  ok &= bench::check(near(summary.quiz_improvement_percent, 17.6, 0.1),
                     "learning improvement 17.6%", "value");
  return ok ? 0 : 1;
}
