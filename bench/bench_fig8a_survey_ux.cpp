// Reproduces Figure 8a of the paper: the user-experience survey bars
// (installation, intuitive GUI, ease of use, reports, custom scheduling,
// recommendation), overall and split by gender.
//
// The respondent data is the bundled synthetic set calibrated to the paper's
// published aggregates (human data cannot be re-collected; see DESIGN.md).
// This bench runs the actual aggregation pipeline over it and checks every
// number the paper quotes.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "edu/survey.hpp"
#include "util/string_util.hpp"
#include "viz/bar_chart.hpp"

namespace {

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

}  // namespace

int main() {
  using namespace e2c;

  const auto dataset = edu::SurveyDataset::bundled();
  const auto summary = dataset.summarize();

  std::cout << "==== Fig. 8a — user experience with E2C (n=" << dataset.size()
            << ") ====\n\n";

  viz::BarChart chart;
  chart.title = "survey scores (0-10)";
  chart.groups = {"overall", "female", "male"};
  chart.max_value = 10.0;
  chart.unit = "";
  for (const auto& metric : summary.user_experience) {
    chart.series.push_back(
        {metric.metric, {metric.mean, metric.female_mean, metric.male_mean}});
  }
  std::cout << viz::render_bar_chart(chart) << "\n";

  std::cout << "metric,respondents,mean,median,female_mean,male_mean\n";
  for (const auto& metric : summary.user_experience) {
    std::cout << metric.metric << "," << metric.respondents << ","
              << util::format_fixed(metric.mean, 2) << ","
              << util::format_fixed(metric.median, 2) << ","
              << util::format_fixed(metric.female_mean, 2) << ","
              << util::format_fixed(metric.male_mean, 2) << "\n";
  }
  std::cout << "\npaper-vs-measured checks:\n";

  const auto& ux = summary.user_experience;
  auto metric = [&](const std::string& name) -> const edu::MetricAggregate& {
    for (const auto& m : ux) {
      if (m.metric == name) return m;
    }
    throw std::runtime_error("missing metric " + name);
  };

  bool ok = true;
  ok &= bench::check(near(metric("installation").mean, 8.3, 0.05),
                     "installation mean 8.3", "value");
  ok &= bench::check(near(metric("intuitive GUI").mean, 8.35, 0.05), "GUI mean 8.35", "value");
  ok &= bench::check(near(metric("intuitive GUI").female_mean, 9.3, 0.01),
                     "GUI female 9.3", "value");
  ok &= bench::check(near(metric("intuitive GUI").male_mean, 8.0, 0.01), "GUI male 8.0", "value");
  ok &= bench::check(near(metric("ease of use").mean, 8.3, 0.08), "ease-of-use mean 8.3", "value");
  ok &= bench::check(near(metric("reports").mean, 5.7, 0.1),
                     "reports mean 5.7 (the paper's lowest score)", "value");
  ok &= bench::check(near(metric("custom scheduling").mean, 8.3, 0.25),
                     "custom scheduling mean ~8.3 (graduate students only)", "value");
  ok &= bench::check(metric("custom scheduling").respondents == 9,
                     "9 graduate respondents", "value");
  ok &= bench::check(near(metric("recommend to others").mean, 8.3, 0.05),
                     "recommend mean 8.3", "value");
  ok &= bench::check(near(metric("recommend to others").female_mean, 9.7, 0.01),
                     "recommend female 9.7", "value");
  ok &= bench::check(near(summary.male_fraction, 0.739, 0.001), "73.9% male respondents", "value");
  ok &= bench::check(near(summary.programming_years_mean, 3.8, 0.1),
                     "programming experience mean 3.8 years", "value");
  ok &= bench::check(summary.programming_years_median == 3.0,
                     "programming experience median 3 years", "value");
  // Reports is the weak spot in every cut of the data, as the paper found.
  for (const auto& m : ux) {
    if (m.metric == "reports") continue;
    ok &= bench::check(metric("reports").mean < m.mean,
                       "reports scores below " + m.metric, "value");
  }
  return ok ? 0 : 1;
}
