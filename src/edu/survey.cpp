#include "edu/survey.hpp"

#include <algorithm>
#include <cmath>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace e2c::edu {

SurveyDataset::SurveyDataset(std::vector<SurveyResponse> responses)
    : responses_(std::move(responses)) {}

MetricAggregate SurveyDataset::aggregate(
    const std::string& name,
    const std::function<std::optional<double>(const SurveyResponse&)>& value) const {
  MetricAggregate aggregate;
  aggregate.metric = name;
  std::vector<double> all;
  util::RunningStats female;
  util::RunningStats male;
  for (const SurveyResponse& response : responses_) {
    const auto v = value(response);
    if (!v) continue;
    all.push_back(*v);
    (response.gender == Gender::kFemale ? female : male).add(*v);
  }
  aggregate.respondents = all.size();
  aggregate.mean = util::mean(all);
  aggregate.median = util::median(all);
  aggregate.female_mean = female.mean();
  aggregate.male_mean = male.mean();
  return aggregate;
}

SurveySummary SurveyDataset::summarize() const {
  SurveySummary summary;
  const auto field = [](double SurveyResponse::* member) {
    return [member](const SurveyResponse& r) -> std::optional<double> {
      return r.*member;
    };
  };

  summary.user_experience = {
      aggregate("installation", field(&SurveyResponse::install)),
      aggregate("intuitive GUI", field(&SurveyResponse::gui)),
      aggregate("ease of use", field(&SurveyResponse::ease_of_use)),
      aggregate("reports", field(&SurveyResponse::reports)),
      aggregate("custom scheduling",
                [](const SurveyResponse& r) { return r.custom_scheduling; }),
      aggregate("recommend to others", field(&SurveyResponse::recommend)),
  };
  summary.learning_outcomes = {
      aggregate("scheduling in heterogeneous systems",
                field(&SurveyResponse::hetero_scheduling)),
      aggregate("scheduling in homogeneous systems",
                field(&SurveyResponse::homog_scheduling)),
      aggregate("impact of arrival rate", field(&SurveyResponse::arrival_rate_impact)),
      aggregate("overall usefulness", field(&SurveyResponse::overall_usefulness)),
  };

  std::vector<double> pre;
  std::vector<double> post;
  std::vector<double> years;
  std::size_t female = 0;
  std::size_t graduate = 0;
  std::size_t passed_os = 0;
  for (const SurveyResponse& response : responses_) {
    pre.push_back(response.quiz_pre);
    post.push_back(response.quiz_post);
    years.push_back(response.programming_years);
    if (response.gender == Gender::kFemale) ++female;
    if (response.level == Level::kGraduate) ++graduate;
    if (response.passed_os_course) ++passed_os;
  }
  summary.quiz_pre_mean = util::mean(pre);
  summary.quiz_post_mean = util::mean(post);
  summary.quiz_improvement_percent =
      util::percent_improvement(summary.quiz_pre_mean, summary.quiz_post_mean).value_or(0.0);
  const auto n = static_cast<double>(responses_.size());
  if (!responses_.empty()) {
    summary.female_fraction = static_cast<double>(female) / n;
    summary.male_fraction = 1.0 - summary.female_fraction;
    summary.graduate_fraction = static_cast<double>(graduate) / n;
    summary.undergraduate_fraction = 1.0 - summary.graduate_fraction;
    summary.passed_os_fraction = static_cast<double>(passed_os) / n;
  }
  summary.programming_years_mean = util::mean(years);
  summary.programming_years_median = util::median(years);
  return summary;
}

namespace {

/// Zero-sum linear ramp of \p n deltas with amplitude \p amp: the group mean
/// stays exactly on target while individual answers vary.
std::vector<double> ramp(std::size_t n, double amp) {
  std::vector<double> deltas(n, 0.0);
  if (n < 2) return deltas;
  for (std::size_t i = 0; i < n; ++i) {
    deltas[i] = amp * (2.0 * static_cast<double>(i) / static_cast<double>(n - 1) - 1.0);
  }
  return deltas;
}

/// Spread amplitude that keeps target +/- amp inside [0, 10].
double safe_amp(double target) {
  return std::min({0.7, 10.0 - target, target});
}

/// Assigns a score metric: female respondents get female_target +/- ramp,
/// male respondents male_target +/- ramp; group means match the targets
/// exactly (the calibration DESIGN.md documents).
void fill_metric(std::vector<SurveyResponse>& responses, double SurveyResponse::* member,
                 double female_target, double male_target) {
  std::vector<SurveyResponse*> females;
  std::vector<SurveyResponse*> males;
  for (SurveyResponse& response : responses) {
    (response.gender == Gender::kFemale ? females : males).push_back(&response);
  }
  const auto female_deltas = ramp(females.size(), safe_amp(female_target));
  for (std::size_t i = 0; i < females.size(); ++i) {
    females[i]->*member = female_target + female_deltas[i];
  }
  const auto male_deltas = ramp(males.size(), safe_amp(male_target));
  for (std::size_t i = 0; i < males.size(); ++i) {
    males[i]->*member = male_target + male_deltas[i];
  }
}

}  // namespace

std::vector<std::vector<std::string>> SurveyDataset::to_csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"gender", "level", "programming_years", "passed_os", "install", "gui",
                  "ease_of_use", "reports", "custom_scheduling", "recommend",
                  "hetero_scheduling", "homog_scheduling", "arrival_rate_impact",
                  "overall_usefulness", "quiz_pre", "quiz_post"});
  for (const SurveyResponse& r : responses_) {
    rows.push_back(
        {r.gender == Gender::kFemale ? "female" : "male",
         r.level == Level::kGraduate ? "graduate" : "undergraduate",
         util::format_fixed(r.programming_years, 2), r.passed_os_course ? "1" : "0",
         util::format_fixed(r.install, 4), util::format_fixed(r.gui, 4),
         util::format_fixed(r.ease_of_use, 4), util::format_fixed(r.reports, 4),
         r.custom_scheduling ? util::format_fixed(*r.custom_scheduling, 4) : std::string{},
         util::format_fixed(r.recommend, 4), util::format_fixed(r.hetero_scheduling, 4),
         util::format_fixed(r.homog_scheduling, 4),
         util::format_fixed(r.arrival_rate_impact, 4),
         util::format_fixed(r.overall_usefulness, 4), util::format_fixed(r.quiz_pre, 4),
         util::format_fixed(r.quiz_post, 4)});
  }
  return rows;
}

SurveyDataset SurveyDataset::from_csv_rows(
    const std::vector<std::vector<std::string>>& rows) {
  require_input(!rows.empty(), "survey CSV: missing header");
  require_input(rows.front().size() == 16, "survey CSV: expected 16 columns");
  std::vector<SurveyResponse> responses;
  responses.reserve(rows.size() - 1);
  const auto number = [](const std::string& field, const char* what) {
    const auto value = util::parse_double(field);
    require_input(value.has_value(), std::string("survey CSV: bad ") + what);
    return *value;
  };
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    require_input(row.size() == 16,
                  "survey CSV: row " + std::to_string(i + 1) + " has wrong field count");
    SurveyResponse r;
    if (util::iequals(row[0], "female")) r.gender = Gender::kFemale;
    else if (util::iequals(row[0], "male")) r.gender = Gender::kMale;
    else throw InputError("survey CSV: unknown gender '" + row[0] + "'");
    if (util::iequals(row[1], "graduate")) r.level = Level::kGraduate;
    else if (util::iequals(row[1], "undergraduate")) r.level = Level::kUndergraduate;
    else throw InputError("survey CSV: unknown level '" + row[1] + "'");
    r.programming_years = number(row[2], "programming_years");
    r.passed_os_course = row[3] == "1";
    r.install = number(row[4], "install");
    r.gui = number(row[5], "gui");
    r.ease_of_use = number(row[6], "ease_of_use");
    r.reports = number(row[7], "reports");
    if (!util::trim(row[8]).empty()) r.custom_scheduling = number(row[8], "custom");
    r.recommend = number(row[9], "recommend");
    r.hetero_scheduling = number(row[10], "hetero_scheduling");
    r.homog_scheduling = number(row[11], "homog_scheduling");
    r.arrival_rate_impact = number(row[12], "arrival_rate_impact");
    r.overall_usefulness = number(row[13], "overall_usefulness");
    r.quiz_pre = number(row[14], "quiz_pre");
    r.quiz_post = number(row[15], "quiz_post");
    responses.push_back(r);
  }
  return SurveyDataset(std::move(responses));
}

SurveyDataset SurveyDataset::load_csv(const std::string& path) {
  const util::CsvDoc doc = util::read_csv_doc(path);
  std::vector<std::vector<std::string>> rows;
  rows.reserve(doc.row_count());
  for (std::size_t r = 0; r < doc.row_count(); ++r) {
    rows.emplace_back(doc.row(r).begin(), doc.row(r).end());
  }
  return from_csv_rows(rows);
}

void SurveyDataset::save_csv(const std::string& path) const {
  util::write_csv_file(path, to_csv_rows());
}

SurveyDataset SurveyDataset::bundled() {
  // Demographics of §5: 23 students, 17 male / 6 female (73.9% / 26.1%),
  // 14 undergraduate / 9 graduate (60.9% / 39.1%), 10 passed OS (43.5%),
  // programming experience mean 3.8 / median 3 years.
  std::vector<SurveyResponse> responses(23);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    responses[i].gender = i < 6 ? Gender::kFemale : Gender::kMale;
    // Graduates: 4 female (indices 0-3) + 5 male (indices 6-10).
    responses[i].level =
        (i < 4 || (i >= 6 && i < 11)) ? Level::kGraduate : Level::kUndergraduate;
    responses[i].passed_os_course = i % 2 == 0 && i < 20;  // exactly 10 of 23
  }
  const double years[23] = {1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3,
                            4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8};  // mean 3.83, median 3
  for (std::size_t i = 0; i < responses.size(); ++i) {
    responses[i].programming_years = years[i];
  }

  // Fig. 8a targets (overall / female / male as reported in §5).
  fill_metric(responses, &SurveyResponse::install, 8.3, 8.3);
  fill_metric(responses, &SurveyResponse::gui, 9.3, 8.0);          // overall 8.35
  fill_metric(responses, &SurveyResponse::ease_of_use, 9.3, 7.9);  // overall 8.3
  fill_metric(responses, &SurveyResponse::reports, 4.8, 5.9);      // overall 5.7
  fill_metric(responses, &SurveyResponse::recommend, 9.7, 7.8);    // overall 8.3

  // Custom scheduling was answered by the 9 graduate students only
  // (female 9.2 / male 7.4 per the paper).
  {
    std::vector<SurveyResponse*> grad_f;
    std::vector<SurveyResponse*> grad_m;
    for (SurveyResponse& response : responses) {
      if (response.level != Level::kGraduate) continue;
      (response.gender == Gender::kFemale ? grad_f : grad_m).push_back(&response);
    }
    const auto f_deltas = ramp(grad_f.size(), safe_amp(9.2));
    for (std::size_t i = 0; i < grad_f.size(); ++i) {
      grad_f[i]->custom_scheduling = 9.2 + f_deltas[i];
    }
    const auto m_deltas = ramp(grad_m.size(), safe_amp(7.4));
    for (std::size_t i = 0; i < grad_m.size(); ++i) {
      grad_m[i]->custom_scheduling = 7.4 + m_deltas[i];
    }
  }

  // Fig. 8b targets.
  fill_metric(responses, &SurveyResponse::hetero_scheduling, 9.8, 8.2);
  fill_metric(responses, &SurveyResponse::homog_scheduling, 9.5, 8.4);
  fill_metric(responses, &SurveyResponse::arrival_rate_impact, 9.7, 8.2);
  fill_metric(responses, &SurveyResponse::overall_usefulness, 9.5, 8.6);

  // Pre/post quiz: means 7.6 -> 8.94 out of 12 (improvement 17.6%).
  {
    const auto pre_deltas = ramp(responses.size(), 2.0);
    const auto post_deltas = ramp(responses.size(), 1.8);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      responses[i].quiz_pre = 7.6 + pre_deltas[i];
      responses[i].quiz_post = 8.94 + post_deltas[i];
    }
  }
  return SurveyDataset(std::move(responses));
}

}  // namespace e2c::edu
