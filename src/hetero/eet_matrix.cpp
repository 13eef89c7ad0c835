#include "hetero/eet_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace e2c::hetero {

EetMatrix::EetMatrix(std::vector<std::string> task_type_names,
                     std::vector<std::string> machine_type_names,
                     std::vector<std::vector<double>> values)
    : task_names_(std::move(task_type_names)),
      machine_names_(std::move(machine_type_names)) {
  // Flatten to row-major before validating so validate() sees final storage.
  require_input(values.size() == task_names_.size(),
                "EET: row count does not match task type count");
  values_.reserve(task_names_.size() * machine_names_.size());
  for (std::size_t r = 0; r < values.size(); ++r) {
    require_input(values[r].size() == machine_names_.size(),
                  "EET: row '" + task_names_[r] + "' has wrong column count");
    values_.insert(values_.end(), values[r].begin(), values[r].end());
  }
  validate();
}

void EetMatrix::validate() const {
  require_input(!task_names_.empty(), "EET: at least one task type required");
  require_input(!machine_names_.empty(), "EET: at least one machine type required");
  for (std::size_t r = 0; r < task_names_.size(); ++r) {
    for (double v : row(r)) {
      require_input(std::isfinite(v) && v > 0.0,
                    "EET: entries must be finite and > 0 (row '" + task_names_[r] + "')");
    }
  }
  // Duplicate names would make CSV round-trips ambiguous.
  auto has_duplicates = [](std::vector<std::string> names) {
    std::sort(names.begin(), names.end());
    return std::adjacent_find(names.begin(), names.end()) != names.end();
  };
  require_input(!has_duplicates(task_names_), "EET: duplicate task type names");
  require_input(!has_duplicates(machine_names_), "EET: duplicate machine type names");
}

double EetMatrix::eet(TaskTypeId task_type, MachineTypeId machine_type) const {
  require_input(task_type < task_names_.size(), "EET: task type index out of range");
  require_input(machine_type < machine_names_.size(), "EET: machine type index out of range");
  return eet_unchecked(task_type, machine_type);
}

void EetMatrix::set_eet(TaskTypeId task_type, MachineTypeId machine_type, double value) {
  require_input(task_type < task_names_.size(), "EET: task type index out of range");
  require_input(machine_type < machine_names_.size(), "EET: machine type index out of range");
  require_input(std::isfinite(value) && value > 0.0, "EET: entry must be finite and > 0");
  values_[task_type * machine_names_.size() + machine_type] = value;
}

const std::string& EetMatrix::task_type_name(TaskTypeId id) const {
  require_input(id < task_names_.size(), "EET: task type index out of range");
  return task_names_[id];
}

const std::string& EetMatrix::machine_type_name(MachineTypeId id) const {
  require_input(id < machine_names_.size(), "EET: machine type index out of range");
  return machine_names_[id];
}

TaskTypeId EetMatrix::task_type_index(std::string_view name) const {
  for (std::size_t i = 0; i < task_names_.size(); ++i) {
    if (task_names_[i] == name) return i;
  }
  throw InputError("EET: unknown task type '" + std::string(name) +
                   "' (workload must conform to the EET matrix)");
}

bool EetMatrix::has_task_type(const std::string& name) const noexcept {
  return std::find(task_names_.begin(), task_names_.end(), name) != task_names_.end();
}

MachineTypeId EetMatrix::machine_type_index(const std::string& name) const {
  for (std::size_t i = 0; i < machine_names_.size(); ++i) {
    if (machine_names_[i] == name) return i;
  }
  throw InputError("EET: unknown machine type '" + name + "'");
}

double EetMatrix::row_mean(TaskTypeId task_type) const {
  require_input(task_type < task_names_.size(), "EET: task type index out of range");
  const auto r = row(task_type);
  return std::accumulate(r.begin(), r.end(), 0.0) / static_cast<double>(r.size());
}

double EetMatrix::row_min(TaskTypeId task_type) const {
  require_input(task_type < task_names_.size(), "EET: task type index out of range");
  const auto r = row(task_type);
  return *std::min_element(r.begin(), r.end());
}

bool EetMatrix::is_homogeneous() const noexcept {
  for (std::size_t r = 0; r < task_names_.size(); ++r) {
    for (double v : row(r)) {
      if (v != row(r).front()) return false;
    }
  }
  return true;
}

bool EetMatrix::is_consistent() const noexcept {
  if (values_.empty()) return true;
  // Consistency means: for every pair of machines, their speed order is the
  // same in every row. Comparing pairwise (rather than sorted index lists)
  // tolerates ties.
  for (std::size_t a = 0; a < machine_names_.size(); ++a) {
    for (std::size_t b = a + 1; b < machine_names_.size(); ++b) {
      int sign = 0;  // -1: a faster, +1: b faster
      for (std::size_t r = 0; r < task_names_.size(); ++r) {
        const auto values = row(r);
        int s = values[a] < values[b] ? -1 : (values[a] > values[b] ? 1 : 0);
        if (s == 0) continue;
        if (sign == 0) sign = s;
        else if (sign != s) return false;
      }
    }
  }
  return true;
}

namespace {

EetMatrix eet_from_doc(const util::CsvDoc& doc) {
  require_input(doc.row_count() >= 2, "EET CSV: need a header row and at least one task row");
  const auto header = doc.row(0);
  require_input(header.size() >= 2, "EET CSV: header needs task_type plus machine columns (" +
                                        doc.where(0) + ")");

  std::vector<std::string> machine_names;
  machine_names.reserve(header.size() - 1);
  for (std::size_t c = 1; c < header.size(); ++c) {
    machine_names.emplace_back(util::trim(header[c]));
  }

  std::vector<std::string> task_names;
  std::vector<std::vector<double>> values;
  for (std::size_t r = 1; r < doc.row_count(); ++r) {
    const auto row = doc.row(r);
    require_input(row.size() == header.size(),
                  [&] { return "EET CSV: wrong field count at " + doc.where(r); });
    task_names.emplace_back(util::trim(row[0]));
    std::vector<double> row_values;
    row_values.reserve(row.size() - 1);
    for (std::size_t c = 1; c < row.size(); ++c) {
      const auto value = util::parse_double(row[c]);
      require_input(value.has_value(), [&] {
        return "EET CSV: non-numeric entry '" + std::string(row[c]) + "' at " + doc.where(r);
      });
      row_values.push_back(*value);
    }
    values.push_back(std::move(row_values));
  }
  return EetMatrix(std::move(task_names), std::move(machine_names), std::move(values));
}

}  // namespace

EetMatrix EetMatrix::from_csv_text(const std::string& text) {
  return eet_from_doc(util::parse_csv_doc(text));
}

EetMatrix EetMatrix::load_csv(const std::string& path) {
  return eet_from_doc(util::read_csv_doc(path));
}

std::string EetMatrix::to_csv_text() const {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{"task_type"};
  header.insert(header.end(), machine_names_.begin(), machine_names_.end());
  rows.push_back(std::move(header));
  for (std::size_t r = 0; r < task_names_.size(); ++r) {
    std::vector<std::string> csv_row{task_names_[r]};
    for (double v : row(r)) csv_row.push_back(util::format_fixed(v, 4));
    rows.push_back(std::move(csv_row));
  }
  return util::to_csv(rows);
}

void EetMatrix::save_csv(const std::string& path) const {
  util::write_file(path, to_csv_text());
}

EetMatrix EetMatrix::homogeneous(std::vector<std::string> task_type_names,
                                 std::vector<std::string> machine_type_names,
                                 const std::vector<double>& base_times) {
  require_input(base_times.size() == task_type_names.size(),
                "EET::homogeneous: one base time per task type required");
  std::vector<std::vector<double>> values;
  values.reserve(task_type_names.size());
  for (double t : base_times) {
    values.emplace_back(machine_type_names.size(), t);
  }
  return EetMatrix(std::move(task_type_names), std::move(machine_type_names),
                   std::move(values));
}

EetMatrix EetMatrix::random(std::vector<std::string> task_type_names,
                            std::vector<std::string> machine_type_names, double base,
                            double task_range, double machine_range, bool inconsistent,
                            util::Rng& rng) {
  require_input(base > 0.0, "EET::random: base must be > 0");
  require_input(task_range >= 1.0 && machine_range >= 1.0,
                "EET::random: ranges must be >= 1");
  const std::size_t rows = task_type_names.size();
  const std::size_t cols = machine_type_names.size();
  std::vector<double> task_weight(rows);
  for (auto& u : task_weight) u = rng.uniform(1.0, task_range);
  std::vector<double> machine_weight(cols);
  for (auto& v : machine_weight) v = rng.uniform(1.0, machine_range);

  std::vector<std::vector<double>> values(rows, std::vector<double>(cols, 0.0));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double v =
          inconsistent ? rng.uniform(1.0, machine_range) : machine_weight[c];
      values[r][c] = base * task_weight[r] * v;
    }
  }
  return EetMatrix(std::move(task_type_names), std::move(machine_type_names),
                   std::move(values));
}

}  // namespace e2c::hetero
