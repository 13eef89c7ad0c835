#include "workload/workload.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace e2c::workload {

bool ids_dense(std::span<const TaskDef> defs) noexcept {
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (defs[i].id != i) return false;
  }
  return true;
}

Workload::Workload(std::vector<TaskDef> defs) : defs_(std::move(defs)) {
  const auto by_arrival_then_id = [](const TaskDef& a, const TaskDef& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  };
  bool sorted = true;
  bool valid = true;
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    const TaskDef& task = defs_[i];
    if (i != 0 && by_arrival_then_id(task, defs_[i - 1])) sorted = false;
    valid = valid && task.deadline >= task.arrival && task.arrival >= 0.0;
    max_type_ = std::max<hetero::TaskTypeId>(max_type_, task.type);
    dense_ids_ = dense_ids_ && task.id == i;
  }
  // Generators and saved traces arrive in order already; a stable sort of
  // sorted input is the identity, so skipping it changes nothing.
  if (!sorted) {
    std::stable_sort(defs_.begin(), defs_.end(), by_arrival_then_id);
    dense_ids_ = ids_dense(defs_);
  }
  // Rare path: name the first offender in arrival order.
  if (!valid) {
    for (const TaskDef& task : defs_) {
      require_input(task.deadline >= task.arrival, [&] {
        return "workload: task " + std::to_string(task.id) +
               " has a deadline before its arrival";
      });
      require_input(task.arrival >= 0.0, [&] {
        return "workload: task " + std::to_string(task.id) + " has a negative arrival time";
      });
    }
  }
}

core::SimTime Workload::last_arrival() const noexcept {
  return defs_.empty() ? 0.0 : defs_.back().arrival;
}

void Workload::validate_against(const hetero::EetMatrix& eet) const {
  if (defs_.empty() || max_type_ < eet.task_type_count()) return;
  // Out of range: find the first offender (arrival order) so the message
  // points at the same task the per-record scan used to.
  for (const TaskDef& task : defs_) {
    require_input(task.type < eet.task_type_count(), [&] {
      return "workload: task " + std::to_string(task.id) + " references task type id " +
             std::to_string(task.type) + " that is not defined within the EET matrix";
    });
  }
}

std::vector<std::size_t> Workload::type_histogram(std::size_t type_count) const {
  std::vector<std::size_t> histogram(type_count, 0);
  for (const TaskDef& task : defs_) {
    if (task.type < type_count) ++histogram[task.type];
  }
  return histogram;
}

namespace {

Workload workload_from_doc(const util::CsvDoc& doc, const hetero::EetMatrix& eet) {
  require_input(!doc.empty(), "workload CSV: file is empty" +
                                  (doc.source().empty() ? "" : " (" + doc.source() + ")"));
  const auto header = doc.row(0);
  require_input(header.size() >= 3,
                "workload CSV: expected header task_id,task_type,arrival_time[,deadline] (" +
                    doc.where(0) + ")");
  const bool has_deadline = header.size() >= 4;

  // Intern task-type names once at the ingest boundary: repeated names skip
  // the EET's linear name scan.
  std::unordered_map<std::string_view, std::uint32_t> type_ids;

  std::vector<TaskDef> defs;
  defs.reserve(doc.row_count() - 1);
  for (std::size_t r = 1; r < doc.row_count(); ++r) {
    const auto row = doc.row(r);
    require_input(row.size() >= 3,
                  [&] { return "workload CSV: too few fields at " + doc.where(r); });
    const auto id = util::parse_int(row[0]);
    require_input(id.has_value() && *id >= 0, [&] {
      return "workload CSV: bad task_id '" + std::string(row[0]) + "' at " + doc.where(r);
    });
    const std::string_view type_name = util::trim(row[1]);
    const auto arrival = util::parse_double(row[2]);
    require_input(arrival.has_value(), [&] {
      return "workload CSV: bad arrival_time '" + std::string(row[2]) + "' at " + doc.where(r);
    });

    TaskDef task;
    task.id = static_cast<TaskId>(*id);
    const auto interned = type_ids.find(type_name);
    if (interned != type_ids.end()) {
      task.type = interned->second;
    } else {
      // Throws if unknown (paper rule).
      task.type = static_cast<std::uint32_t>(eet.task_type_index(type_name));
      type_ids.emplace(type_name, task.type);
    }
    task.arrival = *arrival;
    if (has_deadline && row.size() >= 4 && !util::trim(row[3]).empty()) {
      const auto deadline = util::parse_double(row[3]);
      require_input(deadline.has_value(), [&] {
        return "workload CSV: bad deadline '" + std::string(row[3]) + "' at " + doc.where(r);
      });
      task.deadline = *deadline;
    }
    defs.push_back(task);
  }
  return Workload(std::move(defs));
}

}  // namespace

Workload Workload::from_csv_text(const std::string& text, const hetero::EetMatrix& eet) {
  return workload_from_doc(util::parse_csv_doc(text), eet);
}

Workload Workload::load_csv(const std::string& path, const hetero::EetMatrix& eet) {
  return workload_from_doc(util::read_csv_doc(path), eet);
}

std::string Workload::to_csv_text(const hetero::EetMatrix& eet) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(defs_.size() + 1);
  rows.push_back({"task_id", "task_type", "arrival_time", "deadline"});
  for (const TaskDef& task : defs_) {
    rows.push_back({std::to_string(task.id), eet.task_type_name(task.type),
                    util::format_fixed(task.arrival, 4),
                    task.deadline == core::kTimeInfinity
                        ? std::string{}
                        : util::format_fixed(task.deadline, 4)});
  }
  return util::to_csv(rows);
}

void Workload::save_csv(const std::string& path, const hetero::EetMatrix& eet) const {
  util::write_file(path, to_csv_text(eet));
}

}  // namespace e2c::workload
