/// \file workload.hpp
/// \brief The workload trace: an ordered collection of task definitions plus
/// CSV IO.
///
/// File format (matches E2C-Sim's workload CSV):
///   task_id,task_type,arrival_time,deadline
///   0,T1,0.52,12.40
///   ...
/// Task type names must exist in the EET matrix the workload is used with —
/// the paper's compatibility rule. Validation happens at load/bind time.
///
/// A Workload holds only immutable TaskDef records (no per-run state), so a
/// single trace can be validated once and then shared read-only — e.g. via
/// std::shared_ptr<const Workload> — across every policy cell of a sweep and
/// across thread-pool workers. Simulations keep their mutable per-run record
/// in a TaskStateSoA whose definition span aliases the trace.
///
/// Construction facts are computed once and cached: the largest type id
/// (validate_against is O(1)) and whether the ids are dense (row i has id i,
/// so a Simulation maps id to row without a hash map). The constructor
/// learns them in the same single scan that checks order and validity.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hetero/eet_matrix.hpp"
#include "workload/task.hpp"

namespace e2c::workload {

/// True when row i of \p defs has id i for every row.
[[nodiscard]] bool ids_dense(std::span<const TaskDef> defs) noexcept;

/// An immutable trace of task definitions sorted by arrival time.
class Workload {
 public:
  Workload() = default;

  /// Takes ownership of the definitions, puts them in (arrival, id) order
  /// and validates that no arrival is negative and no deadline precedes its
  /// arrival; on failure the message names the first offender in (arrival,
  /// id) order. One O(n) pass checks order and validity and finds the
  /// largest type and whether the ids are dense. It sorts (stably) only when
  /// the input is out of order, so a trace that is already ordered, as
  /// generated and saved ones are, costs that one pass and no allocation.
  explicit Workload(std::vector<TaskDef> defs);

  /// Number of tasks.
  [[nodiscard]] std::size_t size() const noexcept { return defs_.size(); }

  /// True when there are no tasks.
  [[nodiscard]] bool empty() const noexcept { return defs_.empty(); }

  /// Task definitions in arrival order.
  [[nodiscard]] const std::vector<TaskDef>& tasks() const noexcept { return defs_; }

  /// Arrival time of the last task (0 for an empty workload).
  [[nodiscard]] core::SimTime last_arrival() const noexcept;

  /// True when task i has id i for every row, as in every generated trace
  /// and in a CSV that numbers its rows 0..n-1 in arrival order.
  [[nodiscard]] bool dense_ids() const noexcept { return dense_ids_; }

  /// Throws e2c::InputError if any task references a type id outside the
  /// matrix, enforcing "there can be no task type within the workload that
  /// is not defined within the EET". O(1) on the success path (the maximum
  /// referenced type id is cached at construction).
  void validate_against(const hetero::EetMatrix& eet) const;

  /// Tally of tasks per task type id (index = type id; sized to \p type_count).
  [[nodiscard]] std::vector<std::size_t> type_histogram(std::size_t type_count) const;

  // ---- persistence -------------------------------------------------------

  /// Parses the workload CSV, resolving task type names through \p eet.
  /// The deadline column is optional; absent deadlines are infinite.
  [[nodiscard]] static Workload from_csv_text(const std::string& text,
                                              const hetero::EetMatrix& eet);

  /// Loads a workload CSV file.
  [[nodiscard]] static Workload load_csv(const std::string& path,
                                         const hetero::EetMatrix& eet);

  /// Serializes as CSV with type names from \p eet.
  [[nodiscard]] std::string to_csv_text(const hetero::EetMatrix& eet) const;

  /// Writes a CSV file.
  void save_csv(const std::string& path, const hetero::EetMatrix& eet) const;

 private:
  std::vector<TaskDef> defs_;
  /// Largest type id referenced (0 for an empty trace): validate_against is
  /// one comparison instead of a per-task scan.
  hetero::TaskTypeId max_type_ = 0;
  bool dense_ids_ = true;  ///< row i has id i (true for an empty trace)
};

}  // namespace e2c::workload
