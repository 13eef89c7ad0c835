#include "viz/gantt_svg.hpp"

#include <algorithm>
#include <sstream>

#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace e2c::viz {

namespace {

/// Distinct fill colors per task type (cycled).
const char* kTypeFills[] = {"#4e9fd1", "#e0a33c", "#b06fc4", "#62b36a", "#5b6ee1", "#d1605e"};

const char* fill_for_type(std::size_t type) {
  return kTypeFills[type % (sizeof(kTypeFills) / sizeof(kTypeFills[0]))];
}

}  // namespace

std::string render_gantt_svg(const sched::Simulation& simulation,
                             const GanttOptions& options) {
  const workload::TaskStateSoA& state = simulation.task_state();
  core::SimTime horizon = simulation.engine().now();
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (core::time_set(state.end_time[i])) horizon = std::max(horizon, state.end_time[i]);
  }
  if (horizon <= 0.0) horizon = 1.0;

  const int lanes = static_cast<int>(simulation.machine_count());
  const int chart_width = options.width_px - 2 * options.margin_px;
  const int height = options.margin_px * 2 + lanes * options.lane_height_px;
  const auto x_of = [&](core::SimTime t) {
    return options.margin_px + t / horizon * chart_width;
  };

  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << options.width_px
      << "\" height=\"" << height << "\" font-family=\"sans-serif\" font-size=\"11\">\n";
  svg << "<text x=\"" << options.margin_px << "\" y=\"18\" font-size=\"14\">E2C Gantt — "
      << simulation.policy().name() << "</text>\n";

  // Lanes + machine labels.
  for (int lane = 0; lane < lanes; ++lane) {
    const int y = options.margin_px + lane * options.lane_height_px;
    svg << "<line x1=\"" << options.margin_px << "\" y1=\"" << y + options.lane_height_px
        << "\" x2=\"" << options.width_px - options.margin_px << "\" y2=\""
        << y + options.lane_height_px << "\" stroke=\"#ccc\"/>\n";
    svg << "<text x=\"4\" y=\"" << y + options.lane_height_px / 2 + 4 << "\">"
        << simulation.machine(static_cast<std::size_t>(lane)).name() << "</text>\n";
  }

  // Failure intervals: hatch the lane red while the machine was down so
  // aborted work and the recovery gap are visible at a glance.
  for (int lane = 0; lane < lanes; ++lane) {
    const machines::Machine& machine = simulation.machine(static_cast<std::size_t>(lane));
    for (const machines::FailureSpan& span : machine.failure_spans()) {
      const core::SimTime start = std::min(span.start, horizon);
      const core::SimTime end = std::min(span.end, horizon);
      if (end <= start) continue;
      const double x = x_of(start);
      const double w = std::max(1.0, x_of(end) - x);
      const int y = options.margin_px + lane * options.lane_height_px + 1;
      svg << "<rect x=\"" << util::format_fixed(x, 1) << "\" y=\"" << y << "\" width=\""
          << util::format_fixed(w, 1) << "\" height=\"" << options.lane_height_px - 2
          << "\" fill=\"#d1605e\" opacity=\"0.25\" stroke=\"#d1605e\""
          << " stroke-dasharray=\"3,2\"><title>" << machine.name() << " FAILED "
          << util::format_fixed(start, 2) << "-" << util::format_fixed(end, 2)
          << "</title></rect>\n";
    }
  }

  // Execution spans.
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (!core::time_set(state.start_time[i]) ||
        state.machine[i] == workload::kNoMachine) {
      continue;
    }
    const core::SimTime start = state.start_time[i];
    const workload::TaskStatus status = state.status[i];
    // A span ends at completion, at a mid-run drop, or where a losing
    // replica was cut short mid-run.
    const bool dropped_midrun = status == workload::TaskStatus::kDropped;
    const bool replica_cancelled = status == workload::TaskStatus::kReplicaCancelled;
    if (!state.completed(i) && !dropped_midrun && !replica_cancelled) continue;
    const core::SimTime end = state.end_time[i];
    if (end <= start) continue;
    const int lane = static_cast<int>(state.machine[i]);
    const double x = x_of(start);
    const double w = std::max(1.0, x_of(end) - x);
    const int y = options.margin_px + lane * options.lane_height_px + 3;
    svg << "<rect x=\"" << util::format_fixed(x, 1) << "\" y=\"" << y << "\" width=\""
        << util::format_fixed(w, 1) << "\" height=\"" << options.lane_height_px - 6
        << "\" fill=\"" << fill_for_type(state.type(i)) << "\" opacity=\""
        << (dropped_midrun ? "0.45" : (replica_cancelled ? "0.3" : "0.9")) << "\"";
    if (replica_cancelled) svg << " stroke=\"#888\" stroke-dasharray=\"4,2\"";
    svg << "><title>task " << state.id(i) << " ("
        << simulation.eet().task_type_name(state.type(i)) << ") ";
    // Tenant label only on multi-tenant runs, so single-tenant SVGs (and any
    // golden expectations over them) stay byte-identical.
    if (state.tenant(i) < simulation.tenant_names().size() &&
        simulation.tenant_names().size() > 1) {
      svg << simulation.tenant_names()[state.tenant(i)] << " ";
    }
    svg << util::format_fixed(start, 2) << "-" << util::format_fixed(end, 2)
        << (dropped_midrun ? " DROPPED" : "");
    if (replica_cancelled && state.has_replica_column() &&
        state.replica_of[i] != workload::kNoTaskId) {
      svg << " replica of " << state.replica_of[i] << " REPLICA-CANCELLED";
    }
    svg << "</title></rect>\n";
    if (dropped_midrun && options.show_deadline_marks) {
      svg << "<line x1=\"" << util::format_fixed(x + w, 1) << "\" y1=\"" << y
          << "\" x2=\"" << util::format_fixed(x + w, 1) << "\" y2=\""
          << y + options.lane_height_px - 6 << "\" stroke=\"red\" stroke-width=\"2\"/>\n";
    }
  }

  // Checkpoint commits: short dark ticks at the bottom of each lane, so the
  // checkpoint cadence (and what a crash rolls back to) is visible.
  for (int lane = 0; lane < lanes; ++lane) {
    const machines::Machine& machine = simulation.machine(static_cast<std::size_t>(lane));
    for (const machines::CheckpointMark& mark : machine.checkpoint_marks()) {
      if (mark.time > horizon) continue;
      const double x = x_of(mark.time);
      const int y = options.margin_px + (lane + 1) * options.lane_height_px;
      svg << "<line x1=\"" << util::format_fixed(x, 1) << "\" y1=\"" << y - 8
          << "\" x2=\"" << util::format_fixed(x, 1) << "\" y2=\"" << y
          << "\" stroke=\"#222\" stroke-width=\"1.5\"><title>checkpoint task "
          << mark.task << " @ " << util::format_fixed(mark.time, 2)
          << "</title></line>\n";
    }
  }

  // Time axis ticks (5 divisions).
  for (int i = 0; i <= 5; ++i) {
    const double t = horizon * i / 5.0;
    const double x = x_of(t);
    svg << "<text x=\"" << util::format_fixed(x - 8, 1) << "\" y=\"" << height - 28
        << "\" fill=\"#555\">" << util::format_fixed(t, 1) << "</text>\n";
  }
  svg << "</svg>\n";
  return svg.str();
}

void save_gantt_svg(const sched::Simulation& simulation, const std::string& path,
                    const GanttOptions& options) {
  util::write_file(path, render_gantt_svg(simulation, options));
}

}  // namespace e2c::viz
