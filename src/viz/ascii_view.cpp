#include "viz/ascii_view.hpp"

#include <sstream>

#include "util/string_util.hpp"

namespace e2c::viz {

namespace {

/// Cycle of ANSI foreground colors, one per task type (mirrors the GUI's
/// per-type machine colors in Fig. 1).
const char* type_color(std::size_t type, bool use_color) {
  if (!use_color) return "";
  static const char* kColors[] = {"\033[36m", "\033[33m", "\033[35m",
                                  "\033[32m", "\033[34m", "\033[31m"};
  return kColors[type % (sizeof(kColors) / sizeof(kColors[0]))];
}

const char* reset_color(bool use_color) { return use_color ? "\033[0m" : ""; }

std::string task_chip(const sched::Simulation& simulation, workload::TaskId id,
                      const AsciiViewOptions& options) {
  // Find the task to color it by type; linear scan is fine for display sizes.
  const workload::TaskStateSoA& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state.id(i) != id) continue;
    std::ostringstream out;
    out << type_color(state.type(i), options.use_color) << "["
        << simulation.eet().task_type_name(state.type(i)) << "#" << id << "]"
        << reset_color(options.use_color);
    return out.str();
  }
  return "[?#" + std::to_string(id) + "]";
}

}  // namespace

std::string render_frame(const sched::Simulation& simulation,
                         const AsciiViewOptions& options) {
  std::ostringstream out;
  if (options.clear_screen) out << "\033[H\033[2J";

  out << "E2C  t=" << util::format_fixed(simulation.engine().now(), 2)
      << "  policy=" << simulation.policy().name()
      << "  events=" << simulation.engine().processed_count() << "\n";

  // Batch queue (Fig. 1: tasks waiting for the scheduler).
  const auto batch = simulation.batch_queue_ids();
  out << "  batch queue (" << batch.size() << "): ";
  for (std::size_t i = 0; i < batch.size() && i < options.queue_display; ++i) {
    out << task_chip(simulation, batch[i], options) << " ";
  }
  if (batch.size() > options.queue_display) out << "…";
  out << "\n  scheduler --> machines\n";

  // Machines with running task + local queue.
  for (std::size_t m = 0; m < simulation.machine_count(); ++m) {
    const machines::Machine& machine = simulation.machine(m);
    out << "  " << util::pad_right(machine.name(), 10) << " ";
    if (machine.failed()) {
      out << (options.use_color ? "\033[31mFAILED\033[0m" : "FAILED");
    } else if (const auto running = machine.running_task_id()) {
      out << "RUN " << task_chip(simulation, *running, options);
    } else if (!machine.online()) {
      out << "off";
    } else {
      out << "idle";
    }
    const auto queued = machine.queued_task_ids();
    out << "  queue(" << queued.size() << "):";
    for (std::size_t i = 0; i < queued.size() && i < options.queue_display; ++i) {
      out << " " << task_chip(simulation, queued[i], options);
    }
    if (queued.size() > options.queue_display) out << " …";
    out << "\n";
  }

  const auto& counters = simulation.counters();
  out << "  completed=" << counters.completed << "  cancelled=" << counters.cancelled
      << "  missed=" << counters.dropped << "  failed=" << counters.failed
      << "  total=" << counters.total << "\n";
  if (simulation.fault_config().enabled) {
    out << "  waste: lost=" << util::format_fixed(simulation.lost_work_seconds(), 1)
        << "s ckpt=" << util::format_fixed(simulation.checkpoint_overhead_seconds(), 1)
        << "s replicas="
        << util::format_fixed(counters.cancelled_replica_seconds, 1) << "s\n";
    if (const fault::IoChannel* channel = simulation.io_channel()) {
      out << "  io: active=" << channel->active_count()
          << " waiting=" << channel->waiting_count()
          << " writes=" << channel->writes_completed()
          << " reads=" << channel->reads_completed()
          << " peak=" << channel->peak_concurrent() << "\n";
    }
  }
  // Per-tenant waste lines only on multi-tenant runs, so single-tenant
  // frames (and their golden expectations) are untouched.
  if (simulation.tenant_names().size() > 1) {
    std::vector<double> lost(simulation.tenant_names().size(), 0.0);
    std::vector<double> ckpt(lost.size(), 0.0);
    const workload::TaskStateSoA& state = simulation.task_state();
    for (std::size_t i = 0; i < state.size(); ++i) {
      const std::uint32_t tenant = state.tenant(i);
      if (tenant >= lost.size()) continue;
      lost[tenant] += state.lost_seconds(i);
      ckpt[tenant] += state.checkpoint_overhead_seconds(i);
    }
    for (std::size_t i = 0; i < lost.size(); ++i) {
      out << "  " << simulation.tenant_names()[i]
          << ": lost=" << util::format_fixed(lost[i], 1)
          << "s ckpt=" << util::format_fixed(ckpt[i], 1) << "s\n";
    }
  }
  return out.str();
}

std::string render_missed_panel(const sched::Simulation& simulation, std::size_t max_rows) {
  std::ostringstream out;
  out << "Missed Tasks\n";
  out << util::pad_right("task", 7) << util::pad_right("type", 6)
      << util::pad_right("machine", 9) << util::pad_right("arrival", 9)
      << util::pad_right("start", 9) << util::pad_right("missed", 9) << "\n";
  std::size_t shown = 0;
  const workload::TaskStateSoA& state = simulation.task_state();
  for (const std::size_t i : simulation.missed_tasks()) {
    if (shown++ >= max_rows) {
      out << "…\n";
      break;
    }
    const std::string machine = state.machine[i] != workload::kNoMachine
                                    ? simulation.machine(state.machine[i]).name()
                                    : "-";
    out << util::pad_right(std::to_string(state.id(i)), 7)
        << util::pad_right(simulation.eet().task_type_name(state.type(i)), 6)
        << util::pad_right(machine, 9)
        << util::pad_right(util::format_fixed(state.arrival(i), 2), 9)
        << util::pad_right(core::time_set(state.start_time[i])
                               ? util::format_fixed(state.start_time[i], 2)
                               : "-",
                           9)
        << util::pad_right(core::time_set(state.missed_time(i))
                               ? util::format_fixed(state.missed_time(i), 2)
                               : "-",
                           9)
        << "\n";
  }
  return out.str();
}

}  // namespace e2c::viz
