/// \file e2c_run.cpp
/// \brief The E2C command-line front-end.
///
/// Mirrors the GUI workflow without programming input from the user: load an
/// EET CSV and a workload CSV (or generate one at a named intensity), pick a
/// scheduling policy and machine-queue size, run (optionally animated in the
/// terminal), and save any of the four reports plus Gantt/HTML artifacts.
///
/// Examples:
///   e2c_run --eet data/eet_hetero.csv --workload data/workload_medium.csv
///           --policy MECT --summary -
///   e2c_run --eet data/eet_hetero.csv --generate medium --policy MM
///           --queue-size 2 --task-report out/tasks.csv --gantt out/run.svg
///   e2c_run --eet data/eet_hetero.csv --generate high --policy FCFS --live
#include <algorithm>
#include <array>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/spec_io.hpp"
#include "exp/tenants.hpp"
#include "fault/fault_model.hpp"
#include "hetero/pet_matrix.hpp"
#include "net/comm_model.hpp"
#include "reports/report.hpp"
#include "sched/registry.hpp"
#include "sched/simulation.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"
#include "util/string_util.hpp"
#include "viz/ascii_view.hpp"
#include "viz/controller.hpp"
#include "viz/gantt_svg.hpp"
#include "viz/html_report.hpp"
#include "workload/generator.hpp"
#include "workload/trace_stats.hpp"

namespace {

struct Options {
  std::string workload_path;
  std::optional<std::string> generate_intensity;
  std::string policy = "FCFS";
  std::uint64_t seed = 42;
  double duration = 200.0;
  bool live = false;
  double speed = 50.0;
  std::optional<std::string> summary_out;
  std::optional<std::string> task_out;
  std::optional<std::string> machine_out;
  std::optional<std::string> tenant_out;
  std::optional<std::string> full_out;
  std::optional<std::string> missed_out;
  std::optional<std::string> trace_stats_out;
  std::optional<std::string> gantt_out;
  std::optional<std::string> html_out;
  bool list_policies = false;
  bool help = false;
  // the system: EET, queues, PET, comm, elasticity, fault injection,
  // recovery strategy and shared checkpoint I/O, as the [system]/[faults]/
  // [recovery]/[io] keys of an experiment config (see kConfigFlags)
  e2c::util::IniFile config;
  // multi-tenant workloads
  std::size_t tenants = 1;
};

void print_usage() {
  std::cout <<
      R"(e2c_run — E2C heterogeneous-computing simulator (headless front-end)

Inputs:
  --eet FILE            EET matrix CSV (required unless --list-policies)
  --workload FILE       workload trace CSV
  --generate LEVEL      generate a workload instead: low | medium | high
  --duration SECONDS    arrival window for --generate (default 200)
  --seed N              generator seed (default 42)

Scheduling:
  --policy NAME         scheduling policy (default FCFS); see --list-policies
  --queue-size N        machine queue size for batch policies (default 2,
                        0 = unbounded; immediate policies are always unbounded)

Visualization:
  --live                animate the run in the terminal
  --speed X             simulated seconds per wall second for --live (default 50)

Substrates (optional):
  --pet KIND            stochastic execution times: normal | uniform |
                        exponential | lognormal (EET becomes the mean)
  --pet-cv X            coefficient of variation for --pet (default 0.3)
  --payload-mb X        enable the communication model with X MB per task
  --bandwidth Y         link bandwidth MB/s for --payload-mb (default 100)
  --latency Z           link latency seconds for --payload-mb (default 0)
  --autoscale           elastic fleet: machine 1 always on, the rest
                        powered by the autoscaler

Fault injection (optional):
  --mtbf X              enable stochastic machine failures with mean time
                        between failures X seconds (exponential)
  --mttr Y              mean time to repair seconds (default 5)
  --fault-seed N        seed of the failure processes (default 4195875351)
  --fault-trace FILE    trace-driven failures instead: CSV with header
                        machine,fail_time,repair_time (0-based machine index)
  --max-retries N       retries per fault-aborted task (default 3)
  --retry-backoff X     seconds before the first retry (default 1)
  --retry-backoff-factor X  backoff multiplier per retry (default 2)
  --retry-max-backoff X ceiling in seconds for any single backoff (default 300)

Recovery strategy (optional, needs --mtbf or --fault-trace):
  --recovery NAME       resubmit | checkpoint | replicate (default resubmit)
  --checkpoint-interval X  τ seconds between checkpoints; 0 = the Young/Daly
                        optimum sqrt(2*C*MTBF) (default 0)
  --checkpoint-cost X   C: seconds per checkpoint write (default 0.5)
  --restart-cost X      R: seconds to reload the last checkpoint (default 0.5)
  --replicas K          copies per task for --recovery replicate (default 2)

Shared checkpoint I/O (optional, needs --recovery checkpoint):
  --io-bandwidth B      enable the shared checkpoint channel with aggregate
                        bandwidth B bytes/s; concurrent checkpoint writes and
                        restart reads fair-share it and stretch each other
  --io-strategy NAME    selfish | cooperative (default selfish); cooperative
                        admits at most --io-writers concurrent checkpoint
                        writes and defers the rest
  --io-ckpt-bytes X     checkpoint image size in bytes; 0 (default) derives
                        checkpoint-cost * bandwidth
  --io-restart-bytes X  restart image size in bytes; 0 (default) derives
                        restart-cost * bandwidth
  --io-writers K        concurrent-writer cap for cooperative (default 1)

Multi-tenant workloads (optional, needs --generate):
  --tenants N           split the generated load across N independent tenants
                        sharing the machine set (and the I/O channel); the
                        run prints a per-tenant waste decomposition

Reports (PATH or '-' for stdout):
  --summary PATH        Summary Report CSV
  --task-report PATH    Task Report CSV
  --machine-report PATH Machine Report CSV
  --tenant-report PATH  per-tenant waste decomposition CSV (multi-tenant runs)
  --full-report PATH    Full Report CSV
  --missed-report PATH  Missed Tasks CSV (Fig. 4 panel)
  --trace-stats PATH    workload analysis CSV (rates, mix, offered load)
  --gantt PATH          execution Gantt as SVG
  --html PATH           one-page HTML report

Misc:
  --list-policies       print registered scheduling policies and exit
  --help                this text

Exit codes:
  0 success, 1 internal error, 2 invalid input (bad flags or malformed
  CSV/config), 3 I/O error (unreadable or unwritable file)
)";
}

/// A flag that sets one key of an experiment config. Its value is read,
/// checked and reported by the same code as the config file's
/// (exp::system_from_ini), with the flag as the key's locator.
struct ConfigFlag {
  std::string_view flag;
  std::string_view section;
  std::string_view key;
  std::string_view value = {};  ///< set by a flag that takes no value
};

constexpr std::array<ConfigFlag, 26> kConfigFlags{{
    {"--eet", "system", "eet"},
    {"--queue-size", "system", "queue_size"},
    {"--pet", "system", "pet"},
    {"--pet-cv", "system", "pet_cv"},
    {"--payload-mb", "system", "payload_mb"},
    {"--bandwidth", "system", "bandwidth"},
    {"--latency", "system", "latency"},
    {"--autoscale", "system", "autoscale", "true"},
    {"--mtbf", "faults", "mtbf"},
    {"--mttr", "faults", "mttr"},
    {"--fault-seed", "faults", "seed"},
    {"--fault-trace", "faults", "trace"},
    {"--max-retries", "faults", "max_retries"},
    {"--retry-backoff", "faults", "backoff"},
    {"--retry-backoff-factor", "faults", "backoff_factor"},
    {"--retry-max-backoff", "faults", "max_backoff"},
    {"--recovery", "recovery", "strategy"},
    {"--checkpoint-interval", "recovery", "checkpoint_interval"},
    {"--checkpoint-cost", "recovery", "checkpoint_cost"},
    {"--restart-cost", "recovery", "restart_cost"},
    {"--replicas", "recovery", "replicas"},
    {"--io-bandwidth", "io", "bandwidth"},
    {"--io-strategy", "io", "strategy"},
    {"--io-ckpt-bytes", "io", "checkpoint_bytes"},
    {"--io-restart-bytes", "io", "restart_bytes"},
    {"--io-writers", "io", "max_writers"},
}};

const ConfigFlag* find_config_flag(const std::string& arg) {
  const auto it = std::find_if(kConfigFlags.begin(), kConfigFlags.end(),
                               [&](const ConfigFlag& entry) { return entry.flag == arg; });
  return it == kConfigFlags.end() ? nullptr : &*it;
}

Options parse_args(const std::vector<std::string>& args) {
  Options options;
  const auto need_value = [&](std::size_t i, const std::string& flag) {
    e2c::require_input(i + 1 < args.size(), "missing value for " + flag);
    return args[i + 1];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") options.help = true;
    else if (arg == "--list-policies") options.list_policies = true;
    else if (arg == "--live") options.live = true;
    else if (arg == "--workload") options.workload_path = need_value(i++, arg);
    else if (arg == "--generate") options.generate_intensity = need_value(i++, arg);
    else if (arg == "--policy") options.policy = need_value(i++, arg);
    else if (arg == "--summary") options.summary_out = need_value(i++, arg);
    else if (arg == "--task-report") options.task_out = need_value(i++, arg);
    else if (arg == "--machine-report") options.machine_out = need_value(i++, arg);
    else if (arg == "--tenant-report") options.tenant_out = need_value(i++, arg);
    else if (arg == "--full-report") options.full_out = need_value(i++, arg);
    else if (arg == "--missed-report") options.missed_out = need_value(i++, arg);
    else if (arg == "--trace-stats") options.trace_stats_out = need_value(i++, arg);
    else if (arg == "--gantt") options.gantt_out = need_value(i++, arg);
    else if (arg == "--html") options.html_out = need_value(i++, arg);
    else if (arg == "--seed") {
      const auto value = e2c::util::parse_int(need_value(i++, arg));
      e2c::require_input(value.has_value() && *value >= 0, "--seed needs an integer >= 0");
      options.seed = static_cast<std::uint64_t>(*value);
    } else if (arg == "--duration") {
      const auto value = e2c::util::parse_double(need_value(i++, arg));
      e2c::require_input(value.has_value() && *value > 0, "--duration needs a number > 0");
      options.duration = *value;
    } else if (arg == "--speed") {
      const auto value = e2c::util::parse_double(need_value(i++, arg));
      e2c::require_input(value.has_value() && *value > 0, "--speed needs a number > 0");
      options.speed = *value;
    } else if (const ConfigFlag* flag = find_config_flag(arg)) {
      options.config.add(flag->section, flag->key,
                         flag->value.empty() ? need_value(i++, arg) : std::string(flag->value),
                         arg);
    } else if (arg == "--tenants") {
      const auto value = e2c::util::parse_int(need_value(i++, arg));
      e2c::require_input(value.has_value() && *value >= 1,
                         "--tenants needs an integer >= 1");
      options.tenants = static_cast<std::size_t>(*value);
    } else {
      throw e2c::InputError("unknown argument: " + arg + " (see --help)");
    }
  }
  return options;
}

void write_rows(const std::optional<std::string>& path,
                const std::vector<std::vector<std::string>>& rows) {
  if (!path) return;
  if (*path == "-") {
    std::cout << e2c::util::to_csv(rows);
  } else {
    e2c::util::write_csv_file(*path, rows);
    std::cout << "wrote " << *path << "\n";
  }
}

int run(const Options& options) {
  using namespace e2c;

  if (options.help) {
    print_usage();
    return 0;
  }
  if (options.list_policies) {
    std::cout << "registered scheduling policies:\n";
    for (const std::string& name : sched::PolicyRegistry::instance().names()) {
      const auto policy = sched::make_policy(name);
      std::cout << "  " << util::pad_right(name, 10) << " ("
                << (policy->mode() == sched::PolicyMode::kImmediate ? "immediate" : "batch")
                << ")\n";
    }
    return 0;
  }
  const util::IniFile& config = options.config;
  require_input(!config.get_or("system", "eet", "").empty(), "--eet is required (see --help)");
  // Section presence alone enables faults with a default mtbf, so a flag
  // must not start injecting failures without a fault source.
  require_input(!(config.has_section("faults") || config.has_section("recovery") ||
                  config.has_section("io")) ||
                    config.get("faults", "mtbf") || config.get("faults", "trace"),
                "retry/fault/recovery/io flags need --mtbf or --fault-trace");
  require_input(!config.has_section("io") || config.get("io", "bandwidth"),
                "--io-strategy/--io-ckpt-bytes/--io-restart-bytes/--io-writers "
                "need --io-bandwidth");
  // The reader rejects an inconsistent combination (exit 2), e.g. auto-τ with
  // a fault trace or more replicas than machines, before anything runs.
  const sched::SystemConfig system = exp::system_from_ini(config);
  const hetero::EetMatrix& eet = system.eet;
  if (system.pet) {
    std::cout << "stochastic execution: " << *config.get("system", "pet")
              << " (cv=" << system.pet->cell(0, 0).cv << ")\n";
  }
  if (system.comm) {
    std::cout << "communication model: " << system.comm->payload_mb(0) << " MB/task at "
              << system.comm->link(0).bandwidth_mb_per_s << " MB/s\n";
  }
  if (system.faults.enabled) {
    const fault::FaultConfig& faults = system.faults;
    const fault::RecoveryConfig& recovery = faults.recovery;
    if (faults.mode == fault::FaultMode::kTrace) {
      std::cout << "fault injection: trace " << *config.get("faults", "trace") << " ("
                << faults.trace.size() << " spans)\n";
    } else {
      std::cout << "fault injection: mtbf=" << faults.mtbf << "s mttr=" << faults.mttr
                << "s seed=" << faults.seed << "\n";
    }
    if (faults.io.enabled) {
      const fault::IoConfig& io = faults.io;
      std::cout << "io channel: bandwidth=" << io.bandwidth << " B/s strategy="
                << fault::io_strategy_name(io.strategy);
      if (io.strategy == fault::IoStrategy::kCooperative) {
        std::cout << " max_writers=" << io.max_writers;
      }
      std::cout << " write=" << io.effective_checkpoint_bytes(recovery.checkpoint_cost)
                << " B read=" << io.effective_restart_bytes(recovery.restart_cost)
                << " B\n";
    }
    if (recovery.strategy == fault::RecoveryStrategy::kCheckpoint) {
      std::cout << "recovery: checkpoint interval=";
      if (recovery.checkpoint_interval > 0.0) {
        std::cout << recovery.checkpoint_interval << "s (fixed)";
      } else {
        std::cout << util::format_fixed(faults.effective_checkpoint_interval(), 2)
                  << "s (Young/Daly)";
      }
      std::cout << " cost=" << recovery.checkpoint_cost
                << "s restart=" << recovery.restart_cost << "s\n";
    } else if (recovery.strategy == fault::RecoveryStrategy::kReplicate) {
      std::cout << "recovery: replicate k=" << recovery.replicas << "\n";
    }
  }
  if (system.autoscaler.enabled) {
    std::cout << "autoscaler enabled (machine 1 always on)\n";
  }

  const auto machine_types = exp::machine_types_of(system);
  workload::Workload trace;
  std::vector<std::string> tenant_names;
  if (options.tenants > 1) {
    require_input(options.generate_intensity.has_value(),
                  "--tenants needs --generate (tenant traces are synthesized "
                  "per tenant; a workload CSV is single-tenant)");
    const double total_rho = workload::intensity_offered_load(
        workload::parse_intensity(*options.generate_intensity));
    std::vector<e2c::exp::TenantSpec> tenants;
    for (std::size_t i = 0; i < options.tenants; ++i) {
      e2c::exp::TenantSpec spec;
      spec.name = "tenant" + std::to_string(i);
      spec.rho = total_rho / static_cast<double>(options.tenants);
      spec.duration = options.duration;
      spec.seed = options.seed + i;
      tenants.push_back(std::move(spec));
    }
    trace = e2c::exp::make_multi_tenant_workload(system, tenants);
    tenant_names = e2c::exp::tenant_names(tenants);
    std::cout << "generated " << trace.size() << " tasks across " << options.tenants
              << " tenants at aggregate intensity '" << *options.generate_intensity
              << "'\n";
  } else if (options.generate_intensity) {
    workload::GeneratorConfig generator = workload::config_for_intensity(
        eet, machine_types, workload::parse_intensity(*options.generate_intensity),
        options.duration, options.seed);
    trace = workload::generate_workload(eet, generator);
    std::cout << "generated " << trace.size() << " tasks at intensity '"
              << *options.generate_intensity << "'\n";
  } else {
    require_input(!options.workload_path.empty(),
                  "either --workload or --generate is required");
    trace = workload::Workload::load_csv(options.workload_path, eet);
  }

  viz::SimulationController controller([&] {
    auto simulation =
        std::make_unique<sched::Simulation>(system, sched::make_policy(options.policy));
    simulation->load(trace);
    if (!tenant_names.empty()) simulation->set_tenant_names(tenant_names);
    return simulation;
  });

  if (options.live) {
    controller.set_speed(options.speed);
    viz::AsciiViewOptions view;
    view.clear_screen = true;
    controller.play([&](const sched::Simulation& simulation) {
      std::cout << viz::render_frame(simulation, view) << std::flush;
      return true;
    });
    view.clear_screen = false;
    std::cout << viz::render_frame(controller.simulation(), view);
  } else {
    controller.run_to_completion();
  }

  const sched::Simulation& simulation = controller.simulation();
  const auto& counters = simulation.counters();
  std::cout << "policy=" << simulation.policy().name() << " tasks=" << counters.total
            << " completed=" << counters.completed << " cancelled=" << counters.cancelled
            << " dropped=" << counters.dropped;
  if (system.faults.enabled) {
    std::cout << " failed=" << counters.failed << " requeued=" << counters.requeued;
  }
  std::cout << " completion=" << util::format_fixed(counters.completion_percent(), 2)
            << "%\n";
  std::cout << viz::render_missed_panel(simulation);

  if (simulation.tenant_names().size() > 1) {
    for (const exp::TenantOutcome& tenant : exp::tenant_outcomes(simulation)) {
      std::cout << "  " << tenant.name << ": tasks=" << tenant.tasks
                << " completed=" << tenant.completed
                << " useful=" << util::format_fixed(tenant.useful_seconds, 2)
                << "s lost=" << util::format_fixed(tenant.lost_seconds, 2)
                << "s ckpt=" << util::format_fixed(tenant.checkpoint_overhead_seconds, 2)
                << "s waste=" << util::format_fixed(tenant.waste_seconds(), 2) << "s\n";
    }
  }

  write_rows(options.summary_out, reports::summary_report(simulation));
  write_rows(options.task_out, reports::task_report(simulation));
  write_rows(options.machine_out, reports::machine_report(simulation));
  write_rows(options.tenant_out, exp::tenant_report_rows(simulation));
  write_rows(options.full_out, reports::full_report(simulation));
  write_rows(options.missed_out, reports::missed_report(simulation));
  if (options.trace_stats_out) {
    auto stats_rows =
        workload::trace_stats_csv(workload::compute_trace_stats(trace, eet), eet);
    stats_rows.push_back({"offered_load",
                          util::format_fixed(
                              workload::offered_load(trace, eet, machine_types), 3)});
    write_rows(options.trace_stats_out, stats_rows);
  }
  if (options.gantt_out) {
    viz::save_gantt_svg(simulation, *options.gantt_out);
    std::cout << "wrote " << *options.gantt_out << "\n";
  }
  if (options.html_out) {
    viz::save_html_report(simulation, *options.html_out);
    std::cout << "wrote " << *options.html_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Exit codes: 0 success, 1 internal error, 2 invalid input, 3 I/O error.
  try {
    return run(parse_args({argv + 1, argv + argc}));
  } catch (const e2c::InputError& error) {
    std::cerr << "e2c_run: " << error.what() << "\n";
    return 2;
  } catch (const e2c::IoError& error) {
    std::cerr << "e2c_run: " << error.what() << "\n";
    return 3;
  } catch (const std::exception& error) {
    std::cerr << "e2c_run: " << error.what() << "\n";
    return 1;
  }
}
