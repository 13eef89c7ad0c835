#include "exp/spec_io.hpp"

#include "exp/scenario.hpp"
#include "fault/fault_model.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "viz/bar_chart_svg.hpp"

namespace e2c::exp {

namespace {

workload::Intensity parse_intensity(const std::string& name) {
  if (util::iequals(name, "low")) return workload::Intensity::kLow;
  if (util::iequals(name, "medium")) return workload::Intensity::kMedium;
  if (util::iequals(name, "high")) return workload::Intensity::kHigh;
  throw InputError("experiment config: unknown intensity '" + name + "'");
}

bool parse_flag(const std::string& value, const std::string& what) {
  if (util::iequals(value, "true") || util::iequals(value, "yes") ||
      util::iequals(value, "on") || value == "1") {
    return true;
  }
  if (util::iequals(value, "false") || util::iequals(value, "no") ||
      util::iequals(value, "off") || value == "0") {
    return false;
  }
  throw InputError("experiment config: " + what + " must be a boolean, got '" + value +
                   "'");
}

void faults_from_ini(const util::IniFile& ini, fault::FaultConfig& faults) {
  if (!ini.has_section("faults")) return;
  faults.enabled = true;
  if (const auto enabled = ini.get("faults", "enabled")) {
    faults.enabled = parse_flag(*enabled, "faults.enabled");
  }
  if (const auto trace = ini.get("faults", "trace")) {
    faults.mode = fault::FaultMode::kTrace;
    faults.trace = fault::load_fault_trace_csv(*trace);
  }
  // Value checks happen here, with the defining line in the message, so a
  // typo is reported when the config loads — not replications later
  // mid-sweep (FaultConfig::validate stays as the programmatic backstop).
  if (const auto mtbf = ini.get_double("faults", "mtbf")) {
    require_input(*mtbf > 0.0, "experiment config: faults.mtbf must be > 0 (" +
                                   ini.where("faults", "mtbf") + ")");
    faults.mtbf = *mtbf;
  }
  if (const auto mttr = ini.get_double("faults", "mttr")) {
    require_input(*mttr > 0.0, "experiment config: faults.mttr must be > 0 (" +
                                   ini.where("faults", "mttr") + ")");
    faults.mttr = *mttr;
  }
  if (const auto seed = ini.get_int("faults", "seed")) {
    faults.seed = static_cast<std::uint64_t>(*seed);
  }
  if (const auto retries = ini.get_int("faults", "max_retries")) {
    require_input(*retries >= 0, "experiment config: faults.max_retries must be >= 0 (" +
                                     ini.where("faults", "max_retries") + ")");
    faults.retry.max_retries = static_cast<std::size_t>(*retries);
  }
  if (const auto backoff = ini.get_double("faults", "backoff")) {
    require_input(*backoff >= 0.0, "experiment config: faults.backoff must be >= 0 (" +
                                       ini.where("faults", "backoff") + ")");
    faults.retry.backoff_base = *backoff;
  }
  if (const auto factor = ini.get_double("faults", "backoff_factor")) {
    require_input(*factor >= 1.0,
                  "experiment config: faults.backoff_factor must be >= 1 (" +
                      ini.where("faults", "backoff_factor") + ")");
    faults.retry.backoff_factor = *factor;
  }
  if (const auto cap = ini.get_double("faults", "max_backoff")) {
    require_input(*cap > 0.0, "experiment config: faults.max_backoff must be > 0 (" +
                                  ini.where("faults", "max_backoff") + ")");
    faults.retry.max_backoff = *cap;
  }
}

void recovery_from_ini(const util::IniFile& ini, fault::FaultConfig& faults,
                       std::size_t machine_count) {
  if (!ini.has_section("recovery")) return;
  require_input(ini.has_section("faults"),
                "experiment config: [recovery] needs a [faults] section — recovery "
                "strategies only act on injected failures");
  fault::RecoveryConfig& recovery = faults.recovery;
  if (const auto strategy = ini.get("recovery", "strategy")) {
    recovery.strategy = fault::parse_recovery_strategy(*strategy);
  }
  if (const auto interval = ini.get_double("recovery", "checkpoint_interval")) {
    require_input(*interval >= 0.0,
                  "experiment config: recovery.checkpoint_interval must be >= 0, 0 "
                  "derives the Young/Daly optimum (" +
                      ini.where("recovery", "checkpoint_interval") + ")");
    recovery.checkpoint_interval = *interval;
  }
  if (const auto cost = ini.get_double("recovery", "checkpoint_cost")) {
    require_input(*cost >= 0.0,
                  "experiment config: recovery.checkpoint_cost must be >= 0 (" +
                      ini.where("recovery", "checkpoint_cost") + ")");
    recovery.checkpoint_cost = *cost;
  }
  if (const auto cost = ini.get_double("recovery", "restart_cost")) {
    require_input(*cost >= 0.0,
                  "experiment config: recovery.restart_cost must be >= 0 (" +
                      ini.where("recovery", "restart_cost") + ")");
    recovery.restart_cost = *cost;
  }
  if (const auto replicas = ini.get_int("recovery", "replicas")) {
    require_input(*replicas >= 1, "experiment config: recovery.replicas must be >= 1 (" +
                                      ini.where("recovery", "replicas") + ")");
    require_input(static_cast<std::size_t>(*replicas) <= machine_count,
                  "experiment config: recovery.replicas (" + std::to_string(*replicas) +
                      ") exceed the machine count (" + std::to_string(machine_count) +
                      "); replicas must run on distinct machines (" +
                      ini.where("recovery", "replicas") + ")");
    recovery.replicas = static_cast<std::size_t>(*replicas);
  }
}

void io_from_ini(const util::IniFile& ini, fault::FaultConfig& faults) {
  if (!ini.has_section("io")) return;
  require_input(ini.has_section("recovery"),
                "experiment config: [io] needs a [recovery] section with the "
                "checkpoint strategy — the channel carries checkpoint/restart "
                "traffic only");
  fault::IoConfig& io = faults.io;
  io.enabled = true;
  const auto bandwidth = ini.get_double("io", "bandwidth");
  require_input(bandwidth.has_value(),
                "experiment config: io.bandwidth is required (bytes/second of the "
                "shared checkpoint channel)");
  require_input(*bandwidth > 0.0, "experiment config: io.bandwidth must be > 0 (" +
                                      ini.where("io", "bandwidth") + ")");
  io.bandwidth = *bandwidth;
  if (const auto bytes = ini.get_double("io", "checkpoint_bytes")) {
    require_input(*bytes >= 0.0,
                  "experiment config: io.checkpoint_bytes must be >= 0, 0 derives "
                  "checkpoint_cost x bandwidth (" +
                      ini.where("io", "checkpoint_bytes") + ")");
    io.checkpoint_bytes = *bytes;
  }
  if (const auto bytes = ini.get_double("io", "restart_bytes")) {
    require_input(*bytes >= 0.0,
                  "experiment config: io.restart_bytes must be >= 0, 0 derives "
                  "restart_cost x bandwidth (" +
                      ini.where("io", "restart_bytes") + ")");
    io.restart_bytes = *bytes;
  }
  if (const auto strategy = ini.get("io", "strategy")) {
    io.strategy = fault::parse_io_strategy(*strategy);
  }
  if (const auto writers = ini.get_int("io", "max_writers")) {
    require_input(*writers >= 1, "experiment config: io.max_writers must be >= 1 (" +
                                     ini.where("io", "max_writers") + ")");
    io.max_writers = static_cast<std::size_t>(*writers);
  }
}

}  // namespace

ExperimentSpec spec_from_ini(const util::IniFile& ini) {
  ExperimentSpec spec;

  // [system]
  const std::string scenario = ini.get_or("system", "scenario", "heterogeneous");
  const auto queue_size = ini.get_int("system", "queue_size");
  const std::size_t queue =
      queue_size ? static_cast<std::size_t>(*queue_size) : std::size_t{2};
  if (const auto eet_path = ini.get("system", "eet")) {
    spec.system =
        sched::make_default_system(hetero::EetMatrix::load_csv(*eet_path), queue);
  } else if (util::iequals(scenario, "heterogeneous")) {
    spec.system = heterogeneous_classroom(queue);
  } else if (util::iequals(scenario, "homogeneous")) {
    spec.system = homogeneous_classroom(queue);
  } else {
    throw InputError("experiment config: unknown scenario '" + scenario +
                     "' (heterogeneous | homogeneous | eet = file.csv)");
  }

  // [faults] — presence of the section enables fault injection unless
  // `enabled = false` opts out explicitly. Validate here so a bad value is
  // reported when the config loads, not replications later mid-sweep.
  faults_from_ini(ini, spec.system.faults);
  // [recovery] — checkpoint/replicate parameters; needs [faults] to matter.
  recovery_from_ini(ini, spec.system.faults, spec.system.machines.size());
  // [io] — shared checkpoint-I/O channel; needs [recovery]'s checkpoint
  // strategy (FaultConfig::validate enforces the combination).
  io_from_ini(ini, spec.system.faults);
  spec.system.faults.validate(spec.system.machines.size());

  // [sweep]
  spec.policies = ini.get_list("sweep", "policies");
  require_input(!spec.policies.empty(), "experiment config: sweep.policies is required");
  const auto intensities = ini.get_list("sweep", "intensities");
  require_input(!intensities.empty(), "experiment config: sweep.intensities is required");
  spec.intensities.clear();
  for (const std::string& name : intensities) {
    spec.intensities.push_back(parse_intensity(name));
  }
  if (const auto reps = ini.get_int("sweep", "replications")) {
    require_input(*reps > 0, "experiment config: replications must be > 0");
    spec.replications = static_cast<std::size_t>(*reps);
  }
  if (const auto duration = ini.get_double("sweep", "duration")) {
    require_input(*duration > 0, "experiment config: duration must be > 0");
    spec.duration = *duration;
  }
  if (const auto seed = ini.get_int("sweep", "seed")) {
    spec.base_seed = static_cast<std::uint64_t>(*seed);
  }
  if (const auto arrival = ini.get("sweep", "arrival")) {
    spec.arrival = workload::parse_arrival_kind(*arrival);
  }
  if (const auto lo = ini.get_double("sweep", "deadline_lo")) spec.deadline_factor_lo = *lo;
  if (const auto hi = ini.get_double("sweep", "deadline_hi")) spec.deadline_factor_hi = *hi;
  require_input(spec.deadline_factor_lo > 0 &&
                    spec.deadline_factor_hi >= spec.deadline_factor_lo,
                "experiment config: deadline factors must satisfy 0 < lo <= hi");
  return spec;
}

ExperimentOutputs outputs_from_ini(const util::IniFile& ini) {
  ExperimentOutputs outputs;
  outputs.title = ini.get_or("output", "title", "experiment");
  if (const auto csv = ini.get("output", "csv")) outputs.csv_path = *csv;
  if (const auto svg = ini.get("output", "chart_svg")) outputs.chart_svg_path = *svg;
  return outputs;
}

ExperimentResult run_experiment_file(const std::string& path, std::size_t workers,
                                     const ProgressFn& progress) {
  return run_experiment_file(util::IniFile::load(path), workers, progress);
}

void write_outputs(const ExperimentResult& result, const ExperimentOutputs& outputs) {
  if (outputs.csv_path) {
    util::write_csv_file(*outputs.csv_path, result_csv(result));
  }
  if (outputs.chart_svg_path) {
    viz::save_bar_chart_svg(completion_chart(result, outputs.title),
                            *outputs.chart_svg_path);
  }
}

ExperimentResult run_experiment_file(const util::IniFile& ini, std::size_t workers,
                                     const ProgressFn& progress) {
  RunOptions options;
  options.workers = workers;
  options.progress = progress;
  ExperimentResult result = run_experiment(spec_from_ini(ini), options);
  write_outputs(result, outputs_from_ini(ini));
  return result;
}

}  // namespace e2c::exp
