#include "exp/spec_io.hpp"

#include <optional>
#include <string>
#include <type_traits>

#include "exp/scenario.hpp"
#include "fault/fault_model.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "viz/bar_chart_svg.hpp"

namespace e2c::exp {

namespace {

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

/// section.key when present, as a double (T = double) or an integer
/// (T = long long). A value below \p min, or equal to it when \p strict,
/// is rejected with the key's where() locator; \p note follows the bound in
/// the message. Checking here reports a typo when the config loads, not
/// replications later mid-sweep (FaultConfig::validate stays as the
/// programmatic backstop).
template <typename T>
std::optional<T> get_bounded(const util::IniFile& ini, const std::string& section,
                             const std::string& key, T min, bool strict = false,
                             const char* note = "") {
  std::optional<T> value;
  if constexpr (std::is_same_v<T, double>) {
    value = ini.get_double(section, key);
  } else {
    value = ini.get_int(section, key);
  }
  // Written as "in range" so a NaN fails it.
  if (value && !(strict ? *value > min : *value >= min)) {
    throw InputError("experiment config: " + section + "." + key + " must be " +
                     (strict ? "> " : ">= ") + std::to_string(static_cast<long long>(min)) +
                     note + " (" + ini.where(section, key) + ")");
  }
  return value;
}

void faults_from_ini(const util::IniFile& ini, fault::FaultConfig& faults) {
  if (!ini.has_section("faults")) return;
  faults.enabled = true;
  if (const auto enabled = ini.get("faults", "enabled")) {
    faults.enabled = parse_flag(*enabled, "faults.enabled");
  }
  if (const auto trace = ini.get("faults", "trace")) {
    require_input(!ini.get("faults", "mtbf"),
                  "experiment config: faults.mtbf and faults.trace are mutually "
                  "exclusive: failures are either stochastic or trace-driven (" +
                      ini.where("faults", "mtbf") + ", " + ini.where("faults", "trace") +
                      ")");
    faults.mode = fault::FaultMode::kTrace;
    // A disabled section injects nothing, so its trace file need not exist.
    if (faults.enabled) faults.trace = fault::load_fault_trace_csv(*trace);
  }
  if (const auto mtbf = get_bounded(ini, "faults", "mtbf", 0.0, true)) faults.mtbf = *mtbf;
  if (const auto mttr = get_bounded(ini, "faults", "mttr", 0.0, true)) faults.mttr = *mttr;
  if (const auto seed = get_bounded(ini, "faults", "seed", 0LL)) {
    faults.seed = static_cast<std::uint64_t>(*seed);
  }
  fault::RetryPolicy& retry = faults.retry;
  if (const auto retries = get_bounded(ini, "faults", "max_retries", 0LL)) {
    retry.max_retries = static_cast<std::size_t>(*retries);
  }
  if (const auto backoff = get_bounded(ini, "faults", "backoff", 0.0)) {
    retry.backoff_base = *backoff;
  }
  if (const auto factor = get_bounded(ini, "faults", "backoff_factor", 1.0)) {
    retry.backoff_factor = *factor;
  }
  if (const auto cap = get_bounded(ini, "faults", "max_backoff", 0.0, true)) {
    retry.max_backoff = *cap;
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
  if (const auto interval = get_bounded(ini, "recovery", "checkpoint_interval", 0.0, false,
                                        ", 0 derives the Young/Daly optimum")) {
    recovery.checkpoint_interval = *interval;
  }
  if (const auto cost = get_bounded(ini, "recovery", "checkpoint_cost", 0.0)) {
    recovery.checkpoint_cost = *cost;
  }
  if (const auto cost = get_bounded(ini, "recovery", "restart_cost", 0.0)) {
    recovery.restart_cost = *cost;
  }
  if (const auto replicas = get_bounded(ini, "recovery", "replicas", 1LL)) {
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
  const auto bandwidth = get_bounded(ini, "io", "bandwidth", 0.0, true);
  require_input(bandwidth.has_value(),
                "experiment config: io.bandwidth is required (bytes/second of the "
                "shared checkpoint channel)");
  io.bandwidth = *bandwidth;
  if (const auto bytes = get_bounded(ini, "io", "checkpoint_bytes", 0.0, false,
                                     ", 0 derives checkpoint_cost x bandwidth")) {
    io.checkpoint_bytes = *bytes;
  }
  if (const auto bytes = get_bounded(ini, "io", "restart_bytes", 0.0, false,
                                     ", 0 derives restart_cost x bandwidth")) {
    io.restart_bytes = *bytes;
  }
  if (const auto strategy = ini.get("io", "strategy")) {
    io.strategy = fault::parse_io_strategy(*strategy);
  }
  if (const auto writers = get_bounded(ini, "io", "max_writers", 1LL)) {
    io.max_writers = static_cast<std::size_t>(*writers);
  }
}

}  // namespace

fault::FaultConfig fault_config_from_ini(const util::IniFile& ini,
                                         std::size_t machine_count) {
  fault::FaultConfig faults;
  // [faults] — presence of the section enables fault injection unless
  // `enabled = false` opts out explicitly.
  faults_from_ini(ini, faults);
  // [recovery] — checkpoint/replicate parameters; needs [faults] to matter.
  recovery_from_ini(ini, faults, machine_count);
  // [io] — shared checkpoint-I/O channel; needs [recovery]'s checkpoint
  // strategy (FaultConfig::validate enforces the combination).
  io_from_ini(ini, faults);
  faults.validate(machine_count);
  return faults;
}

ExperimentSpec spec_from_ini(const util::IniFile& ini) {
  ExperimentSpec spec;

  // [system]
  const std::string scenario = ini.get_or("system", "scenario", "heterogeneous");
  const auto queue_size =
      get_bounded(ini, "system", "queue_size", 0LL, false, ", 0 = unbounded");
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

  // [faults], [recovery], [io]
  spec.system.faults = fault_config_from_ini(ini, spec.system.machines.size());

  // [sweep]
  spec.policies = ini.get_list("sweep", "policies");
  require_input(!spec.policies.empty(), "experiment config: sweep.policies is required");
  const auto intensities = ini.get_list("sweep", "intensities");
  require_input(!intensities.empty(), "experiment config: sweep.intensities is required");
  spec.intensities.clear();
  for (const std::string& name : intensities) {
    spec.intensities.push_back(workload::parse_intensity(name));
  }
  if (const auto reps = get_bounded(ini, "sweep", "replications", 1LL)) {
    spec.replications = static_cast<std::size_t>(*reps);
  }
  if (const auto duration = get_bounded(ini, "sweep", "duration", 0.0, true)) {
    spec.duration = *duration;
  }
  if (const auto seed = get_bounded(ini, "sweep", "seed", 0LL)) {
    spec.base_seed = static_cast<std::uint64_t>(*seed);
  }
  if (const auto arrival = ini.get("sweep", "arrival")) {
    spec.arrival = workload::parse_arrival_kind(*arrival);
  }
  if (const auto lo = get_bounded(ini, "sweep", "deadline_lo", 0.0, true)) {
    spec.deadline_factor_lo = *lo;
  }
  if (const auto hi = get_bounded(ini, "sweep", "deadline_hi", 0.0, true)) {
    spec.deadline_factor_hi = *hi;
  }
  require_input(spec.deadline_factor_lo <= spec.deadline_factor_hi,
                "experiment config: sweep.deadline_lo must be <= sweep.deadline_hi (" +
                    ini.where("sweep", "deadline_lo") + ", " +
                    ini.where("sweep", "deadline_hi") + ")");
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
