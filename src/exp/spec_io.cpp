#include "exp/spec_io.hpp"

#include <optional>
#include <string>
#include <type_traits>

#include "exp/scenario.hpp"
#include "fault/fault_model.hpp"
#include "hetero/pet_matrix.hpp"
#include "net/comm_model.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "viz/bar_chart_svg.hpp"

namespace e2c::exp {

namespace {

/// section.key when present, as a boolean (true/yes/on/1 or false/no/off/0).
std::optional<bool> get_flag(const util::IniFile& ini, const std::string& section,
                             const std::string& key) {
  const auto value = ini.get(section, key);
  if (!value) return std::nullopt;
  for (const char* yes : {"true", "yes", "on", "1"}) {
    if (util::iequals(*value, yes)) return true;
  }
  for (const char* no : {"false", "no", "off", "0"}) {
    if (util::iequals(*value, no)) return false;
  }
  throw InputError("experiment config: " + section + "." + key + " must be a boolean, got '" +
                   *value + "' (" + ini.where(section, key) + ")");
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

/// get_bounded into \p field, converted, when the key is present.
template <typename Field, typename T>
void read_bounded(Field& field, const util::IniFile& ini, const std::string& section,
                  const std::string& key, T min, bool strict = false, const char* note = "") {
  if (const auto value = get_bounded(ini, section, key, min, strict, note)) {
    field = static_cast<Field>(*value);
  }
}

/// \p name, a value of section.key, read by \p parse: one of the readers of
/// a named choice (an intensity, a PET kind, a strategy), which throw
/// e2c::InputError on an unknown name. The error gains the key's where()
/// locator, as a bound violation does.
template <typename Parse>
auto parse_named(const util::IniFile& ini, const std::string& section, const std::string& key,
                 const std::string& name, Parse parse) {
  try {
    return parse(name);
  } catch (const InputError& error) {
    throw InputError(std::string(error.what()) + " (" + ini.where(section, key) + ")");
  }
}

void faults_from_ini(const util::IniFile& ini, fault::FaultConfig& faults) {
  if (!ini.has_section("faults")) return;
  faults.enabled = true;
  if (const auto enabled = get_flag(ini, "faults", "enabled")) faults.enabled = *enabled;
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
  read_bounded(faults.mtbf, ini, "faults", "mtbf", 0.0, true);
  read_bounded(faults.mttr, ini, "faults", "mttr", 0.0, true);
  read_bounded(faults.seed, ini, "faults", "seed", 0LL);
  fault::RetryPolicy& retry = faults.retry;
  read_bounded(retry.max_retries, ini, "faults", "max_retries", 0LL);
  read_bounded(retry.backoff_base, ini, "faults", "backoff", 0.0);
  read_bounded(retry.backoff_factor, ini, "faults", "backoff_factor", 1.0);
  read_bounded(retry.max_backoff, ini, "faults", "max_backoff", 0.0, true);
}

void recovery_from_ini(const util::IniFile& ini, fault::FaultConfig& faults,
                       std::size_t machine_count) {
  if (!ini.has_section("recovery")) return;
  require_input(ini.has_section("faults"),
                "experiment config: [recovery] needs a [faults] section — recovery "
                "strategies only act on injected failures");
  fault::RecoveryConfig& recovery = faults.recovery;
  if (const auto strategy = ini.get("recovery", "strategy")) {
    recovery.strategy = parse_named(ini, "recovery", "strategy", *strategy,
                                    fault::parse_recovery_strategy);
  }
  read_bounded(recovery.checkpoint_interval, ini, "recovery", "checkpoint_interval", 0.0, false,
               ", 0 derives the Young/Daly optimum");
  read_bounded(recovery.checkpoint_cost, ini, "recovery", "checkpoint_cost", 0.0);
  read_bounded(recovery.restart_cost, ini, "recovery", "restart_cost", 0.0);
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
  read_bounded(io.checkpoint_bytes, ini, "io", "checkpoint_bytes", 0.0, false,
               ", 0 derives checkpoint_cost x bandwidth");
  read_bounded(io.restart_bytes, ini, "io", "restart_bytes", 0.0, false,
               ", 0 derives restart_cost x bandwidth");
  if (const auto strategy = ini.get("io", "strategy")) {
    io.strategy = parse_named(ini, "io", "strategy", *strategy, fault::parse_io_strategy);
  }
  read_bounded(io.max_writers, ini, "io", "max_writers", 1LL);
}

/// [system] scenario | eet, and queue_size: the machines and their queues.
sched::SystemConfig machines_from_ini(const util::IniFile& ini) {
  std::size_t queue = 2;
  read_bounded(queue, ini, "system", "queue_size", 0LL, false, ", 0 = unbounded");
  if (const auto eet_path = ini.get("system", "eet")) {
    return sched::make_default_system(hetero::EetMatrix::load_csv(*eet_path), queue);
  }
  const std::string scenario = ini.get_or("system", "scenario", "heterogeneous");
  if (util::iequals(scenario, "heterogeneous")) return heterogeneous_classroom(queue);
  if (util::iequals(scenario, "homogeneous")) return homogeneous_classroom(queue);
  throw InputError("experiment config: unknown scenario '" + scenario +
                   "' (heterogeneous | homogeneous | eet = file.csv)");
}

/// Throws unless \p key is absent or \p needed is present, naming both.
void require_pair(const util::IniFile& ini, const std::string& key, const std::string& needed,
                  const char* why) {
  require_input(!ini.get("system", key) || ini.get("system", needed), [&] {
    return "experiment config: system." + key + " needs system." + needed + ": " + why +
           " (" + ini.where("system", key) + ", " + ini.where("system", needed) + ")";
  });
}

/// [system] pet and pet_cv: stochastic execution times around the EET.
void pet_from_ini(const util::IniFile& ini, sched::SystemConfig& system) {
  require_pair(ini, "pet_cv", "pet", "the cv shapes the PET distribution");
  double cv = 0.3;
  read_bounded(cv, ini, "system", "pet_cv", 0.0);
  if (const auto kind = ini.get("system", "pet")) {
    system.pet = hetero::PetMatrix::homoscedastic(
        system.eet, parse_named(ini, "system", "pet", *kind, hetero::parse_pet_kind), cv);
  }
}

/// [system] payload_mb, bandwidth (MB/s) and latency (s): one payload for
/// every task type over one link to every machine type.
void comm_from_ini(const util::IniFile& ini, sched::SystemConfig& system) {
  for (const char* key : {"bandwidth", "latency"}) {
    require_pair(ini, key, "payload_mb", "the link carries task payloads only");
  }
  const auto payload = get_bounded(ini, "system", "payload_mb", 0.0);
  net::LinkSpec link{0.0, 100.0};
  read_bounded(link.bandwidth_mb_per_s, ini, "system", "bandwidth", 0.0, true);
  read_bounded(link.latency_seconds, ini, "system", "latency", 0.0);
  if (!payload) return;
  system.comm = net::CommModel::uniform(system.eet.task_type_count(),
                                        system.eet.machine_type_count(), *payload, link);
}

/// [system] autoscale: the classroom elasticity preset. Machine 1 stays on;
/// the rest start offline and boot (2 s) when the batch queue reaches 4,
/// checked every 2 s. The preset is fixed: only the switch is a key.
void autoscaler_from_ini(const util::IniFile& ini, sched::SystemConfig& system) {
  if (!get_flag(ini, "system", "autoscale").value_or(false)) return;
  system.autoscaler = {.enabled = true, .interval = 2.0, .queue_high = 4, .queue_low = 0,
                       .boot_delay = 2.0, .min_online = 1, .initially_offline = {}};
  for (std::size_t m = 1; m < system.machines.size(); ++m) {
    system.autoscaler.initially_offline.push_back(m);
  }
}

}  // namespace

sched::SystemConfig system_from_ini(const util::IniFile& ini) {
  sched::SystemConfig system = machines_from_ini(ini);
  pet_from_ini(ini, system);
  comm_from_ini(ini, system);
  autoscaler_from_ini(ini, system);
  // [faults] — presence of the section enables fault injection unless
  // `enabled = false` opts out explicitly.
  fault::FaultConfig& faults = system.faults;
  faults_from_ini(ini, faults);
  // [recovery] — checkpoint/replicate parameters; needs [faults] to matter.
  recovery_from_ini(ini, faults, system.machines.size());
  // [io] — shared checkpoint-I/O channel; needs [recovery]'s checkpoint
  // strategy (FaultConfig::validate enforces the combination).
  io_from_ini(ini, faults);
  faults.validate(system.machines.size());
  return system;
}

ExperimentSpec spec_from_ini(const util::IniFile& ini) {
  ExperimentSpec spec;
  spec.system = system_from_ini(ini);

  // [sweep]
  spec.policies = ini.get_list("sweep", "policies");
  require_input(!spec.policies.empty(), "experiment config: sweep.policies is required");
  const auto intensities = ini.get_list("sweep", "intensities");
  require_input(!intensities.empty(), "experiment config: sweep.intensities is required");
  for (const std::string& name : intensities) {
    spec.intensities.push_back(
        parse_named(ini, "sweep", "intensities", name, workload::parse_intensity));
  }
  read_bounded(spec.replications, ini, "sweep", "replications", 1LL);
  read_bounded(spec.duration, ini, "sweep", "duration", 0.0, true);
  read_bounded(spec.base_seed, ini, "sweep", "seed", 0LL);
  if (const auto arrival = ini.get("sweep", "arrival")) {
    spec.arrival = parse_named(ini, "sweep", "arrival", *arrival, workload::parse_arrival_kind);
  }
  read_bounded(spec.deadline_factor_lo, ini, "sweep", "deadline_lo", 0.0, true);
  read_bounded(spec.deadline_factor_hi, ini, "sweep", "deadline_hi", 0.0, true);
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

void write_outputs(const ExperimentResult& result, const ExperimentOutputs& outputs) {
  if (outputs.csv_path) {
    util::write_csv_file(*outputs.csv_path, result_csv(result));
  }
  if (outputs.chart_svg_path) {
    viz::save_bar_chart_svg(completion_chart(result, outputs.title),
                            *outputs.chart_svg_path);
  }
}

}  // namespace e2c::exp
