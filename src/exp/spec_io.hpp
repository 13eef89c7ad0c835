/// \file spec_io.hpp
/// \brief Experiment specs from INI config files — the researcher workflow
/// without writing C++.
///
/// Example config (see data/experiment_example.ini):
///
///   [system]
///   scenario = heterogeneous      ; or homogeneous, or eet = path/to.csv
///   queue_size = 2                ; machine queue slots; 0 = unbounded
///   pet = lognormal               ; optional stochastic execution around the EET:
///                                 ; normal | uniform | exponential | lognormal
///   pet_cv = 0.3                  ; coefficient of variation (needs pet)
///   payload_mb = 4                ; optional communication model: MB per task
///   bandwidth = 100               ; link MB/s (needs payload_mb; [io] bandwidth is B/s)
///   latency = 0                   ; link latency in seconds (needs payload_mb)
///   autoscale = false             ; true: machine 1 always on, the rest started
///                                 ; by the autoscaler (a fixed preset)
///
///   [faults]                      ; optional; presence enables fault injection
///   mtbf = 100                    ; mean time between failures (s)
///   mttr = 5                      ; mean time to repair (s)
///   seed = 4199266839             ; master seed for the failure processes
///   ; trace = faults.csv          ; trace-driven failures instead of mtbf; the
///                                 ; two keys are mutually exclusive
///   max_retries = 3               ; retries per aborted task
///   backoff = 1.0                 ; seconds before the first retry
///   backoff_factor = 2.0          ; backoff multiplier per retry
///   max_backoff = 300             ; ceiling (s) for any single backoff
///   enabled = true                ; set false to keep the section but opt out
///
///   [recovery]                    ; optional; needs [faults]
///   strategy = checkpoint         ; resubmit | checkpoint | replicate
///   checkpoint_interval = 0       ; τ (s); 0 = Young/Daly √(2·C·MTBF)
///   checkpoint_cost = 0.5         ; C (s) per checkpoint write
///   restart_cost = 0.5            ; R (s) to reload the last checkpoint
///   replicas = 2                  ; k copies for strategy = replicate
///
///   [io]                          ; optional; needs [recovery] strategy = checkpoint
///   bandwidth = 100e6             ; bytes/s of the shared checkpoint channel (required)
///   checkpoint_bytes = 0          ; image size per write; 0 = checkpoint_cost·bandwidth
///   restart_bytes = 0             ; image size per read; 0 = restart_cost·bandwidth
///   strategy = selfish            ; selfish | cooperative
///   max_writers = 1               ; concurrent-writer cap for cooperative
///
///   [sweep]
///   policies = FCFS, MECT, MM
///   intensities = low, medium, high
///   replications = 20
///   duration = 300
///   seed = 42
///   arrival = poisson
///   deadline_lo = 2.0
///   deadline_hi = 4.0
///
///   [output]
///   title = my experiment
///   csv = results.csv             ; optional
///   chart_svg = results.svg       ; optional
#pragma once

#include <optional>
#include <string>

#include "exp/experiment.hpp"
#include "sched/simulation.hpp"
#include "util/ini.hpp"

namespace e2c::exp {

/// Output destinations of a config-driven experiment.
struct ExperimentOutputs {
  std::string title = "experiment";
  std::optional<std::string> csv_path;
  std::optional<std::string> chart_svg_path;
};

/// Builds the simulated system from [system], [faults], [recovery] and [io].
/// Throws e2c::InputError naming the offending key's where() locator. This
/// is the only reader of these settings: spec_from_ini calls it, and e2c_run
/// maps its system flags onto the same keys with IniFile::add.
[[nodiscard]] sched::SystemConfig system_from_ini(const util::IniFile& ini);

/// Builds an ExperimentSpec from a parsed config. Throws e2c::InputError on
/// missing/invalid fields (unknown scenario, unknown policy names are caught
/// later by run_experiment).
[[nodiscard]] ExperimentSpec spec_from_ini(const util::IniFile& ini);

/// Reads the [output] section.
[[nodiscard]] ExperimentOutputs outputs_from_ini(const util::IniFile& ini);

/// Writes the CSV and completion chart \p outputs names for \p result.
void write_outputs(const ExperimentResult& result, const ExperimentOutputs& outputs);

}  // namespace e2c::exp
