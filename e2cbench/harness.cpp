#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "exp/scenario.hpp"
#include "exp/sim_pool.hpp"
#include "reports/metrics.hpp"
#include "sched/registry.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace e2cbench {

namespace {

/// JSON has no infinity; a failed operation's +inf latency prints as the
/// largest double so the percentile still reads as "missed every limit".
std::string json_number(double value) {
  if (std::isnan(value)) return "null";
  if (std::isinf(value)) value = std::numeric_limits<double>::max();
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

void Result::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Result::fail(const std::string& reason) {
  correct_ = false;
  std::cerr << "e2cbench: INCORRECT: " << reason << "\n";
}

void Result::merge_missing(const Result& other) {
  correct_ = correct_ && other.correct_;
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const Metric& metric : other.metrics_) {
    const bool present = std::any_of(metrics_.begin(), metrics_.end(),
                                      [&](const Metric& m) { return m.name == metric.name; });
    if (!present) metrics_.push_back(metric);
  }
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": "
      << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
        << "\": {\"value\": " << json_number(metrics_[i].value) << ", \"unit\": \""
        << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  const std::size_t index = std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index), samples.end());
  return samples[index];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double peak_rss_mb(long pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  long kb = 0;
  while (std::getline(status, line)) {
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) break;
  }
  return static_cast<double>(kb) / 1024.0;
}

std::vector<int> pick_cpus(std::size_t first, std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> usable;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(static_cast<std::size_t>(cpu), &allowed)) usable.push_back(cpu);
    }
  }
  std::vector<int> cpus;
  for (std::size_t i = 0; i < count && !usable.empty(); ++i) {
    cpus.push_back(usable[(first + i) % usable.size()]);
  }
  return cpus;
}

void pin(long pid, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(static_cast<std::size_t>(cpu), &set);
  (void)::sched_setaffinity(static_cast<pid_t>(pid), sizeof set, &set);
}

void Digest::add(std::uint64_t value) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    hash_ ^= (value >> shift) & 0xFF;
    hash_ *= 0x100000001B3ULL;
  }
}

void Digest::add_double(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

void digest_simulation(Digest& digest, const e2c::sched::Simulation& simulation) {
  const e2c::sched::SimulationCounters& counters = simulation.counters();
  digest.add(simulation.engine().processed_count());
  digest.add(counters.total);
  digest.add(counters.completed);
  digest.add(counters.cancelled);
  digest.add(counters.dropped);
  digest.add(counters.failed);
  digest.add(counters.requeued);
  digest.add(counters.replicas_cancelled);
  digest.add_double(counters.cancelled_replica_seconds);
  digest.add(simulation.scheduler_invocations());
}

bool check_recorded_digest(const Options& options, std::uint64_t digest) {
  if (options.digest_dir.empty()) return true;
  namespace fs = std::filesystem;
  const fs::path path = fs::path(options.digest_dir) /
                        (options.workload + "-" + std::to_string(options.seed) + ".digest");
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  if (std::ifstream in(path); in) {
    std::string recorded;
    in >> recorded;
    if (recorded != hex) {
      std::cerr << "e2cbench: digest " << hex << " differs from the " << recorded
                << " recorded in " << path.string() << "\n";
      return false;
    }
    return true;
  }
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << hex << "\n";
  if (!out.good()) throw e2c::IoError("cannot record digest at " + path.string());
  return true;
}

int Tracer::open(const char* name, std::uint64_t request, int parent) {
  if (!enabled_) return -1;
  const double now = seconds_between(epoch_, Clock::now());
  spans_.push_back({name, now, now, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = seconds_between(epoch_, Clock::now());
}

int Tracer::record(const char* name, std::uint64_t request, Clock::time_point start,
                   Clock::time_point end, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, seconds_between(epoch_, start), seconds_between(epoch_, end),
                    parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::write(const std::string& path) const {
  namespace fs = std::filesystem;
  if (fs::path(path).has_parent_path()) fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start\": " << json_number(span.start)
        << ", \"end\": " << json_number(span.end) << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << "}\n";
  }
  if (!out.good()) throw e2c::IoError("cannot write spans to " + path);
}

void TimingPolicy::schedule_into(e2c::sched::SchedulingContext& context,
                                 std::vector<e2c::sched::Assignment>& out) {
  const std::size_t depth = context.batch_queue().size();
  const Clock::time_point start = Clock::now();
  inner_->schedule_into(context, out);
  const double seconds = seconds_between(start, Clock::now());
  ++stats_.rounds;
  if (!out.empty()) ++stats_.useful_rounds;
  stats_.assignments += out.size();
  stats_.queue_depth_sum += depth;
  stats_.policy_seconds += seconds;
  stats_.round_us.push_back(static_cast<float>(seconds * 1e6));
}

std::unique_ptr<e2c::sched::Policy> make_policy(const std::string& name, RoundStats* stats) {
  std::unique_ptr<e2c::sched::Policy> policy = e2c::sched::make_policy(name);
  if (stats == nullptr) return policy;
  return std::make_unique<TimingPolicy>(std::move(policy), *stats);
}

void report_round_stats(Result& result, const RoundStats& stats, std::size_t runs,
                        double run_seconds, double events_per_run) {
  const double per_run = 1.0 / static_cast<double>(std::max<std::size_t>(runs, 1));
  const double rounds = static_cast<double>(std::max<std::uint64_t>(stats.rounds, 1));
  const double policy_s = stats.policy_seconds * per_run;
  std::vector<double> round_us(stats.round_us.begin(), stats.round_us.end());
  result.metric("sched.policy_s", policy_s, "s");
  result.metric("sched.round_p50_us", round_us.empty() ? 0.0 : nearest_rank(round_us, 0.50),
                "us");
  result.metric("sched.round_p99_us", round_us.empty() ? 0.0 : nearest_rank(round_us, 0.99),
                "us");
  result.metric("sched.rounds", static_cast<double>(stats.rounds) * per_run, "count");
  result.metric("sched.assignments", static_cast<double>(stats.assignments) * per_run,
                "count");
  result.metric("sched.queue_depth_mean", static_cast<double>(stats.queue_depth_sum) / rounds,
                "tasks");
  result.metric("sched.useful_round_frac", static_cast<double>(stats.useful_rounds) / rounds,
                "ratio");
  const double self_s = run_seconds - policy_s;
  result.metric("core.events", events_per_run, "count");
  result.metric("core.self_s", self_s, "s");
  result.metric("core.ns_per_event", events_per_run > 0.0 ? self_s * 1e9 / events_per_run : 0.0,
                "ns");
}

void FaultTally::add(const e2c::sched::Simulation& simulation) {
  ++runs;
  requeued += static_cast<double>(simulation.counters().requeued);
  checkpoints += static_cast<double>(simulation.checkpoints_taken());
  const e2c::workload::TaskStateSoA& state = simulation.task_state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    useful_seconds += state.useful_seconds[i];
    machine_seconds += state.machine_seconds[i];
  }
}

void FaultTally::merge(const FaultTally& other) {
  requeued += other.requeued;
  checkpoints += other.checkpoints;
  useful_seconds += other.useful_seconds;
  machine_seconds += other.machine_seconds;
  runs += other.runs;
}

void FaultTally::report(Result& result) const {
  const double per_run = 1.0 / static_cast<double>(std::max<std::size_t>(runs, 1));
  result.metric("fault.requeued", requeued * per_run, "count");
  result.metric("fault.checkpoints_taken", checkpoints * per_run, "count");
  result.metric("fault.useful_frac",
                machine_seconds > 0.0 ? useful_seconds / machine_seconds : 0.0, "ratio");
}

Replay replay_experiment(const e2c::exp::ExperimentSpec& spec, RoundStats* stats,
                         Tracer& tracer, std::uint64_t request, int parent) {
  const SpanScope replay_span(tracer, "exp.replay", request, parent);
  Replay replay;
  Digest digest;
  const Clock::time_point start = Clock::now();
  const auto system = std::make_shared<const e2c::sched::SystemConfig>(spec.system);
  const auto machine_types = e2c::exp::machine_types_of(spec.system);

  std::vector<std::vector<std::shared_ptr<const e2c::workload::Workload>>> traces;
  for (const e2c::workload::Intensity intensity : spec.intensities) {
    std::vector<std::shared_ptr<const e2c::workload::Workload>> per_rep;
    for (std::size_t rep = 0; rep < spec.replications; ++rep) {
      const Clock::time_point t0 = Clock::now();
      per_rep.push_back(std::make_shared<const e2c::workload::Workload>(
          e2c::exp::detail::generate_trace(spec, machine_types, intensity, rep)));
      const Clock::time_point t1 = Clock::now();
      tracer.record("exp.generate_trace", request, t0, t1, replay_span.id());
      replay.generate_s += seconds_between(t0, t1);
    }
    traces.push_back(std::move(per_rep));
  }

  e2c::exp::ExperimentResult result;
  for (const std::string& policy : spec.policies) {
    for (std::size_t i = 0; i < spec.intensities.size(); ++i) {
      e2c::exp::CellResult cell;
      cell.policy = policy;
      cell.intensity = spec.intensities[i];
      for (std::size_t rep = 0; rep < spec.replications; ++rep) {
        const int unit_span = tracer.open("exp.unit", request, replay_span.id());
        const Clock::time_point t0 = Clock::now();
        e2c::sched::Simulation& simulation =
            e2c::exp::lease_simulation(system, make_policy(policy, stats));
        simulation.load(traces[i][rep]);
        const Clock::time_point t1 = Clock::now();
        simulation.run();
        const Clock::time_point t2 = Clock::now();
        cell.runs.push_back(e2c::reports::compute_metrics(simulation));
        const Clock::time_point t3 = Clock::now();
        tracer.record("exp.lease_load", request, t0, t1, unit_span);
        tracer.record("sched.run", request, t1, t2, unit_span);
        tracer.record("reports.compute_metrics", request, t2, t3, unit_span);
        tracer.close(unit_span);
        replay.load_s += seconds_between(t0, t1);
        replay.run_s += seconds_between(t1, t2);
        replay.metrics_s += seconds_between(t2, t3);
        replay.events += static_cast<double>(simulation.engine().processed_count());
        digest_simulation(digest, simulation);
        replay.faults.add(simulation);
        ++replay.units;
      }
      result.cells.push_back(std::move(cell));
    }
  }
  // The leases are keyed by this replay's private SystemConfig; drop them so
  // repeated replays do not accumulate cached simulations.
  e2c::exp::purge_simulations(system.get());
  replay.csv = e2c::util::to_csv(e2c::exp::result_csv(result));
  replay.digest = digest.value();
  replay.seconds = seconds_between(start, Clock::now());
  return replay;
}

void report_overhead(Result& result, double bare_events_per_s, double traced_events_per_s) {
  result.metric("trace.overhead_frac",
                bare_events_per_s > 0.0
                    ? (bare_events_per_s - traced_events_per_s) / bare_events_per_s
                    : 0.0,
                "ratio");
}

}  // namespace e2cbench
