// The single-simulation workloads: `megarun` and `overload`.
//
// Both run one Simulation on the heterogeneous classroom system (x86 CPU,
// GPU, FPGA, ASIC; machine queues of 2) over a shared generated trace, and
// differ in where host time goes:
//
//  - megarun: MM at offered load 0.9, 2M tasks. The batch queue drains every
//    round, so time goes to the event calendar, the task columns and the
//    machines, with the mapper a minority. Trace generation dominates set-up.
//  - overload: ELARE at offered load 4 with deadlines of 40-80x the mean
//    EET, 100k tasks. Hundreds of tasks wait in the batch queue, so the
//    mapper dominates run(); a third of the tasks are cancelled.
//
// A job is reset + load + run + compute_metrics on the loaded trace: what a
// user waits for to get one simulation's summary. Every job replays the
// same trace, so every job's digest must equal the warm-up job's.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "harness.hpp"
#include "reports/metrics.hpp"
#include "workload/generator.hpp"

namespace e2cbench {

namespace {

struct SimWorkload {
  const char* policy;
  double rho;
  std::size_t tasks;
  double deadline_factor_lo;
  double deadline_factor_hi;
};

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct JobOutcome {
  double job_seconds = 0.0;
  double run_seconds = 0.0;
  double metrics_seconds = 0.0;
  double events = 0.0;
  std::uint64_t digest = 0;
};

constexpr SimWorkload kMegarun{"MM", 0.9, 2'000'000, 2.0, 4.0};
constexpr SimWorkload kOverload{"ELARE", 4.0, 100'000, 40.0, 80.0};

std::shared_ptr<const e2c::sched::SystemConfig> classroom() {
  return std::make_shared<const e2c::sched::SystemConfig>(
      e2c::exp::heterogeneous_classroom(2));
}

/// The trace generator of \p shape for \p tasks tasks: arrivals at offered
/// load rho, the window stretched to hold the task count.
e2c::workload::GeneratorConfig generator_for(const SimWorkload& shape,
                                             const e2c::sched::SystemConfig& system,
                                             std::size_t tasks, std::uint64_t seed) {
  e2c::workload::GeneratorConfig generator = e2c::workload::config_for_offered_load(
      system.eet, e2c::exp::machine_types_of(system), shape.rho, /*duration=*/1.0, seed);
  generator.duration = static_cast<double>(tasks) / generator.rate;
  generator.deadline_factor_lo = shape.deadline_factor_lo;
  generator.deadline_factor_hi = shape.deadline_factor_hi;
  return generator;
}

void run_simulation_workload(const SimWorkload& shape, const Options& options,
                             Result& result, Tracer& tracer) {
  pin(0, pick_cpus(3, 1));
  const auto system = classroom();
  const e2c::workload::GeneratorConfig generator =
      generator_for(shape, *system, shape.tasks, options.seed);

  // ---- set-up: generate the trace, build the Simulation, load ------------
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> load_s;
  std::shared_ptr<const e2c::workload::Workload> trace;
  std::unique_ptr<e2c::sched::Simulation> simulation;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    simulation.reset();  // one trace and one Simulation alive at a time
    trace.reset();
    const SpanScope setup_span(tracer, "setup", 0);
    const Clock::time_point t0 = Clock::now();
    trace = std::make_shared<const e2c::workload::Workload>(
        e2c::workload::generate_workload(system->eet, generator));
    const Clock::time_point t1 = Clock::now();
    simulation = std::make_unique<e2c::sched::Simulation>(
        system, make_policy(shape.policy, nullptr));
    simulation->load(trace);
    const Clock::time_point t2 = Clock::now();
    tracer.record("workload.generate_workload", 0, t0, t1, setup_span.id());
    tracer.record("sched.construct_load", 0, t1, t2, setup_span.id());
    generate_s.push_back(seconds_between(t0, t1));
    load_s.push_back(seconds_between(t1, t2));
    setup_s.push_back(seconds_between(t0, t2));
  }

  FaultTally faults;
  std::uint64_t request = 0;
  const auto job = [&](RoundStats* stats) {
    const SpanScope job_span(tracer, stats != nullptr ? "job.traced" : "job", ++request);
    JobOutcome outcome;
    const Clock::time_point t0 = Clock::now();
    simulation->reset(make_policy(shape.policy, stats));
    simulation->load(trace);
    const Clock::time_point t1 = Clock::now();
    simulation->run();
    const Clock::time_point t2 = Clock::now();
    const e2c::reports::Metrics metrics = e2c::reports::compute_metrics(*simulation);
    const Clock::time_point t3 = Clock::now();
    tracer.record("sched.reset_load", request, t0, t1, job_span.id());
    tracer.record("sched.run", request, t1, t2, job_span.id());
    tracer.record("reports.compute_metrics", request, t2, t3, job_span.id());
    outcome.job_seconds = seconds_between(t0, t3);
    outcome.run_seconds = seconds_between(t1, t2);
    outcome.metrics_seconds = seconds_between(t2, t3);
    outcome.events = static_cast<double>(simulation->engine().processed_count());
    Digest digest;
    digest_simulation(digest, *simulation);
    outcome.digest = digest.value();
    if (metrics.total_tasks != trace->size()) {
      result.fail("compute_metrics counted " + std::to_string(metrics.total_tasks) +
                  " tasks for a trace of " + std::to_string(trace->size()));
      outcome.digest = 0;
    }
    if (stats != nullptr) faults.add(*simulation);
    return outcome;
  };

  // ---- warm-up: one untimed job; its digest is the run's reference -------
  const JobOutcome warmup = job(nullptr);
  const std::uint64_t reference = warmup.digest;
  const bool recorded = check_recorded_digest(options, reference);
  result.operation(recorded);
  if (!recorded) result.fail("simulated outputs differ from the digest recorded for this seed");

  // ---- timed phase ---------------------------------------------------------
  // Untraced: bare jobs back to back. Traced: bare and wrapped jobs
  // alternate, so the tracing overhead is measured on the same trace and the
  // wrapper's transparency is checked job by job.
  std::vector<JobOutcome> bare;
  std::vector<JobOutcome> wrapped;
  RoundStats stats;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  while (bare.empty() || (options.trace && wrapped.empty()) || Clock::now() < deadline) {
    const bool traced_job = options.trace && wrapped.size() < bare.size();
    JobOutcome outcome;
    bool ok = true;
    try {
      outcome = job(traced_job ? &stats : nullptr);
      ok = outcome.digest == reference;
      if (!ok) result.fail("a job's simulated outputs differ from the warm-up job's");
    } catch (const std::exception& error) {
      ok = false;
      result.fail(std::string("job threw: ") + error.what());
    }
    result.operation(ok);
    (traced_job ? wrapped : bare).push_back(outcome);
  }

  const auto column = [](const std::vector<JobOutcome>& jobs, auto field) {
    std::vector<double> values;
    for (const JobOutcome& outcome : jobs) values.push_back(field(outcome));
    return values;
  };
  const auto rate = [](const JobOutcome& o) { return o.events / o.run_seconds; };
  const std::vector<double> job_s =
      column(bare, [](const JobOutcome& o) { return o.job_seconds; });
  const double median_job_s = median(job_s);
  std::cerr << "e2cbench: " << options.workload << " jobs=" << bare.size()
            << " (traced " << wrapped.size() << ") events/job=" << warmup.events
            << " median job " << median_job_s << " s; run() seconds:";
  for (const JobOutcome& outcome : bare) std::cerr << " " << outcome.run_seconds;
  std::cerr << "\n";

  if (!options.trace) {
    result.metric("events_per_s", median(column(bare, rate)), "1/s");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("replications_per_s", 1.0 / median_job_s, "1/s");
    result.metric("jobs_per_s", 1.0 / median_job_s, "1/s");
    result.metric("job_p50_ms", median_job_s * 1e3, "ms");
    result.metric("job_p99_ms", nearest_rank(job_s, 0.99) * 1e3, "ms");
    return;
  }
  result.metric("workload.generate_s", median(generate_s), "s");
  result.metric("sched.load_s", median(load_s), "s");
  const double traced_run_s =
      median(column(wrapped, [](const JobOutcome& o) { return o.run_seconds; }));
  report_round_stats(result, stats, wrapped.size(), traced_run_s, warmup.events);
  result.metric("reports.metrics_s",
                median(column(bare, [](const JobOutcome& o) { return o.metrics_seconds; })),
                "s");
  faults.report(result);
  report_overhead(result, median(column(bare, rate)), median(column(wrapped, rate)));
  result.metric("bench.warmup_s", warmup.job_seconds, "s");
}

}  // namespace

void run_megarun(const Options& options, Result& result, Tracer& tracer) {
  run_simulation_workload(kMegarun, options, result, tracer);
}

void run_overload(const Options& options, Result& result, Tracer& tracer) {
  run_simulation_workload(kOverload, options, result, tracer);
}

std::uint64_t overload_digest(std::uint64_t seed, std::size_t tasks, bool wrapped) {
  const auto system = classroom();
  const auto trace = std::make_shared<const e2c::workload::Workload>(
      e2c::workload::generate_workload(system->eet,
                                       generator_for(kOverload, *system, tasks, seed)));
  RoundStats stats;
  e2c::sched::Simulation simulation(system,
                                    make_policy(kOverload.policy, wrapped ? &stats : nullptr));
  simulation.load(trace);
  simulation.run();
  Digest digest;
  digest_simulation(digest, simulation);
  return digest.value();
}

}  // namespace e2cbench
