// The `sweep` workload: the policy x intensity experiments of the paper's
// evaluation at the scale of a comparative study.
//
// run_experiment on the threads backend (shared data plane, 2 workers) over
// {MECT, MM, ELARE, FTMIN-EET} x {low, medium, high} x 50 replications, on a
// 1024-task-type x 4-machine EET catalog with a 1000 s arrival window, with
// stochastic machine faults (MTBF 200 s, MTTR 10 s) and checkpoint
// recovery. Thousands of short replications: the traces are small, and host
// time goes to per-replication trace generation, Simulation lease resets and
// the thread pool, with a calendar busy cancelling fault-path events.
//
// A job is one run_experiment call. Every job runs the same spec, so every
// job's result CSV must equal the warm-up job's; after the timed phase a
// serial replay of the same units must reproduce that CSV byte for byte.
#include <iostream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "hetero/eet_matrix.hpp"
#include "harness.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace e2cbench {

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kReplications = 50;
constexpr int kSetupRepeats = 3;

/// The catalog is fixed (it is part of the system, like the classroom EET);
/// the seed selects the sweep's workload traces and fault schedules.
e2c::exp::ExperimentSpec sweep_spec(std::uint64_t seed) {
  e2c::util::Rng rng(0xE2CBE4C11);
  std::vector<std::string> task_names;
  std::vector<std::string> machine_names;
  for (int t = 0; t < 1024; ++t) {
    task_names.push_back("heterogeneous-workload-task-type-" + std::to_string(t));
  }
  for (int m = 0; m < 4; ++m) {
    machine_names.push_back("edge-accelerator-machine-type-" + std::to_string(m));
  }
  e2c::exp::ExperimentSpec spec;
  spec.system = e2c::sched::make_default_system(
      e2c::hetero::EetMatrix::random(std::move(task_names), std::move(machine_names),
                                     /*base=*/2.0, /*task_range=*/4.0,
                                     /*machine_range=*/4.0, /*inconsistent=*/true, rng),
      /*machine_queue_capacity=*/2);
  spec.system.faults.enabled = true;
  spec.system.faults.mtbf = 200.0;
  spec.system.faults.mttr = 10.0;
  std::uint64_t fault_state = seed ^ 0xFA17ULL;
  spec.system.faults.seed = e2c::util::splitmix64(fault_state);
  spec.system.faults.recovery.strategy = e2c::fault::RecoveryStrategy::kCheckpoint;
  spec.policies = {"MECT", "MM", "ELARE", "FTMIN-EET"};
  spec.intensities = {e2c::workload::Intensity::kLow, e2c::workload::Intensity::kMedium,
                      e2c::workload::Intensity::kHigh};
  spec.replications = kReplications;
  spec.duration = 1000.0;
  spec.base_seed = seed;
  return spec;
}

struct SweepJob {
  double seconds = 0.0;
  std::uint64_t csv_digest = 0;
  std::size_t failed_cells = 0;
};

SweepJob run_sweep_job(const e2c::exp::ExperimentSpec& spec, Tracer& tracer,
                       std::uint64_t request) {
  const SpanScope span(tracer, "exp.run_experiment", request);
  e2c::exp::RunOptions run;
  run.workers = kWorkers;
  run.plane = e2c::exp::DataPlane::kShared;
  run.backend = e2c::exp::Backend::kThreads;
  const Clock::time_point start = Clock::now();
  const e2c::exp::ExperimentResult result = e2c::exp::run_experiment(spec, run);
  SweepJob job;
  job.seconds = seconds_between(start, Clock::now());
  job.csv_digest = fnv1a(e2c::util::to_csv(e2c::exp::result_csv(result)));
  for (const e2c::exp::CellResult& cell : result.cells) {
    if (cell.status != e2c::exp::CellStatus::kOk) ++job.failed_cells;
  }
  return job;
}

}  // namespace

void run_sweep(const Options& options, Result& result, Tracer& tracer) {
  pin(0, pick_cpus(2, kWorkers));  // the pool's threads inherit the placement
  const std::size_t cells = 4 * 3;
  // ---- set-up: build the spec and run one untimed warm-up sweep ----------
  std::vector<double> setup_s;
  e2c::exp::ExperimentSpec spec;
  SweepJob warmup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const SpanScope setup_span(tracer, "setup", 0);
    const Clock::time_point start = Clock::now();
    spec = sweep_spec(options.seed);
    warmup = run_sweep_job(spec, tracer, 0);
    setup_s.push_back(seconds_between(start, Clock::now()));
    for (std::size_t c = 0; c < cells; ++c) result.operation(c >= warmup.failed_cells);
  }

  // ---- timed phase: one sweep after another ------------------------------
  std::vector<double> job_s;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  std::uint64_t request = 0;
  while (job_s.empty() || Clock::now() < deadline) {
    const SweepJob job = run_sweep_job(spec, tracer, ++request);
    job_s.push_back(job.seconds);
    const bool same = job.csv_digest == warmup.csv_digest;
    if (!same) result.fail("a sweep's result CSV differs from the warm-up sweep's");
    for (std::size_t c = 0; c < cells; ++c) result.operation(same && c >= job.failed_cells);
  }
  if (warmup.failed_cells != 0) result.fail("the sweep recorded failed cells");

  // ---- verification: a serial replay must reproduce the CSV --------------
  const Replay bare = replay_experiment(spec, nullptr, tracer, ++request);
  const bool replayed = fnv1a(bare.csv) == warmup.csv_digest;
  if (!replayed) result.fail("the serial replay's result CSV differs from run_experiment's");
  Digest digest;
  digest.add(warmup.csv_digest);
  digest.add(bare.digest);
  const bool recorded = check_recorded_digest(options, digest.value());
  if (!recorded) result.fail("simulated outputs differ from the digest recorded for this seed");
  result.operation(replayed && recorded);

  const double median_job_s = median(job_s);
  const double replications = static_cast<double>(cells * kReplications);
  std::cerr << "e2cbench: sweep jobs=" << job_s.size() << " events/job=" << bare.events
            << " median job " << median_job_s << " s, serial replay " << bare.seconds
            << " s; job seconds:";
  for (const double seconds : job_s) std::cerr << " " << seconds;
  std::cerr << "\n";
  if (!options.trace) {
    result.metric("events_per_s", bare.events / median_job_s, "1/s");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("replications_per_s", replications / median_job_s, "1/s");
    result.metric("jobs_per_s", 1.0 / median_job_s, "1/s");
    result.metric("job_p50_ms", median_job_s * 1e3, "ms");
    result.metric("job_p99_ms", nearest_rank(job_s, 0.99) * 1e3, "ms");
    return;
  }

  RoundStats stats;
  const Replay traced = replay_experiment(spec, &stats, tracer, ++request);
  if (traced.csv != bare.csv || traced.digest != bare.digest) {
    result.fail("the timing wrapper changed the replay's simulated outputs");
  }
  result.metric("workload.generate_s", traced.generate_s, "s");
  result.metric("sched.load_s", traced.load_s, "s");
  report_round_stats(result, stats, 1, traced.run_s, traced.events);
  result.metric("reports.metrics_s", traced.metrics_s, "s");
  result.metric("exp.sweep.serial_s", bare.seconds, "s");
  result.metric("exp.sweep.parallel_efficiency",
                bare.seconds / (median_job_s * static_cast<double>(kWorkers)), "ratio");
  traced.faults.report(result);
  report_overhead(result, bare.events / bare.run_s, traced.events / traced.run_s);
  result.metric("bench.warmup_s", warmup.seconds, "s");
}

}  // namespace e2cbench
