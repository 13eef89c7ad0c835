// Shared pieces of the repository benchmark: the run options and result
// every workload fills, host timing, nearest-rank percentiles, output
// digests, the in-memory span tracer, and the timing wrapper placed around
// scheduling policies in traced runs.
//
// Every time measured here is host time (std::chrono::steady_clock).
// Simulated time never enters a performance metric; simulated outputs only
// enter digests, which must repeat exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "sched/policy.hpp"
#include "sched/simulation.hpp"

namespace e2cbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed between two instants.
[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// What the command line asks one benchmark process to do.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string trace_out;  ///< span file written when a traced run ends; empty = none
  std::string digest_dir; ///< where each (workload, seed) digest is recorded; empty = none
  std::string work_dir = ".";  ///< scratch files of the run (the serve socket)
};

/// The last line the benchmark prints, plus what led to `correct`.
class Result {
 public:
  void metric(std::string name, double value, std::string unit);
  /// Counts one operation; a failed one also makes the run incorrect.
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Marks the run incorrect with a reason printed to stderr.
  void fail(const std::string& reason);

  /// Takes over \p other's operations, its verdict, and each of its metrics
  /// this result does not have yet.
  void merge_missing(const Result& other);

  [[nodiscard]] bool correct() const noexcept { return correct_ && failed_ == 0; }
  /// The one-line JSON object: correct, attempted, failed, metrics.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// ceil(q * n) samples at or below it. +inf samples (failed operations) sort
/// last. NaN for an empty set.
[[nodiscard]] double nearest_rank(std::vector<double> samples, double q);

/// Number of samples strictly beyond the nearest-rank q-percentile position;
/// the benchmark reports a percentile as resolved only when this is >= 10.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Median by nearest rank.
[[nodiscard]] inline double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.5);
}

/// Process peak resident set (VmHWM) in MiB, for \p pid or this process.
[[nodiscard]] double peak_rss_mb(long pid = 0);

/// Fixed CPU placement. Left to the kernel, the placement of the
/// benchmark's threads and processes changes from run to run, and with it
/// whether a wakeup crosses CPUs: on a 4-vCPU guest that alone moves the
/// serve workload's throughput by 2x. Each role therefore gets CPU
/// `first + i` (modulo the CPUs this process may use) for i < count.
[[nodiscard]] std::vector<int> pick_cpus(std::size_t first, std::size_t count);

/// Restricts \p pid (0: the calling thread, and the threads and processes
/// it creates afterwards) to \p cpus. Best effort: a refusal leaves the
/// placement to the kernel.
void pin(long pid, const std::vector<int>& cpus);

/// Incremental 64-bit FNV-1a over the simulated outputs of a run.
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add_double(double value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// FNV-1a of a byte string.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// Adds what a finished simulation computed: processed events, every
/// SimulationCounters field, and the scheduler invocation count.
void digest_simulation(Digest& digest, const e2c::sched::Simulation& simulation);

/// Compares \p digest with the one recorded for (workload, seed) under
/// options.digest_dir, recording it when none exists yet. False on mismatch.
[[nodiscard]] bool check_recorded_digest(const Options& options, std::uint64_t digest);

/// In-memory span recorder for traced runs. Spans carry a name, host start
/// and end (seconds since the tracer was made), the index of their parent
/// span (-1 for none) and a request id (the job index a span belongs to).
/// Nothing is written until write() at the end of the run. Disabled
/// tracers record nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Opens a span; returns its index (or -1 when disabled).
  int open(const char* name, std::uint64_t request, int parent = -1);
  void close(int span);
  /// Records an already-measured interval.
  int record(const char* name, std::uint64_t request, Clock::time_point start,
             Clock::time_point end, int parent = -1);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Writes one JSON object per span to \p path; throws e2c::IoError.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    std::uint64_t request;
  };
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t request, int parent = -1)
      : tracer_(tracer), span_(tracer.open(name, request, parent)) {}
  ~SpanScope() { tracer_.close(span_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const noexcept { return span_; }

 private:
  Tracer& tracer_;
  int span_;
};

/// What the timing wrapper saw across the scheduler rounds of one or more
/// runs.
struct RoundStats {
  std::uint64_t rounds = 0;
  std::uint64_t useful_rounds = 0;  ///< rounds that assigned at least one task
  std::uint64_t assignments = 0;
  std::uint64_t queue_depth_sum = 0;  ///< batch-queue length summed over rounds
  double policy_seconds = 0.0;
  std::vector<float> round_us;  ///< every round's host time, microseconds
};

/// Policy decorator that times each schedule_into call of the policy it
/// wraps and otherwise only forwards, so a wrapped run makes exactly the
/// same decisions as a bare one (the traced run checks this by digest).
class TimingPolicy final : public e2c::sched::Policy {
 public:
  TimingPolicy(std::unique_ptr<e2c::sched::Policy> inner, RoundStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] e2c::sched::PolicyMode mode() const override { return inner_->mode(); }
  void schedule_into(e2c::sched::SchedulingContext& context,
                     std::vector<e2c::sched::Assignment>& out) override;

 private:
  std::unique_ptr<e2c::sched::Policy> inner_;
  RoundStats& stats_;
};

/// make_policy(name), wrapped in a TimingPolicy when \p stats is non-null.
[[nodiscard]] std::unique_ptr<e2c::sched::Policy> make_policy(const std::string& name,
                                                              RoundStats* stats);

/// The sched.* and core.* per-layer metrics, per run, from the round stats
/// of \p runs wrapped runs that took \p run_seconds of Simulation::run() and
/// processed \p events_per_run events each.
void report_round_stats(Result& result, const RoundStats& stats, std::size_t runs,
                        double run_seconds, double events_per_run);

/// The fault.* per-layer metrics of finished simulations: requeues and
/// checkpoints per run, and simulated useful seconds over machine seconds
/// (the waste invariant useful + lost + checkpoint overhead == machine time).
struct FaultTally {
  double requeued = 0.0;
  double checkpoints = 0.0;
  double useful_seconds = 0.0;
  double machine_seconds = 0.0;
  std::size_t runs = 0;

  void add(const e2c::sched::Simulation& simulation);
  void merge(const FaultTally& other);
  void report(Result& result) const;
};

/// One sweep replayed serially on the calling thread through the public
/// per-unit calls, in the shared plane's order: generate_trace once per
/// (intensity, replication), then per (policy, intensity, replication)
/// lease_simulation -> load -> run -> compute_metrics. Its result CSV must
/// equal run_experiment's byte for byte.
struct Replay {
  std::string csv;          ///< result_csv text of the replayed sweep
  std::uint64_t digest = 0; ///< digest_simulation over every unit, in order
  double events = 0.0;      ///< processed events summed over every unit
  double seconds = 0.0;     ///< host time of the whole replay
  double generate_s = 0.0;  ///< generate_trace
  double load_s = 0.0;      ///< lease_simulation + load
  double run_s = 0.0;       ///< Simulation::run
  double metrics_s = 0.0;   ///< compute_metrics
  std::size_t units = 0;
  FaultTally faults;
};

/// Replays \p spec; policies are wrapped in timing policies when \p stats is
/// non-null. Spans go under \p parent with request id \p request.
[[nodiscard]] Replay replay_experiment(const e2c::exp::ExperimentSpec& spec, RoundStats* stats,
                                       Tracer& tracer, std::uint64_t request, int parent = -1);

/// The fraction by which tracing lowered events/s: (bare - traced) / bare.
void report_overhead(Result& result, double bare_events_per_s, double traced_events_per_s);

/// The four workloads and the self-tests.
void run_megarun(const Options& options, Result& result, Tracer& tracer);
void run_overload(const Options& options, Result& result, Tracer& tracer);
void run_sweep(const Options& options, Result& result, Tracer& tracer);
void run_serve(const Options& options, Result& result, Tracer& tracer);
int run_selftests(const Options& options);

/// A short traced serve session, run after the traced run of a workload that
/// does not reach exp/serve, so that every traced run reports every layer:
/// its serve.* and exp.sweep.* metrics fill the ones the workload lacks.
void run_serve_probe(const Options& options, Result& result, Tracer& tracer);

/// Digest of one overload-shaped simulation of \p tasks tasks, with the
/// policy bare or wrapped in a TimingPolicy (for the self-tests).
[[nodiscard]] std::uint64_t overload_digest(std::uint64_t seed, std::size_t tasks,
                                            bool wrapped);

}  // namespace e2cbench
