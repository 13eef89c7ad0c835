// The `serve` workload: the resident sweep service under one closed-loop
// client.
//
// The benchmark forks exp::run_serve with 2 pre-forked workers and submits
// small [sweep] jobs one at a time with exp::submit_job. Nine jobs in ten
// cycle two hot configs that stay warm in the workers' job caches; every
// tenth has a seed no earlier job used, so it misses the cache, regenerates
// its traces, and pushes a FIFO eviction that later hot jobs pay for. This
// is the only workload that reaches exp/serve, job_codec and util/framing.
//
// Client, supervisor and the two workers each get a CPU of their own (see
// pick_cpus): every hand-off between them is then a cross-CPU wakeup on
// every run, instead of whichever mix the kernel's placement gives.
//
// Latency is measured per job from submit to the last cell (submit_job
// returns after the final frame); a job answered busy or error, or lost to
// an I/O error, counts as failed with +inf latency. After the timed phase,
// every distinct config's served result CSV is compared byte for byte with a
// direct run_experiment of the same INI and with a serial replay.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "exp/cell_codec.hpp"
#include "exp/job_codec.hpp"
#include "exp/serve.hpp"
#include "exp/spec_io.hpp"
#include "harness.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"

namespace e2cbench {

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kHotConfigs = 2;
constexpr std::size_t kColdEvery = 10;   ///< every tenth job is cold
constexpr int kSetupRepeats = 5;
constexpr std::size_t kReplicationsPerJob = 2 * 2 * 2;  ///< policies x intensities x reps
constexpr double kProbeSeconds = 0.5;

std::string config_text(std::uint64_t seed) {
  return "[sweep]\n"
         "policies = FCFS, MECT\n"
         "intensities = low, high\n"
         "replications = 2\n"
         "duration = 60\n"
         "seed = " +
         std::to_string(seed) + "\n";
}

/// Children of \p parent, read from /proc.
std::vector<long> children_of(long parent) {
  std::vector<long> children;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    long ppid = 0;
    if (std::sscanf(line.c_str() + close + 1, " %c %ld", &state, &ppid) == 2 &&
        ppid == parent) {
      children.push_back(std::stol(name));
    }
  }
  return children;
}

/// Forks the service; the child runs exp::run_serve until SIGTERM drains it.
/// Once its pool is up, each worker is moved to a CPU of its own.
pid_t start_service(const std::string& socket_path) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw e2c::IoError("fork failed");
  if (pid == 0) {
    try {
      pin(0, pick_cpus(1, 1));
      e2c::exp::ServeOptions serve;
      serve.socket_path = socket_path;
      serve.workers = kWorkers;
      serve.backlog = 8;
      (void)e2c::exp::run_serve(serve);
      ::_exit(0);
    } catch (...) {
      ::_exit(1);
    }
  }
  std::vector<long> workers;
  for (int attempt = 0; attempt < 10'000 && workers.size() < kWorkers; ++attempt) {
    workers = children_of(pid);
    if (workers.size() < kWorkers) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t w = 0; w < workers.size(); ++w) pin(workers[w], pick_cpus(2 + w, 1));
  return pid;
}

/// Drains the service with SIGTERM and reaps it; SIGKILL after 20 s. True
/// when it exited cleanly.
bool stop_service(pid_t pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  for (int waited_ms = 0; waited_ms < 20'000; ++waited_ms) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (done < 0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return false;
}

struct JobRecord {
  std::size_t config = 0;
  bool cold = false;
  bool ok = false;
  double latency_s = std::numeric_limits<double>::infinity();
  double first_cell_s = std::numeric_limits<double>::infinity();
  std::string csv;  ///< the served result CSV
};

/// One submission, timed from submit to the last cell. Busy, error and I/O
/// failures leave the record failed.
JobRecord submit(const std::string& socket_path, const std::vector<std::string>& configs,
                 std::size_t config, bool cold, Tracer& tracer, std::uint64_t request,
                 e2c::exp::ExperimentResult* keep = nullptr) {
  JobRecord record;
  record.config = config;
  record.cold = cold;
  const int span = tracer.open("serve.submit_job", request);
  const Clock::time_point start = Clock::now();
  Clock::time_point first_cell{};
  bool got_cell = false;
  try {
    e2c::exp::ExperimentResult served = e2c::exp::submit_job(
        socket_path, configs[config],
        [&](std::size_t, std::size_t, const e2c::exp::CellResult&) {
          if (!got_cell) {
            first_cell = Clock::now();
            got_cell = true;
          }
        });
    const Clock::time_point end = Clock::now();
    record.latency_s = seconds_between(start, end);
    if (got_cell) {
      record.first_cell_s = seconds_between(start, first_cell);
      tracer.record("serve.first_cell", request, start, first_cell, span);
    }
    record.ok = served.health.failed_cells == 0;
    record.csv = e2c::util::to_csv(e2c::exp::result_csv(served));
    if (keep != nullptr) *keep = std::move(served);
  } catch (const e2c::InputError& error) {
    std::cerr << "e2cbench: serve job " << request << " rejected: " << error.what() << "\n";
  } catch (const e2c::IoError& error) {
    std::cerr << "e2cbench: serve job " << request << " lost: " << error.what() << "\n";
  }
  tracer.close(span);
  return record;
}

/// Submits the first hot config until the service accepts it: the first
/// warming submission. No socket yet, or no listener on it yet, is retried.
JobRecord wait_until_up(const std::string& socket_path, const std::vector<std::string>& configs,
                        Tracer& tracer) {
  for (int attempt = 0; attempt < 10'000; ++attempt) {
    if (std::filesystem::exists(socket_path)) {
      try {
        JobRecord record;
        const Clock::time_point start = Clock::now();
        const e2c::exp::ExperimentResult served = e2c::exp::submit_job(socket_path, configs[0]);
        record.latency_s = seconds_between(start, Clock::now());
        record.ok = served.health.failed_cells == 0;
        record.csv = e2c::util::to_csv(e2c::exp::result_csv(served));
        tracer.record("serve.warm_submit", 0, start, Clock::now());
        return record;
      } catch (const e2c::InputError&) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw e2c::IoError("the service never came up at " + socket_path);
}

/// Time per operation of encode_job_cell / decode_job_cell over the cells of
/// \p served.
void measure_codec(Result& result, const e2c::exp::ExperimentResult& served) {
  std::vector<e2c::exp::JobCell> frames;
  for (std::size_t slot = 0; slot < served.cells.size(); ++slot) {
    e2c::exp::JobCell frame;
    frame.slot = static_cast<std::uint32_t>(slot);
    frame.cells_done = static_cast<std::uint32_t>(slot + 1);
    frame.cells_total = static_cast<std::uint32_t>(served.cells.size());
    frame.cell_payload = e2c::exp::encode_cell(served.cells[slot]);
    frames.push_back(std::move(frame));
  }
  constexpr int kRounds = 50'000;
  e2c::util::ByteWriter writer;
  std::vector<std::string> encoded;
  const Clock::time_point t0 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const e2c::exp::JobCell& frame : frames) {
      writer.clear();
      e2c::exp::encode_job_cell(writer, frame);
    }
  }
  const Clock::time_point t1 = Clock::now();
  for (const e2c::exp::JobCell& frame : frames) {
    writer.clear();
    e2c::exp::encode_job_cell(writer, frame);
    encoded.push_back(writer.bytes());
  }
  std::size_t checked = 0;
  const Clock::time_point t2 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& bytes : encoded) {
      checked += e2c::exp::decode_job_cell(bytes).cell_payload.size();
    }
  }
  const Clock::time_point t3 = Clock::now();
  std::size_t expected = 0;
  for (const e2c::exp::JobCell& frame : frames) expected += frame.cell_payload.size();
  if (checked != expected * kRounds) result.fail("decode_job_cell did not round-trip");
  const double ops = static_cast<double>(kRounds) * static_cast<double>(frames.size());
  result.metric("serve.codec_encode_ns", seconds_between(t0, t1) * 1e9 / ops, "ns");
  result.metric("serve.codec_decode_ns", seconds_between(t2, t3) * 1e9 / ops, "ns");
}

/// One serve session of \p seconds timed seconds, set up \p setup_repeats
/// times; reports every end-to-end or (traced) per-layer metric.
void measure_serve(const Options& options, Result& result, Tracer& tracer, double seconds,
                   int setup_repeats) {
  const std::string socket_path =
      (std::filesystem::path(options.work_dir) / ("serve-" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::filesystem::create_directories(options.work_dir);
  pin(0, pick_cpus(0, 1));
  std::vector<std::string> configs;
  for (std::size_t c = 0; c < kHotConfigs; ++c) {
    configs.push_back(config_text(options.seed * 1'000'000 + c));
  }
  // The first CSV served for each distinct config; every later one must
  // equal it, and it must equal a direct run.
  std::vector<std::string> served_csv(kHotConfigs);
  bool consistent = true;
  const auto keep_csv = [&](JobRecord& job) {
    if (!job.ok) return;
    if (served_csv.size() <= job.config) served_csv.resize(job.config + 1);
    if (served_csv[job.config].empty()) {
      served_csv[job.config] = std::move(job.csv);
    } else if (job.csv != served_csv[job.config]) {
      job.ok = consistent = false;
    }
    job.csv.clear();
    job.csv.shrink_to_fit();
  };

  // ---- set-up: fork the service, wait for it, warm every hot config ------
  std::vector<double> setup_s;
  std::vector<double> warm_s;
  std::vector<JobRecord> warm_jobs;
  pid_t service = -1;
  for (int rep = 0; rep < setup_repeats; ++rep) {
    if (service > 0 && !stop_service(service)) result.fail("the service did not drain cleanly");
    const SpanScope setup_span(tracer, "setup", 0);
    const Clock::time_point start = Clock::now();
    service = start_service(socket_path);
    try {
      const Clock::time_point up = Clock::now();
      warm_jobs.push_back(wait_until_up(socket_path, configs, tracer));
      for (std::size_t c = 1; c < kHotConfigs; ++c) {
        warm_jobs.push_back(submit(socket_path, configs, c, false, tracer, 0));
      }
      warm_s.push_back(seconds_between(up, Clock::now()));
    } catch (...) {
      ::kill(service, SIGKILL);
      ::waitpid(service, nullptr, 0);
      throw;
    }
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  for (JobRecord& job : warm_jobs) keep_csv(job);

  // ---- timed phase: one closed-loop client -------------------------------
  std::vector<JobRecord> jobs;
  e2c::exp::ExperimentResult sample;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  while (jobs.empty() || Clock::now() < deadline) {
    const std::size_t j = jobs.size();
    const bool cold = j % kColdEvery == kColdEvery - 1;
    std::size_t config = j % kHotConfigs;
    if (cold) {
      config = configs.size();
      configs.push_back(config_text(options.seed * 1'000'000 + 1000 + j));
    }
    jobs.push_back(submit(socket_path, configs, config, cold, tracer, j + 1,
                          j == 0 ? &sample : nullptr));
    keep_csv(jobs.back());
  }
  const double wall = seconds_between(start, Clock::now());

  double rss_mb = peak_rss_mb() + peak_rss_mb(service);
  for (const long worker : children_of(service)) rss_mb += peak_rss_mb(worker);
  if (!stop_service(service)) result.fail("the service did not drain cleanly");
  if (!consistent) result.fail("one config was served two different CSVs");

  // ---- verification, outside the timed phase -----------------------------
  // Each distinct config once: the served CSV must equal a direct
  // run_experiment's and a serial replay's byte for byte; the replay also
  // counts the events and digests the simulations.
  std::vector<bool> verified(configs.size(), false);
  std::vector<double> events(configs.size());
  std::vector<double> serial_s(configs.size());
  Digest digest;
  std::size_t replay_mismatches = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const e2c::exp::ExperimentSpec spec =
        e2c::exp::spec_from_ini(e2c::util::IniFile::parse(configs[c], "serve job"));
    const std::string direct =
        e2c::util::to_csv(e2c::exp::result_csv(e2c::exp::run_experiment(spec, 1)));
    const Replay replay = replay_experiment(spec, nullptr, tracer, c);
    if (replay.csv != direct) ++replay_mismatches;
    verified[c] = c < served_csv.size() && served_csv[c] == direct;
    events[c] = replay.events;
    serial_s[c] = replay.seconds;
    if (c < kHotConfigs) {
      digest.add(fnv1a(direct));
      digest.add(replay.digest);
    }
  }
  if (replay_mismatches != 0) {
    result.fail(std::to_string(replay_mismatches) +
                " serial replays disagree with run_experiment on a serve config");
  }
  std::size_t served_mismatches = 0;
  const auto served_ok = [&](const JobRecord& job) {
    if (job.ok && !verified[job.config]) ++served_mismatches;
    return job.ok && verified[job.config];
  };
  for (const JobRecord& job : warm_jobs) result.operation(served_ok(job));
  double served_events = 0.0;
  double served_serial_s = 0.0;
  std::vector<double> latencies;
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::vector<double> first_cell_ms;
  for (const JobRecord& job : jobs) {
    const bool ok = served_ok(job);
    result.operation(ok);
    latencies.push_back(ok ? job.latency_s : std::numeric_limits<double>::infinity());
    (job.cold ? cold_ms : warm_ms).push_back(latencies.back() * 1e3);
    first_cell_ms.push_back(job.first_cell_s * 1e3);
    served_events += events[job.config];
    served_serial_s += serial_s[job.config];
  }
  if (served_mismatches != 0) {
    result.fail(std::to_string(served_mismatches) +
                " served CSVs differ from a direct run of the same config");
  }
  Options recorded = options;
  recorded.workload = "serve";  // the probe serves the serve workload's hot configs
  const bool matches = check_recorded_digest(recorded, digest.value());
  if (!matches) result.fail("simulated outputs differ from the digest recorded for this seed");
  result.operation(matches);
  if (samples_beyond(latencies.size(), 0.99) < 10) {
    std::cerr << "e2cbench: only " << latencies.size()
              << " jobs; p99 has fewer than 10 samples beyond it\n";
  }
  std::cerr << "e2cbench: serve jobs=" << jobs.size() << " (cold " << cold_ms.size()
            << ") distinct configs=" << configs.size() << " wall " << wall << " s\n";

  const double n = static_cast<double>(jobs.size());
  if (!options.trace) {
    result.metric("events_per_s", served_events / wall, "1/s");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", rss_mb, "MB");
    result.metric("replications_per_s", n * kReplicationsPerJob / wall, "1/s");
    result.metric("jobs_per_s", n / wall, "1/s");
    result.metric("job_p50_ms", nearest_rank(latencies, 0.50) * 1e3, "ms");
    result.metric("job_p99_ms", nearest_rank(latencies, 0.99) * 1e3, "ms");
    return;
  }

  result.metric("serve.warm_job_ms", median(warm_ms), "ms");
  result.metric("serve.cold_job_ms", median(cold_ms), "ms");
  result.metric("serve.first_cell_ms", median(first_cell_ms), "ms");
  measure_codec(result, sample);

  // The service's simulation work, replayed in-process on the first hot
  // config: bare and wrapped replays alternate so the layers and the
  // wrapper's overhead are measured on the same units.
  const e2c::exp::ExperimentSpec hot =
      e2c::exp::spec_from_ini(e2c::util::IniFile::parse(configs[0], "serve job"));
  RoundStats stats;
  std::vector<Replay> bare;
  std::vector<Replay> wrapped;
  const Clock::time_point replay_deadline = Clock::now() + std::chrono::milliseconds(500);
  while (wrapped.empty() || Clock::now() < replay_deadline) {
    bare.push_back(replay_experiment(hot, nullptr, tracer, 0));
    wrapped.push_back(replay_experiment(hot, &stats, tracer, 0));
    if (wrapped.back().csv != bare.back().csv || wrapped.back().digest != bare.back().digest) {
      result.fail("the timing wrapper changed the replay's simulated outputs");
    }
  }
  const auto median_of = [](const std::vector<Replay>& replays, auto field) {
    std::vector<double> values;
    for (const Replay& replay : replays) values.push_back(field(replay));
    return median(values);
  };
  result.metric("workload.generate_s",
                median_of(wrapped, [](const Replay& r) { return r.generate_s; }), "s");
  result.metric("sched.load_s", median_of(wrapped, [](const Replay& r) { return r.load_s; }),
                "s");
  report_round_stats(result, stats, wrapped.size(),
                     median_of(wrapped, [](const Replay& r) { return r.run_s; }), events[0]);
  result.metric("reports.metrics_s",
                median_of(wrapped, [](const Replay& r) { return r.metrics_s; }), "s");
  result.metric("exp.sweep.serial_s",
                median_of(bare, [](const Replay& r) { return r.seconds; }), "s");
  result.metric("exp.sweep.parallel_efficiency",
                served_serial_s / (wall * static_cast<double>(kWorkers)), "ratio");
  FaultTally faults;
  for (const Replay& replay : wrapped) faults.merge(replay.faults);
  faults.report(result);
  const auto rate = [](const Replay& r) { return r.events / r.run_s; };
  report_overhead(result, median_of(bare, rate), median_of(wrapped, rate));
  result.metric("bench.warmup_s", median(warm_s), "s");
}

}  // namespace

void run_serve(const Options& options, Result& result, Tracer& tracer) {
  measure_serve(options, result, tracer, options.seconds, kSetupRepeats);
}

void run_serve_probe(const Options& options, Result& result, Tracer& tracer) {
  const SpanScope probe_span(tracer, "serve.probe", 0);
  measure_serve(options, result, tracer, kProbeSeconds, 1);
}

}  // namespace e2cbench
