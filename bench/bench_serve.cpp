// Resident-service throughput: the same job stream submitted to a warm
// `--serve` service versus spawn-per-sweep (fork+exec of e2c_experiment for
// every job, the pre-service workflow). The service keeps worker processes,
// parsed specs, generated traces, and Simulation leases resident across
// requests, so a repeated job pays only scheduling + metric time; the spawn
// baseline pays process startup, INI parse, trace generation, and arena
// construction on every submission.
//
// The job stream cycles a small set of distinct sweep configs (distinct
// seeds), matching the interactive use case the service exists for: a
// classroom or notebook re-running near-identical sweeps. One untimed
// warmup pass populates the worker caches; the spawn baseline has no cache
// to warm — that asymmetry IS the measurement.
//
// A third lane, spawn-threads, runs the spawn job stream on the threads
// backend. Its only use is as a same-host reference for the procs backend:
// a slower procs lowers "procs_over_threads" (spawn jobs/s over
// spawn-threads jobs/s), while it would raise "speedup".
//
// Reported per lane: jobs/s plus p50/p99 per-job latency. Both ratios, the
// serve/spawn jobs-per-second ratio ("speedup") and procs_over_threads,
// compare configurations on the same host, so tools/ci.sh gates them
// machine-independently against the committed BENCH_serve.json (floor 70%
// of baseline).
//
//   bench_serve [--jobs N] [--out FILE.json]
//
// Exit codes: 0 success, 1 internal error, 2 invalid input.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "exp/serve.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

/// Distinct sweep configs cycled through the job stream; must stay <= the
/// service's per-worker job-cache capacity so the steady state is warm.
constexpr int kDistinctConfigs = 2;

/// Both lanes run this many worker processes.
constexpr int kWorkers = 2;

std::string config_text(int seed) {
  return "[sweep]\n"
         "policies = FCFS, MECT\n"
         "intensities = low, high\n"
         "replications = 2\n"
         "duration = 60\n"
         "seed = " +
         std::to_string(seed) + "\n";
}

struct Lane {
  std::string name;  // "spawn" | "spawn-threads" | "serve"
  std::size_t jobs = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Nearest-rank percentile (q in [0,1]) of per-job latencies, in ms.
double percentile_ms(std::vector<double> latencies, double q) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(latencies.size() - 1) + 0.5);
  return latencies[std::min(rank, latencies.size() - 1)] * 1e3;
}

Lane finish_lane(const char* name, const std::vector<double>& latencies, double seconds) {
  Lane lane;
  lane.name = name;
  lane.jobs = latencies.size();
  lane.seconds = seconds;
  if (seconds > 0.0) lane.jobs_per_sec = static_cast<double>(latencies.size()) / seconds;
  lane.p50_ms = percentile_ms(latencies, 0.50);
  lane.p99_ms = percentile_ms(latencies, 0.99);
  return lane;
}

/// One spawn-per-sweep job: fork+exec the real CLI on a config file with
/// \p backend (procs is the closest pre-service equivalent of a service
/// job), output discarded.
void run_spawned_job(const std::string& ini_path, const char* backend) {
  // Flush before forking: the child's freopen would otherwise flush any
  // buffered parent output to the real stdout, duplicating it per job.
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw e2c::IoError("fork failed");
  if (pid == 0) {
    if (::freopen("/dev/null", "w", stdout) == nullptr) _exit(127);
    if (::freopen("/dev/null", "w", stderr) == nullptr) _exit(127);
    ::execl(E2C_EXPERIMENT_BIN, E2C_EXPERIMENT_BIN, ini_path.c_str(),
            std::to_string(kWorkers).c_str(), "--backend", backend,
            static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw e2c::IoError("spawned e2c_experiment job failed");
  }
}

Lane run_spawn_lane(const char* name, const char* backend, std::size_t jobs,
                    const std::string& work_dir) {
  std::vector<std::string> ini_paths;
  for (int c = 0; c < kDistinctConfigs; ++c) {
    const std::string path = work_dir + "/serve_bench_" + std::to_string(c) + ".ini";
    std::ofstream out(path);
    out << config_text(7 + c);
    if (!out.good()) throw e2c::IoError("cannot write " + path);
    ini_paths.push_back(path);
  }
  std::vector<double> latencies;
  latencies.reserve(jobs);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < jobs; ++j) {
    const auto t0 = std::chrono::steady_clock::now();
    run_spawned_job(ini_paths[j % ini_paths.size()], backend);
    const auto t1 = std::chrono::steady_clock::now();
    latencies.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  const auto stop = std::chrono::steady_clock::now();
  for (const auto& path : ini_paths) ::unlink(path.c_str());
  return finish_lane(name, latencies, std::chrono::duration<double>(stop - start).count());
}

Lane run_serve_lane(std::size_t jobs, const std::string& socket_path) {
  std::cout.flush();
  const pid_t service = ::fork();
  if (service < 0) throw e2c::IoError("fork failed");
  if (service == 0) {
    try {
      e2c::exp::ServeOptions options;
      options.socket_path = socket_path;
      options.workers = kWorkers;
      options.backlog = 8;
      e2c::exp::run_serve(options);
      _exit(0);
    } catch (...) {
      _exit(1);
    }
  }

  // Wait for the socket to accept submissions, then one untimed warmup pass
  // so every distinct config is resident in the worker caches.
  bool up = false;
  for (int attempt = 0; attempt < 250 && !up; ++attempt) {
    try {
      (void)e2c::exp::submit_job(socket_path, config_text(7));
      up = true;
    } catch (const e2c::InputError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (!up) {
    ::kill(service, SIGKILL);
    ::waitpid(service, nullptr, 0);
    throw e2c::IoError("serve lane: service never came up at " + socket_path);
  }
  for (int c = 0; c < kDistinctConfigs; ++c) {
    (void)e2c::exp::submit_job(socket_path, config_text(7 + c));
  }

  std::vector<double> latencies;
  latencies.reserve(jobs);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < jobs; ++j) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)e2c::exp::submit_job(socket_path,
                               config_text(7 + static_cast<int>(j) % kDistinctConfigs));
    const auto t1 = std::chrono::steady_clock::now();
    latencies.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  const auto stop = std::chrono::steady_clock::now();

  ::kill(service, SIGTERM);
  int status = 0;
  ::waitpid(service, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw e2c::IoError("service did not drain cleanly");
  }
  return finish_lane("serve", latencies,
                     std::chrono::duration<double>(stop - start).count());
}

double ratio(const Lane& numerator, const Lane& denominator) {
  return denominator.jobs_per_sec > 0.0 ? numerator.jobs_per_sec / denominator.jobs_per_sec
                                        : 0.0;
}

void write_json(const std::string& path, std::size_t jobs, const Lane& spawn,
                const Lane& spawn_threads, const Lane& serve) {
  std::ofstream out(path);
  if (!out.good()) throw e2c::IoError("cannot write " + path);
  out << "{\n  \"bench\": \"serve\",\n  \"jobs\": " << jobs
      << ",\n  \"workers\": " << kWorkers
      << ",\n  \"distinct_configs\": " << kDistinctConfigs << ",\n  \"results\": [\n";
  const Lane* lanes[] = {&spawn, &spawn_threads, &serve};
  for (std::size_t i = 0; i < 3; ++i) {
    const Lane& lane = *lanes[i];
    out << "    {\"lane\": \"" << lane.name << "\", \"jobs\": " << lane.jobs
        << ", \"seconds\": " << lane.seconds
        << ", \"jobs_per_sec\": " << lane.jobs_per_sec
        << ", \"p50_ms\": " << lane.p50_ms << ", \"p99_ms\": " << lane.p99_ms << "}"
        << (i < 2 ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedup\": " << ratio(serve, spawn)
      << ",\n  \"procs_over_threads\": " << ratio(spawn, spawn_threads) << "\n}\n";
}

void print_lane(const Lane& lane) {
  std::cout << lane.name << ": jobs=" << lane.jobs << " seconds=" << lane.seconds
            << " jobs/sec=" << lane.jobs_per_sec << " p50_ms=" << lane.p50_ms
            << " p99_ms=" << lane.p99_ms << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 20;
  std::string out_path = "BENCH_serve.json";
  try {
    const auto flag_value = [&](int& i, const std::string& flag) {
      e2c::require_input(i + 1 < argc, "missing value for " + flag);
      return std::string(argv[++i]);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--jobs") {
        const std::string value = flag_value(i, arg);
        const auto count = e2c::util::parse_int(value);
        e2c::require_input(count.has_value() && *count > 0,
                           "--jobs must be an integer > 0, got '" + value +
                               "' (--jobs)");
        jobs = static_cast<std::size_t>(*count);
      } else if (arg == "--out") {
        out_path = flag_value(i, arg);
      } else if (arg == "--help") {
        std::cout << "usage: bench_serve [--jobs N] [--out FILE.json]\n";
        return 0;
      } else {
        std::cerr << "bench_serve: unknown argument '" << arg << "'\n";
        return 2;
      }
    }

    const char* tmp = std::getenv("TMPDIR");
    const std::string work_dir = tmp != nullptr ? tmp : "/tmp";
    const std::string socket_path =
        work_dir + "/e2c_bench_serve_" + std::to_string(::getpid()) + ".sock";

    std::cout << "==== serve: " << jobs << " jobs per lane, " << kWorkers
              << " workers ====\n";
    const Lane spawn = run_spawn_lane("spawn", "procs", jobs, work_dir);
    print_lane(spawn);
    const Lane spawn_threads = run_spawn_lane("spawn-threads", "threads", jobs, work_dir);
    print_lane(spawn_threads);
    const Lane serve = run_serve_lane(jobs, socket_path);
    print_lane(serve);

    std::cout << "serve/spawn speedup = " << ratio(serve, spawn) << "x\n"
              << "spawn procs/threads = " << ratio(spawn, spawn_threads) << "\n";
    write_json(out_path, jobs, spawn, spawn_threads, serve);
    std::cout << "wrote " << out_path << "\n";
    return 0;
  } catch (const e2c::InputError& error) {
    std::cerr << "bench_serve: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "bench_serve: " << error.what() << "\n";
    return 1;
  }
}
