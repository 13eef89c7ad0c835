/// \file e2c_experiment.cpp
/// \brief Config-driven experiment runner: sweeps from an INI file.
///
///   $ e2c_experiment data/experiment_example.ini
///
/// Runs the policy x intensity sweep described by the file, prints the
/// grouped bar chart and the result CSV to stdout, and writes any outputs
/// ([output] csv / chart_svg) the file requests. See exp/spec_io.hpp for the
/// config grammar.
///
/// `--backend procs` runs the sweep on crash-isolated worker processes with
/// per-unit timeouts, retry, a resumable journal (`--journal` / `--resume`)
/// and SIGINT/SIGTERM graceful drain — see exp/serve.hpp.
///
/// `--serve SOCKET` turns the binary into a resident sweep service: a
/// persistent pool of pre-forked workers keeps specs, traces, and Simulation
/// engines warm across requests, so repeat submissions skip all setup.
/// `--submit SOCKET CONFIG.ini` sends a sweep to a running service and
/// produces output byte-identical to running the config directly — see
/// exp/serve.hpp.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "exp/serve.hpp"
#include "exp/spec_io.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/string_util.hpp"
#include "viz/bar_chart.hpp"

namespace {

/// Every flag the binary understands — the roster behind unknown-flag
/// nearest-match suggestions.
const std::vector<std::string> kKnownFlags = {
    "--help",    "--progress", "--backend", "--cell-timeout", "--max-retries",
    "--journal", "--resume",   "--serve",   "--submit",       "--serve-workers",
    "--backlog",
};

}  // namespace

int main(int argc, char** argv) {
  using namespace e2c;
  try {
    std::vector<std::string> positional;
    bool help = false;
    bool progress = false;
    exp::RunOptions options;
    bool backend_given = false;
    bool timeout_given = false;
    bool retries_given = false;
    std::string serve_socket;
    std::string submit_socket;
    std::size_t serve_workers = 0;
    bool serve_workers_given = false;
    std::size_t backlog = 4;
    bool backlog_given = false;
    const auto flag_value = [&](int& i, const std::string& flag) {
      require_input(i + 1 < argc, "missing value for " + flag);
      return std::string(argv[++i]);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") {
        help = true;
        break;
      }
      if (arg == "--progress") {
        progress = true;
      } else if (arg == "--backend") {
        options.backend = exp::parse_backend(flag_value(i, arg));
        backend_given = true;
      } else if (arg == "--cell-timeout") {
        const std::string value = flag_value(i, arg);
        const auto seconds = util::parse_double(value);
        require_input(seconds.has_value() && *seconds > 0.0,
                      "--cell-timeout must be a number of seconds > 0, got '" +
                          value + "' (--cell-timeout)");
        options.cell_timeout = *seconds;
        timeout_given = true;
      } else if (arg == "--max-retries") {
        const std::string value = flag_value(i, arg);
        const auto count = util::parse_int(value);
        require_input(count.has_value() && *count > 0,
                      "--max-retries must be an integer > 0, got '" + value +
                          "' (--max-retries)");
        options.max_retries = static_cast<std::size_t>(*count);
        retries_given = true;
      } else if (arg == "--journal") {
        options.journal_path = flag_value(i, arg);
      } else if (arg == "--resume") {
        options.resume = true;
      } else if (arg == "--serve") {
        serve_socket = flag_value(i, arg);
        require_input(!serve_socket.empty(),
                      "--serve needs a socket path, got an empty string (--serve)");
      } else if (arg == "--submit") {
        submit_socket = flag_value(i, arg);
        require_input(!submit_socket.empty(),
                      "--submit needs a socket path, got an empty string (--submit)");
      } else if (arg == "--serve-workers") {
        const std::string value = flag_value(i, arg);
        const auto count = util::parse_int(value);
        require_input(count.has_value() && *count > 0,
                      "--serve-workers must be an integer > 0, got '" + value +
                          "' (--serve-workers)");
        serve_workers = static_cast<std::size_t>(*count);
        serve_workers_given = true;
      } else if (arg == "--backlog") {
        const std::string value = flag_value(i, arg);
        const auto count = util::parse_int(value);
        require_input(count.has_value() && *count > 0,
                      "--backlog must be an integer > 0, got '" + value +
                          "' (--backlog)");
        backlog = static_cast<std::size_t>(*count);
        backlog_given = true;
      } else if (util::starts_with(arg, "--")) {
        std::string message = "unknown flag '" + arg + "'";
        if (const auto suggestion = util::nearest_match(arg, kKnownFlags)) {
          message += " — did you mean '" + *suggestion + "'?";
        }
        message += " (see --help)";
        throw InputError(message);
      } else {
        positional.push_back(arg);
      }
    }
    const bool serve_mode = !serve_socket.empty();
    const bool submit_mode = !submit_socket.empty();
    if (help) {
      std::cout
          << "usage: e2c_experiment CONFIG.ini [workers] [--backend threads|procs]\n"
             "         [--cell-timeout S] [--max-retries N] [--journal PATH] [--resume]\n"
             "         [--progress]\n"
             "       e2c_experiment --serve SOCKET [--serve-workers N] [--backlog N]\n"
             "         [--cell-timeout S] [--max-retries N] [--journal PREFIX]\n"
             "       e2c_experiment --submit SOCKET CONFIG.ini [--progress]\n"
             "Runs the experiment sweep described by CONFIG.ini.\n"
             "  workers           worker threads (or --backend procs process slots);\n"
             "                    0 = hardware concurrency (default); the resolved\n"
             "                    count is reported in the sweep summary\n"
             "  --backend procs   crash-isolated worker processes: per-unit timeouts,\n"
             "                    crash retry, graceful degradation (status column);\n"
             "                    a unit is one replication of one cell, and SIGINT/\n"
             "                    SIGTERM drains: in-flight units finish, exit 0\n"
             "  --cell-timeout S  SIGKILL + requeue a unit after S seconds (procs,\n"
             "                    --serve)\n"
             "  --max-retries N   requeues per unit before its cell is recorded failed\n"
             "                    (procs, --serve)\n"
             "  --journal PATH    append-only fsync'd journal of whole cells\n"
             "  --resume          skip cells the journal already records as completed;\n"
             "                    cells a crash or drain left partial run again\n"
             "  --progress        print a per-cell progress line to stderr\n"
             "  --serve SOCKET    resident sweep service on a Unix socket: pre-forked\n"
             "                    workers keep specs, traces, and simulations warm\n"
             "                    across submissions; SIGTERM drains and exits 0\n"
             "  --submit SOCKET   send CONFIG.ini to a running service; output is\n"
             "                    byte-identical to running the config directly\n"
             "  --serve-workers N persistent worker processes (default: hardware)\n"
             "  --backlog N       jobs in service before submits are busy-rejected\n"
             "                    (default 4)\n"
             "Exit codes: 0 success, 1 internal error, 2 invalid input,\n"
             "3 I/O error.\n";
      return 0;
    }
    require_input(serve_mode || submit_mode || !positional.empty(),
                  "CONFIG.ini is required (see --help)");

    // Mode exclusivity and per-mode flag validation: every flag must mean
    // something in the chosen mode, or the invocation is rejected (exit 2)
    // rather than silently ignored.
    require_input(!(serve_mode && submit_mode),
                  "--serve and --submit are mutually exclusive: one invocation is "
                  "either the service or a client (--serve/--submit)");
    if (serve_mode) {
      require_input(positional.empty(),
                    "--serve takes no CONFIG.ini or workers argument: configs arrive "
                    "from --submit clients, workers from --serve-workers (--serve)");
      require_input(!backend_given,
                    "--backend does not apply to --serve: the service always runs "
                    "its own worker-process pool (--backend)");
      require_input(!options.resume,
                    "--resume does not apply to --serve: each submitted job writes "
                    "its own journal under --journal PREFIX (--resume)");
      require_input(!progress,
                    "--progress does not apply to --serve: the service already logs "
                    "per-job lines to stderr (--progress)");
    } else {
      require_input(!serve_workers_given,
                    "--serve-workers needs --serve (worker counts for direct runs "
                    "are the positional workers argument) (--serve-workers)");
      require_input(!backlog_given, "--backlog needs --serve (--backlog)");
    }
    if (submit_mode) {
      require_input(!positional.empty(),
                    "--submit needs a CONFIG.ini to send to the service (--submit)");
      require_input(positional.size() == 1,
                    "--submit takes exactly one CONFIG.ini and no workers argument: "
                    "the service owns the worker pool (--submit)");
      require_input(!backend_given,
                    "--backend does not apply to --submit: the sweep runs inside "
                    "the service (--backend)");
      require_input(!timeout_given && !retries_given,
                    "--cell-timeout/--max-retries do not apply to --submit: "
                    "supervision knobs are set on the service (--submit)");
      require_input(options.journal_path.empty() && !options.resume,
                    "--journal/--resume do not apply to --submit: the service "
                    "journals each job under its own --journal PREFIX (--submit)");
    }

    if (!serve_mode && !submit_mode) {
      if (positional.size() > 2) {
        throw InputError("unexpected argument '" + positional[2] +
                         "': a direct run takes CONFIG.ini and an optional workers "
                         "count (see --help)");
      }
      // Supervision knobs only mean something on the process backend; reject
      // silently-ignored flags the same way e2c_run rejects recovery flags
      // without a fault source.
      if (options.backend != exp::Backend::kProcs) {
        require_input(!timeout_given,
                      "--cell-timeout needs --backend procs (the threads backend "
                      "cannot interrupt a cell)");
        require_input(!retries_given,
                      "--max-retries needs --backend procs (the threads backend "
                      "cannot retry a crashed cell)");
      }
      require_input(!options.resume || !options.journal_path.empty(),
                    "--resume needs --journal PATH (the journal holds the completed "
                    "cells to skip)");
    }

    if (serve_mode) {
      exp::ServeOptions serve_options;
      serve_options.socket_path = serve_socket;
      serve_options.workers = serve_workers;
      serve_options.backlog = backlog;
      serve_options.cell_timeout = options.cell_timeout;
      serve_options.max_retries = options.max_retries;
      serve_options.journal_prefix = options.journal_path;
      serve_options.drain_on_signals = true;
      serve_options.log = [](std::string_view message) {
        std::string line = "[e2c_serve] ";
        line.append(message);
        line += "\n";
        (void)!::write(STDERR_FILENO, line.data(), line.size());
      };
      const std::size_t served = exp::run_serve(serve_options);
      std::cout << "service drained: " << served
                << (served == 1 ? " job served\n" : " jobs served\n");
      return 0;
    }

    const auto started = std::chrono::steady_clock::now();
    if (progress) {
      // stderr so piping/redirecting the report (stdout) stays clean. The
      // line is built first and emitted as ONE write() behind a mutex, so
      // per-cell lines from concurrent workers never interleave.
      options.progress = [started](std::size_t done, std::size_t total,
                                   const exp::CellResult& cell) {
        static std::mutex progress_mutex;
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                .count();
        const double reps = static_cast<double>(done) *
                            static_cast<double>(cell.runs.size());
        char line[256];
        const int length = std::snprintf(
            line, sizeof line,
            "[e2c_experiment] cell %zu/%zu (%s/%s) %s  elapsed %.1fs  %.1f reps/s\n",
            done, total, cell.policy.c_str(),
            workload::intensity_name(cell.intensity),
            exp::cell_status_name(cell.status), elapsed,
            elapsed > 0.0 ? reps / elapsed : 0.0);
        if (length > 0) {
          const std::scoped_lock lock(progress_mutex);
          (void)!::write(STDERR_FILENO, line,
                         std::min(static_cast<std::size_t>(length), sizeof line));
        }
      };
    }

    exp::ExperimentResult result;
    exp::ExperimentOutputs outputs;
    if (submit_mode) {
      // The config text travels verbatim: the service and its workers parse
      // the same bytes with the same parser, so the submitted sweep is the
      // same sweep a direct run would execute. Outputs are written
      // client-side, against the client's working directory.
      const std::string config_text = util::read_file(positional[0]);
      const util::IniFile ini = util::IniFile::parse(config_text, positional[0]);
      outputs = exp::outputs_from_ini(ini);
      result = exp::submit_job(submit_socket, config_text, options.progress);
    } else {
      if (positional.size() > 1) {
        // std::stoul would accept "-1" (wrapping to SIZE_MAX workers) and exit
        // 1 on junk; validate like e2c_run's numeric options instead.
        const auto value = util::parse_int(positional[1]);
        require_input(value.has_value() && *value >= 0,
                      "workers must be an integer >= 0 (0 = hardware concurrency), got '" +
                          positional[1] + "' (workers)");
        options.workers = static_cast<std::size_t>(*value);
      }
      const util::IniFile ini = util::IniFile::load(positional[0]);
      outputs = exp::outputs_from_ini(ini);
      exp::ExperimentSpec spec = exp::spec_from_ini(ini);
      options.drain_on_signals = options.backend == exp::Backend::kProcs;
      result = exp::run_experiment(spec, options);
    }
    exp::write_outputs(result, outputs);

    // A drained sweep has holes, and completion_chart requires every cell;
    // print what completed plus the health line so the run is still useful.
    if (!result.health.drained) {
      std::cout << viz::render_bar_chart(exp::completion_chart(result, outputs.title))
                << "\n";
    }
    std::cout << util::to_csv(exp::result_csv(result));
    const auto& health = result.health;
    std::cout << "sweep: " << result.cells.size() << "/"
              << result.spec.policies.size() * result.spec.intensities.size()
              << " cells (" << health.completed_cells << " completed, "
              << health.failed_cells << " failed, " << health.retries
              << " retries, " << health.resumed_cells << " resumed) on "
              << health.workers << (health.workers == 1 ? " worker\n" : " workers\n");
    if (health.drained) {
      std::cout << "sweep drained after signal: in-flight units finished, whole "
                   "cells journaled; re-run with --resume to continue\n";
    }
    if (outputs.csv_path) std::cout << "wrote " << *outputs.csv_path << "\n";
    if (outputs.chart_svg_path) std::cout << "wrote " << *outputs.chart_svg_path << "\n";
    return 0;
  } catch (const InputError& error) {
    std::cerr << "e2c_experiment: " << error.what() << "\n";
    return 2;
  } catch (const IoError& error) {
    std::cerr << "e2c_experiment: " << error.what() << "\n";
    return 3;
  } catch (const std::exception& error) {
    std::cerr << "e2c_experiment: " << error.what() << "\n";
    return 1;
  }
}
