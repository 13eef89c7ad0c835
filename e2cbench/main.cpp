// e2cbench: the repository benchmark binary.
//
//   e2cbench --workload megarun|overload|sweep|serve --seed N --seconds S
//            --trace 0|1 [--trace-out FILE] [--digest-dir DIR] [--work-dir DIR]
//   e2cbench --selftest [--work-dir DIR]
//
// One process runs one workload, so peak_rss_mb is that workload's own
// high-water mark. Progress goes to stderr; the last line on stdout is the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, and the run's spans are written to --trace-out. A traced
// run of a workload that does not reach exp/serve ends with a short serve
// probe, so that it reports every layer.
//
// Exit codes: 0 a result was printed; 2 invalid arguments; 1 the workload
// could not run (nothing printed on stdout).
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "util/string_util.hpp"

namespace {

int usage(const std::string& message) {
  std::cerr << "e2cbench: " << message
            << "\nusage: e2cbench --workload megarun|overload|sweep|serve --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--digest-dir DIR] "
               "[--work-dir DIR]\n       e2cbench --selftest [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2cbench::Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      const auto seed = e2c::util::parse_int(value);
      if (!seed || *seed < 0) return usage("--seed must be an integer >= 0");
      options.seed = static_cast<std::uint64_t>(*seed);
    } else if (arg == "--seconds") {
      const auto seconds = e2c::util::parse_double(value);
      if (!seconds || *seconds < 0.0) return usage("--seconds must be a number >= 0");
      options.seconds = *seconds;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--digest-dir") {
      options.digest_dir = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }

  try {
    if (selftest) return e2cbench::run_selftests(options);
    e2cbench::Result result;
    e2cbench::Tracer tracer(options.trace);
    if (options.workload == "megarun") {
      e2cbench::run_megarun(options, result, tracer);
    } else if (options.workload == "overload") {
      e2cbench::run_overload(options, result, tracer);
    } else if (options.workload == "sweep") {
      e2cbench::run_sweep(options, result, tracer);
    } else if (options.workload == "serve") {
      e2cbench::run_serve(options, result, tracer);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
    if (options.trace && options.workload != "serve") {
      e2cbench::Result probe;
      e2cbench::run_serve_probe(options, probe, tracer);
      result.merge_missing(probe);
    }
    if (options.trace && !options.trace_out.empty()) {
      tracer.write(options.trace_out);
      std::cerr << "e2cbench: " << tracer.size() << " spans written to " << options.trace_out
                << "\n";
    }
    std::cout << result.json() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "e2cbench: " << options.workload << " failed: " << error.what() << "\n";
    return 1;
  }
}
