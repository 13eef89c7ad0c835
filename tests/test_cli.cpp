// End-to-end tests of the e2c_run command-line front-end: drives the real
// binary (path injected by CMake) against the shipped data fixtures and
// checks its output and artifacts.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "util/csv.hpp"

namespace {

#ifndef E2C_RUN_BIN
#error "E2C_RUN_BIN must be defined by the build"
#endif
#ifndef E2C_EXPERIMENT_BIN
#error "E2C_EXPERIMENT_BIN must be defined by the build"
#endif
#ifndef E2C_DATA_DIR
#error "E2C_DATA_DIR must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_binary(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  CommandResult result;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult run_command(const std::string& args) {
  return run_binary(E2C_RUN_BIN, args);
}

CommandResult run_experiment(const std::string& args) {
  return run_binary(E2C_EXPERIMENT_BIN, args);
}

std::string data(const std::string& file) { return std::string(E2C_DATA_DIR) + "/" + file; }

TEST(Cli, HelpExitsZero) {
  const auto result = run_command("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--policy"), std::string::npos);
  EXPECT_NE(result.output.find("--autoscale"), std::string::npos);
}

TEST(Cli, ListPoliciesShowsFullRoster) {
  const auto result = run_command("--list-policies");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* name : {"FCFS", "MECT", "MEET", "MM", "MMU", "MSD", "ELARE",
                           "FELARE", "PAM"}) {
    EXPECT_NE(result.output.find(name), std::string::npos) << name;
  }
}

TEST(Cli, RunsFixtureWorkload) {
  const auto result = run_command("--eet " + data("eet_heterogeneous.csv") +
                                  " --workload " + data("workload_medium.csv") +
                                  " --policy MECT");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("policy=MECT"), std::string::npos);
  EXPECT_NE(result.output.find("tasks=144"), std::string::npos);
}

TEST(Cli, GeneratesWorkloadAndWritesSummary) {
  const std::string out = testing::TempDir() + "/e2c_cli_summary.csv";
  const auto result =
      run_command("--eet " + data("eet_heterogeneous.csv") +
                  " --generate medium --seed 3 --policy MM --summary " + out);
  EXPECT_EQ(result.exit_code, 0);
  const auto rows = e2c::util::read_csv_doc(out);
  EXPECT_GT(rows.row_count(), 5u);
  EXPECT_EQ(rows.row(0)[0], "metric");
  std::remove(out.c_str());
}

TEST(Cli, SummaryToStdout) {
  const auto result = run_command("--eet " + data("eet_homogeneous.csv") +
                                  " --generate low --policy FCFS --summary -");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("completion_percent"), std::string::npos);
}

TEST(Cli, WritesGanttSvg) {
  const std::string out = testing::TempDir() + "/e2c_cli_gantt.svg";
  const auto result = run_command("--eet " + data("eet_heterogeneous.csv") +
                                  " --workload " + data("workload_low.csv") +
                                  " --policy MSD --gantt " + out);
  EXPECT_EQ(result.exit_code, 0);
  std::ifstream svg(out);
  std::string first_line;
  std::getline(svg, first_line);
  EXPECT_NE(first_line.find("<svg"), std::string::npos);
  std::remove(out.c_str());
}

TEST(Cli, TraceStatsReportsOfferedLoad) {
  const auto result = run_command("--eet " + data("eet_heterogeneous.csv") +
                                  " --workload " + data("workload_high.csv") +
                                  " --policy MM --trace-stats -");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("offered_load"), std::string::npos);
  EXPECT_NE(result.output.find("interarrival_cv"), std::string::npos);
}

TEST(Cli, SubstrateFlagsCompose) {
  const auto result = run_command(
      "--eet " + data("eet_heterogeneous.csv") +
      " --generate low --policy PAM --pet lognormal --pet-cv 0.3 --payload-mb 4 "
      "--bandwidth 32 --autoscale");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("stochastic execution"), std::string::npos);
  EXPECT_NE(result.output.find("communication model"), std::string::npos);
  EXPECT_NE(result.output.find("autoscaler enabled"), std::string::npos);
}

TEST(Cli, SystemFlagErrorsNameTheFlag) {
  const std::string base = "--eet " + data("eet_heterogeneous.csv") + " --generate low ";
  const auto queue = run_command(base + "--queue-size -1");
  EXPECT_EQ(queue.exit_code, 2);
  EXPECT_NE(queue.output.find("system.queue_size must be >= 0, 0 = unbounded (--queue-size)"),
            std::string::npos)
      << queue.output;
  const auto cv = run_command(base + "--pet normal --pet-cv -1");
  EXPECT_EQ(cv.exit_code, 2);
  EXPECT_NE(cv.output.find("system.pet_cv must be >= 0 (--pet-cv)"), std::string::npos)
      << cv.output;
  const auto bandwidth = run_command(base + "--payload-mb 4 --bandwidth 0");
  EXPECT_EQ(bandwidth.exit_code, 2);
  EXPECT_NE(bandwidth.output.find("system.bandwidth must be > 0 (--bandwidth)"),
            std::string::npos)
      << bandwidth.output;
  // A value its partner flag would use is no longer dropped in silence.
  const auto lone_cv = run_command(base + "--pet-cv -1");
  EXPECT_EQ(lone_cv.exit_code, 2);
  EXPECT_NE(lone_cv.output.find("(--pet-cv, system.pet)"), std::string::npos)
      << lone_cv.output;
  const auto lone_bandwidth = run_command(base + "--bandwidth 0");
  EXPECT_EQ(lone_bandwidth.exit_code, 2);
  EXPECT_NE(lone_bandwidth.output.find("(--bandwidth, system.payload_mb)"), std::string::npos)
      << lone_bandwidth.output;
}

TEST(Cli, BadArgumentsFailWithMessage) {
  EXPECT_NE(run_command("--bogus-flag").exit_code, 0);
  EXPECT_NE(run_command("--policy MECT").exit_code, 0);  // missing --eet
  const auto unknown_policy = run_command(
      "--eet " + data("eet_homogeneous.csv") + " --generate low --policy NOPE");
  EXPECT_NE(unknown_policy.exit_code, 0);
  EXPECT_NE(unknown_policy.output.find("unknown scheduling policy"), std::string::npos);
}

TEST(Cli, ExitCodeDistinguishesInputFromIoErrors) {
  // Documented contract: 2 = invalid input/flags, 3 = filesystem error,
  // 0 = success.
  EXPECT_EQ(run_command("--bogus-flag").exit_code, 2);
  EXPECT_EQ(run_command("--policy MECT").exit_code, 2);  // missing --eet
  const auto missing_file =
      run_command("--eet /nonexistent/eet.csv --generate low --policy FCFS");
  EXPECT_EQ(missing_file.exit_code, 3);
  EXPECT_NE(missing_file.output.find("e2c_run:"), std::string::npos);
}

TEST(Cli, FaultFlagsRunAndReportFailureCounters) {
  const auto result = run_command("--eet " + data("eet_heterogeneous.csv") +
                                  " --workload " + data("workload_medium.csv") +
                                  " --policy MECT --mtbf 40 --mttr 5 --fault-seed 7");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("fault injection"), std::string::npos);
  EXPECT_NE(result.output.find("failed="), std::string::npos);
  EXPECT_NE(result.output.find("requeued="), std::string::npos);
}

TEST(Cli, FaultRunIsBitIdenticalUnderSeed) {
  const std::string args = "--eet " + data("eet_heterogeneous.csv") +
                           " --workload " + data("workload_medium.csv") +
                           " --policy MM --mtbf 30 --mttr 4 --fault-seed 99";
  const auto first = run_command(args);
  const auto second = run_command(args);
  ASSERT_EQ(first.exit_code, 0);
  EXPECT_EQ(first.output, second.output);
}

TEST(Cli, RetryFlagsWithoutFaultSourceRejected) {
  const auto result = run_command("--eet " + data("eet_homogeneous.csv") +
                                  " --generate low --policy FCFS --max-retries 5");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--mtbf or --fault-trace"), std::string::npos);
  // A flag set to its default value is still a flag without a fault source.
  const auto at_default = run_command("--eet " + data("eet_homogeneous.csv") +
                                      " --generate low --policy FCFS --max-retries 3");
  EXPECT_EQ(at_default.exit_code, 2);
  EXPECT_NE(at_default.output.find("--mtbf or --fault-trace"), std::string::npos);
}

TEST(Cli, FaultFlagErrorsNameTheFlag) {
  const auto malformed = run_command("--eet " + data("eet_homogeneous.csv") +
                                     " --generate low --policy FCFS --mtbf abc");
  EXPECT_EQ(malformed.exit_code, 2);
  EXPECT_NE(malformed.output.find("not a number: 'abc' (--mtbf)"), std::string::npos)
      << malformed.output;
  const auto both = run_command("--eet " + data("eet_homogeneous.csv") +
                                " --generate low --policy FCFS --mtbf 50 --fault-trace " +
                                data("missing_trace.csv"));
  EXPECT_EQ(both.exit_code, 2);
  EXPECT_NE(both.output.find("mutually exclusive"), std::string::npos) << both.output;
  EXPECT_NE(both.output.find("(--mtbf, --fault-trace)"), std::string::npos) << both.output;
}

TEST(Cli, FaultTracePathReachesTheLoaderIntact) {
  // ';' and '#' would start a comment in INI text; a flag value is no INI text.
  const std::string trace = testing::TempDir() + "/e2c_cli_trace;1#a.csv";
  {
    std::ofstream out(trace);
    out << "machine,fail_time,repair_time\n0,10,20\n1,15,40\n";
  }
  const auto result = run_command("--eet " + data("eet_heterogeneous.csv") +
                                  " --generate low --policy MM --fault-trace '" + trace +
                                  "'");
  std::remove(trace.c_str());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("fault injection: trace " + trace + " (2 spans)"),
            std::string::npos)
      << result.output;
}

TEST(Cli, UnknownPolicySuggestsNearestMatch) {
  const auto result = run_command("--eet " + data("eet_homogeneous.csv") +
                                  " --generate low --policy MEC");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown scheduling policy"), std::string::npos);
  EXPECT_NE(result.output.find("did you mean"), std::string::npos);
  // The full roster rides along so the user can pick without --list-policies.
  EXPECT_NE(result.output.find("registered:"), std::string::npos);
  EXPECT_NE(result.output.find("FCFS"), std::string::npos);
}

TEST(Cli, RecoveryCheckpointRunsAndPrintsItsParameters) {
  const auto result = run_command(
      "--eet " + data("eet_heterogeneous.csv") + " --workload " +
      data("workload_medium.csv") +
      " --policy MECT --mtbf 40 --mttr 5 --fault-seed 7 --recovery checkpoint"
      " --checkpoint-interval 2 --checkpoint-cost 0.25 --restart-cost 0.25"
      " --summary -");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("recovery: checkpoint"), std::string::npos);
  // The waste decomposition lands in the summary report.
  EXPECT_NE(result.output.find("recovery_strategy,checkpoint"), std::string::npos);
  EXPECT_NE(result.output.find("lost_work_seconds"), std::string::npos);
  EXPECT_NE(result.output.find("checkpoints_taken"), std::string::npos);
}

TEST(Cli, RecoveryReplicateRunsAndPrintsItsParameters) {
  const auto result = run_command(
      "--eet " + data("eet_heterogeneous.csv") + " --workload " +
      data("workload_low.csv") +
      " --policy MM --mtbf 50 --mttr 5 --recovery replicate --replicas 2");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("recovery: replicate k=2"), std::string::npos);
}

TEST(Cli, UnknownRecoveryStrategySuggestsNearestMatch) {
  const auto result = run_command(
      "--eet " + data("eet_homogeneous.csv") +
      " --generate low --policy FCFS --mtbf 50 --recovery checkpont");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("did you mean 'checkpoint'"), std::string::npos);
  EXPECT_NE(result.output.find("resubmit"), std::string::npos);
}

TEST(Cli, RecoveryFlagsWithoutFaultSourceRejected) {
  const auto result =
      run_command("--eet " + data("eet_homogeneous.csv") +
                  " --generate low --policy FCFS --recovery checkpoint");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--mtbf or --fault-trace"), std::string::npos);
}

TEST(Cli, RecoveryRunIsBitIdenticalUnderSeed) {
  const std::string args = "--eet " + data("eet_heterogeneous.csv") +
                           " --workload " + data("workload_medium.csv") +
                           " --policy MM --mtbf 30 --mttr 4 --fault-seed 99"
                           " --recovery checkpoint --checkpoint-interval 1.5";
  const auto first = run_command(args);
  const auto second = run_command(args);
  ASSERT_EQ(first.exit_code, 0);
  EXPECT_EQ(first.output, second.output);
}

TEST(Cli, UnknownIoStrategySuggestsNearestMatch) {
  const auto result = run_command(
      "--eet " + data("eet_homogeneous.csv") +
      " --generate low --policy FCFS --mtbf 50 --recovery checkpoint"
      " --io-bandwidth 100 --io-strategy cooperativ");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown io strategy"), std::string::npos);
  EXPECT_NE(result.output.find("did you mean 'cooperative'"), std::string::npos);
  // The full roster rides along so the user can pick without the docs.
  EXPECT_NE(result.output.find("selfish | cooperative"), std::string::npos);
}

TEST(Cli, IoFlagsWithoutFaultSourceRejected) {
  const auto result =
      run_command("--eet " + data("eet_homogeneous.csv") +
                  " --generate low --policy FCFS --io-bandwidth 100");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--mtbf or --fault-trace"), std::string::npos);
}

TEST(Cli, IoFlagsWithoutBandwidthRejected) {
  const auto result = run_command(
      "--eet " + data("eet_homogeneous.csv") +
      " --generate low --policy FCFS --mtbf 50 --recovery checkpoint"
      " --io-strategy cooperative");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--io-bandwidth"), std::string::npos);
}

TEST(Cli, MultiTenantRunPrintsPerTenantWaste) {
  const auto result = run_command(
      "--eet " + data("eet_heterogeneous.csv") +
      " --generate medium --seed 5 --policy MECT --mtbf 40 --mttr 5"
      " --fault-seed 7 --recovery checkpoint --io-bandwidth 100"
      " --io-strategy cooperative --tenants 3 --tenant-report -");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("io channel: bandwidth=100"), std::string::npos);
  EXPECT_NE(result.output.find("3 tenants"), std::string::npos);
  EXPECT_NE(result.output.find("tenant0:"), std::string::npos);
  EXPECT_NE(result.output.find("tenant2:"), std::string::npos);
  // Tenant Report CSV header and one row per tenant.
  EXPECT_NE(result.output.find("tenant,tasks,completed,useful_s"), std::string::npos);
  EXPECT_NE(result.output.find("tenant1,"), std::string::npos);
}

TEST(Cli, TenantsWithoutGenerateRejected) {
  const auto result = run_command("--eet " + data("eet_heterogeneous.csv") +
                                  " --workload " + data("workload_low.csv") +
                                  " --policy FCFS --tenants 2");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--tenants needs --generate"), std::string::npos);
}

TEST(ExperimentCli, HelpAndMissingConfig) {
  EXPECT_EQ(run_experiment("--help").exit_code, 0);
  // No config at all is invalid input (2), not an internal error (1).
  EXPECT_EQ(run_experiment("").exit_code, 2);
}

TEST(ExperimentCli, FlagsWithoutConfigAreInvalidInput) {
  // Only --help may run without a CONFIG.ini.
  const auto result = run_experiment("--progress");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("CONFIG.ini is required"), std::string::npos);
}

TEST(ExperimentCli, StrayPositionalIsInvalidInput) {
  // Like e2c_run, a direct run rejects an argument it would otherwise
  // ignore, before any work starts.
  const auto result = run_experiment(data("experiment_example.ini") + " 1 extra");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unexpected argument 'extra'"), std::string::npos);
}

TEST(ExperimentCli, NonNumericWorkersIsInvalidInput) {
  // std::stoul used to throw std::invalid_argument here, which surfaced as
  // exit 1 (internal error) instead of 2 (invalid input).
  const auto result = run_experiment(data("experiment_example.ini") + " banana");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("workers"), std::string::npos);
}

TEST(ExperimentCli, NegativeWorkersIsInvalidInput) {
  // std::stoul used to wrap "-1" to SIZE_MAX and march on.
  const auto result = run_experiment(data("experiment_example.ini") + " -1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("workers"), std::string::npos);
}

TEST(ExperimentCli, TrailingJunkInWorkersIsInvalidInput) {
  EXPECT_EQ(run_experiment(data("experiment_example.ini") + " 2x").exit_code, 2);
}

TEST(ExperimentCli, MissingConfigFileIsIoError) {
  EXPECT_EQ(run_experiment("/nonexistent/sweep.ini 1").exit_code, 3);
}

TEST(ExperimentCli, UnknownBackendRejectedWithRosterAndSuggestion) {
  const auto result =
      run_experiment(data("experiment_example.ini") + " 1 --backend porcs");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown experiment backend"), std::string::npos);
  EXPECT_NE(result.output.find("did you mean 'procs'"), std::string::npos);
  EXPECT_NE(result.output.find("threads | procs"), std::string::npos);
}

TEST(ExperimentCli, NonPositiveCellTimeoutRejectedWithLocator) {
  for (const char* bad : {"0", "-1", "nope"}) {
    const auto result = run_experiment(data("experiment_example.ini") +
                                       " 1 --backend procs --cell-timeout " + bad);
    EXPECT_EQ(result.exit_code, 2) << bad;
    EXPECT_NE(result.output.find("--cell-timeout must be"), std::string::npos) << bad;
    EXPECT_NE(result.output.find(bad), std::string::npos) << bad;
  }
}

TEST(ExperimentCli, NonPositiveMaxRetriesRejectedWithLocator) {
  for (const char* bad : {"0", "-2", "many"}) {
    const auto result = run_experiment(data("experiment_example.ini") +
                                       " 1 --backend procs --max-retries " + bad);
    EXPECT_EQ(result.exit_code, 2) << bad;
    EXPECT_NE(result.output.find("--max-retries must be"), std::string::npos) << bad;
  }
}

TEST(ExperimentCli, SupervisionFlagsNeedProcsBackend) {
  const auto timeout =
      run_experiment(data("experiment_example.ini") + " 1 --cell-timeout 5");
  EXPECT_EQ(timeout.exit_code, 2);
  EXPECT_NE(timeout.output.find("--cell-timeout needs --backend procs"),
            std::string::npos);
  const auto retries =
      run_experiment(data("experiment_example.ini") + " 1 --max-retries 3");
  EXPECT_EQ(retries.exit_code, 2);
  EXPECT_NE(retries.output.find("--max-retries needs --backend procs"),
            std::string::npos);
}

TEST(ExperimentCli, ResumeNeedsJournal) {
  const auto result = run_experiment(data("experiment_example.ini") + " 1 --resume");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--resume needs --journal"), std::string::npos);
}

TEST(ExperimentCli, UnknownFlagRejectedWithSuggestion) {
  // A typo'd flag used to be swallowed as a positional argument; it must be
  // exit 2 with a nearest-match hint.
  const auto typo =
      run_experiment(data("experiment_example.ini") + " 1 --cel-timeout 5");
  EXPECT_EQ(typo.exit_code, 2);
  EXPECT_NE(typo.output.find("unknown flag '--cel-timeout'"), std::string::npos);
  EXPECT_NE(typo.output.find("did you mean '--cell-timeout'"), std::string::npos);
  const auto nonsense = run_experiment("--frobnicate");
  EXPECT_EQ(nonsense.exit_code, 2);
  EXPECT_NE(nonsense.output.find("unknown flag '--frobnicate'"), std::string::npos);
}

TEST(ExperimentCli, NonPositiveServeWorkersRejectedWithLocator) {
  for (const char* bad : {"0", "-1", "lots"}) {
    const auto result =
        run_experiment(std::string("--serve /tmp/e2c_cli_test.sock --serve-workers ") +
                       bad);
    EXPECT_EQ(result.exit_code, 2) << bad;
    EXPECT_NE(result.output.find("--serve-workers must be"), std::string::npos) << bad;
    EXPECT_NE(result.output.find("(--serve-workers)"), std::string::npos) << bad;
  }
}

TEST(ExperimentCli, NonPositiveBacklogRejectedWithLocator) {
  for (const char* bad : {"0", "-3", "full"}) {
    const auto result = run_experiment(
        std::string("--serve /tmp/e2c_cli_test.sock --backlog ") + bad);
    EXPECT_EQ(result.exit_code, 2) << bad;
    EXPECT_NE(result.output.find("--backlog must be"), std::string::npos) << bad;
    EXPECT_NE(result.output.find("(--backlog)"), std::string::npos) << bad;
  }
}

TEST(ExperimentCli, NegativeQueueSizeInConfigIsInvalidInput) {
  const std::string config = testing::TempDir() + "/e2c_cli_negative_queue.ini";
  {
    std::ofstream out(config);
    out << "[system]\nqueue_size = -1\n[sweep]\npolicies = MM\nintensities = low\n";
  }
  const auto result = run_experiment(config);
  std::remove(config.c_str());
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("system.queue_size must be >= 0"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("(" + config + ":2)"), std::string::npos) << result.output;
}

TEST(ExperimentCli, SubmitWithoutSocketPathRejected) {
  const auto result = run_experiment("--submit");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("missing value for --submit"), std::string::npos);
}

TEST(ExperimentCli, SubmitWithoutConfigRejected) {
  const auto result = run_experiment("--submit /tmp/e2c_cli_test.sock");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--submit needs a CONFIG.ini"), std::string::npos);
}

TEST(ExperimentCli, ServeFlagsNeedServeMode) {
  const auto workers =
      run_experiment(data("experiment_example.ini") + " 1 --serve-workers 2");
  EXPECT_EQ(workers.exit_code, 2);
  EXPECT_NE(workers.output.find("--serve-workers needs --serve"), std::string::npos);
  const auto backlog = run_experiment(data("experiment_example.ini") + " 1 --backlog 2");
  EXPECT_EQ(backlog.exit_code, 2);
  EXPECT_NE(backlog.output.find("--backlog needs --serve"), std::string::npos);
}

TEST(ExperimentCli, ServeAndSubmitAreMutuallyExclusive) {
  const auto result = run_experiment("--serve /tmp/a.sock --submit /tmp/b.sock");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("mutually exclusive"), std::string::npos);
}

TEST(ExperimentCli, ServeRejectsPositionalConfig) {
  const auto result =
      run_experiment("--serve /tmp/e2c_cli_test.sock " + data("experiment_example.ini"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--serve takes no CONFIG.ini"), std::string::npos);
}

TEST(ExperimentCli, SubmitToMissingSocketIsInvalidInput) {
  const auto result = run_experiment("--submit /nonexistent/e2c.sock " +
                                     data("experiment_example.ini"));
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("no service socket"), std::string::npos);
}

TEST(Cli, IncompatibleWorkloadRejected) {
  // The quiz EET has task types T1-T3 only; the classroom workload uses
  // T1-T5 — the paper's compatibility rule must reject it.
  const auto result = run_command("--eet " + data("quiz_eet.csv") + " --workload " +
                                  data("workload_low.csv") + " --policy FCFS");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown task type"), std::string::npos);
}

}  // namespace
