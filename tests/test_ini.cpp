// Unit tests for the INI config parser (util/ini.hpp) and the experiment
// spec loader (exp/spec_io.hpp).
#include "util/ini.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "exp/spec_io.hpp"
#include "hetero/pet_matrix.hpp"
#include "net/comm_model.hpp"
#include "sched/registry.hpp"
#include "support/digest_scenarios.hpp"
#include "util/error.hpp"

namespace {

using e2c::util::IniFile;

TEST(Ini, ParsesSectionsAndPairs) {
  const IniFile ini = IniFile::parse(
      "[system]\n"
      "scenario = heterogeneous\n"
      "queue_size = 2\n"
      "\n"
      "[sweep]\n"
      "policies = FCFS, MECT\n");
  EXPECT_EQ(ini.get("system", "scenario").value(), "heterogeneous");
  EXPECT_EQ(ini.get_int("system", "queue_size").value(), 2);
  EXPECT_TRUE(ini.has_section("sweep"));
  EXPECT_FALSE(ini.has_section("output"));
  EXPECT_TRUE(ini.has_section("system"));
  EXPECT_TRUE(IniFile::parse("[Faults]\n").has_section("faults"));  // a header alone
}

TEST(Ini, CommentsAndWhitespace) {
  const IniFile ini = IniFile::parse(
      "# full-line comment\n"
      "[a]\n"
      "  key  =  value with spaces   ; trailing comment\n"
      "other = 3.5 # also a comment\n");
  EXPECT_EQ(ini.get("a", "key").value(), "value with spaces");
  EXPECT_DOUBLE_EQ(ini.get_double("a", "other").value(), 3.5);
}

TEST(Ini, CaseInsensitiveLookup) {
  const IniFile ini = IniFile::parse("[Section]\nKey = V\n");
  EXPECT_EQ(ini.get("sEcTiOn", "kEy").value(), "V");
}

TEST(Ini, LastAssignmentWins) {
  const IniFile ini = IniFile::parse("[a]\nk = 1\nk = 2\n");
  EXPECT_EQ(ini.get("a", "k").value(), "2");
}

TEST(Ini, ListsSplitAndTrim) {
  const IniFile ini = IniFile::parse("[s]\nitems = a , b,c ,\n");
  EXPECT_EQ(ini.get_list("s", "items"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(ini.get_list("s", "missing").empty());
}

TEST(Ini, AccessorsReportAbsence) {
  const IniFile ini = IniFile::parse("[s]\nk = x\n");
  EXPECT_FALSE(ini.get("s", "missing").has_value());
  EXPECT_EQ(ini.get_or("s", "missing", "fallback"), "fallback");
  EXPECT_FALSE(ini.get_double("s", "missing").has_value());
}

TEST(Ini, MalformedInputRejected) {
  EXPECT_THROW((void)IniFile::parse("[unterminated\n"), e2c::InputError);
  EXPECT_THROW((void)IniFile::parse("[s]\nno equals sign here\n"), e2c::InputError);
  EXPECT_THROW((void)IniFile::parse("[s]\n= value\n"), e2c::InputError);
  const IniFile ini = IniFile::parse("[s]\nk = abc\n");
  EXPECT_THROW((void)ini.get_double("s", "k"), e2c::InputError);
  EXPECT_THROW((void)ini.get_int("s", "k"), e2c::InputError);
}

TEST(Ini, LoadMissingFileThrows) {
  EXPECT_THROW((void)IniFile::load("/nonexistent/config.ini"), e2c::IoError);
}

/// The message of the InputError \p read throws ("" if it throws none).
template <typename Read>
std::string input_error(Read read) {
  try {
    read();
  } catch (const e2c::InputError& error) {
    return error.what();
  }
  return {};
}

TEST(Ini, WhereLocatesTheDefiningLine) {
  const IniFile ini = IniFile::parse(
      "[a]\n"
      "k = 1\n"
      "\n"
      "[b]\n"
      "k = 2\n"
      "k = 3\n");  // last assignment wins, so line 6 is the defining one
  EXPECT_EQ(ini.where("a", "k"), "line 2");
  EXPECT_EQ(ini.where("b", "k"), "line 6");
  // Unknown keys degrade to a section.key locator instead of a bogus line.
  EXPECT_EQ(ini.where("b", "missing"), "b.missing");
  // A malformed number names its line too.
  const IniFile bad = IniFile::parse("[faults]\nseed = 7\nmtbf = abc\n");
  EXPECT_NE(input_error([&] { (void)bad.get_double("faults", "mtbf"); })
                .find("faults.mtbf is not a number: 'abc' (line 3)"),
            std::string::npos);
}

TEST(Ini, AddedEntriesCarryTheirLocator) {
  IniFile ini = IniFile::parse("[faults]\nmtbf = 50\n");
  // A later add() overrides the parsed line, as a later line would, and the
  // value is kept verbatim: ';' and '#' start no comment here.
  ini.add("Faults", "MTBF", "60", "--mtbf");
  ini.add("recovery", "strategy", "checkpoint", "--recovery");
  ini.add("faults", "trace", " run;1#a.csv", "--fault-trace");
  EXPECT_EQ(ini.get("faults", "mtbf").value(), "60");
  EXPECT_EQ(ini.where("faults", "mtbf"), "--mtbf");
  EXPECT_EQ(ini.get("faults", "trace").value(), " run;1#a.csv");
  EXPECT_EQ(ini.where("faults", "trace"), "--fault-trace");
  EXPECT_TRUE(ini.has_section("faults"));
  EXPECT_TRUE(ini.has_section("recovery"));

  IniFile flags;
  flags.add("faults", "mtbf", "abc", "--mtbf");
  EXPECT_NE(input_error([&] { (void)flags.get_double("faults", "mtbf"); })
                .find("faults.mtbf is not a number: 'abc' (--mtbf)"),
            std::string::npos);
}

TEST(Ini, WhereUsesThePathWhenLoadedFromFile) {
  const std::string path = testing::TempDir() + "/e2c_ini_where.ini";
  {
    std::ofstream out(path);
    out << "[faults]\nmtbf = 50.5\n";
  }
  const IniFile ini = IniFile::load(path);
  EXPECT_EQ(ini.where("faults", "mtbf"), path + ":2");
  EXPECT_NE(input_error([&] { (void)ini.get_int("faults", "mtbf"); })
                .find("faults.mtbf is not an integer: '50.5' (" + path + ":2)"),
            std::string::npos);
  std::remove(path.c_str());
}

// ---- experiment spec loading ----------------------------------------------

const char* kValidConfig =
    "[system]\n"
    "scenario = homogeneous\n"
    "queue_size = 3\n"
    "[sweep]\n"
    "policies = FCFS, MM\n"
    "intensities = low, high\n"
    "replications = 4\n"
    "duration = 80\n"
    "seed = 9\n"
    "arrival = burst\n"
    "deadline_lo = 1.5\n"
    "deadline_hi = 3.0\n"
    "[output]\n"
    "title = spec test\n";

TEST(SpecIo, LoadsFullSpec) {
  const auto spec = e2c::exp::spec_from_ini(IniFile::parse(kValidConfig));
  EXPECT_TRUE(spec.system.eet.is_homogeneous());
  EXPECT_EQ(spec.system.machine_queue_capacity, 3u);
  EXPECT_EQ(spec.policies, (std::vector<std::string>{"FCFS", "MM"}));
  ASSERT_EQ(spec.intensities.size(), 2u);
  EXPECT_EQ(spec.intensities[1], e2c::workload::Intensity::kHigh);
  EXPECT_EQ(spec.replications, 4u);
  EXPECT_DOUBLE_EQ(spec.duration, 80.0);
  EXPECT_EQ(spec.base_seed, 9u);
  EXPECT_EQ(spec.arrival, e2c::workload::ArrivalKind::kBurst);
  EXPECT_DOUBLE_EQ(spec.deadline_factor_lo, 1.5);
}

TEST(SpecIo, DefaultsApplied) {
  const auto spec = e2c::exp::spec_from_ini(IniFile::parse(
      "[sweep]\npolicies = MECT\nintensities = medium\n"));
  EXPECT_FALSE(spec.system.eet.is_homogeneous());  // heterogeneous default
  EXPECT_EQ(spec.replications, 10u);               // ExperimentSpec default
  EXPECT_EQ(spec.arrival, e2c::workload::ArrivalKind::kPoisson);
}

TEST(SpecIo, OutputsParsed) {
  const auto outputs = e2c::exp::outputs_from_ini(IniFile::parse(
      "[output]\ntitle = t\ncsv = a.csv\nchart_svg = b.svg\n"));
  EXPECT_EQ(outputs.title, "t");
  EXPECT_EQ(outputs.csv_path.value(), "a.csv");
  EXPECT_EQ(outputs.chart_svg_path.value(), "b.svg");
}

TEST(SpecIo, FaultsSectionParsed) {
  const auto spec = e2c::exp::spec_from_ini(IniFile::parse(
      "[sweep]\npolicies = MECT\nintensities = medium\n"
      "[faults]\nmtbf = 120\nmttr = 8\nseed = 5\n"
      "max_retries = 2\nbackoff = 0.5\nbackoff_factor = 3\n"));
  const auto& faults = spec.system.faults;
  EXPECT_TRUE(faults.enabled);  // section presence enables
  EXPECT_EQ(faults.mode, e2c::fault::FaultMode::kStochastic);
  EXPECT_DOUBLE_EQ(faults.mtbf, 120.0);
  EXPECT_DOUBLE_EQ(faults.mttr, 8.0);
  EXPECT_EQ(faults.seed, 5u);
  EXPECT_EQ(faults.retry.max_retries, 2u);
  EXPECT_DOUBLE_EQ(faults.retry.backoff_base, 0.5);
  EXPECT_DOUBLE_EQ(faults.retry.backoff_factor, 3.0);

  const auto off = e2c::exp::spec_from_ini(IniFile::parse(
      "[sweep]\npolicies = MECT\nintensities = medium\n"
      "[faults]\nenabled = no\nmtbf = 120\n"));
  EXPECT_FALSE(off.system.faults.enabled);

  const auto none = e2c::exp::spec_from_ini(
      IniFile::parse("[sweep]\npolicies = MECT\nintensities = medium\n"));
  EXPECT_FALSE(none.system.faults.enabled);
}

TEST(SpecIo, FaultsValidationNamesTheDefiningLine) {
  try {
    (void)e2c::exp::spec_from_ini(IniFile::parse(
        "[sweep]\npolicies = MM\nintensities = low\n"
        "[faults]\nmtbf = -1\n"));
    FAIL() << "expected InputError";
  } catch (const e2c::InputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("faults.mtbf must be > 0"), std::string::npos) << what;
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
  }
}

TEST(SpecIo, RecoverySectionParsed) {
  const auto spec = e2c::exp::spec_from_ini(IniFile::parse(
      "[sweep]\npolicies = MECT\nintensities = medium\n"
      "[faults]\nmtbf = 120\nmttr = 8\n"
      "[recovery]\nstrategy = checkpoint\ncheckpoint_interval = 2\n"
      "checkpoint_cost = 0.25\nrestart_cost = 0.75\n"));
  const auto& recovery = spec.system.faults.recovery;
  EXPECT_EQ(recovery.strategy, e2c::fault::RecoveryStrategy::kCheckpoint);
  EXPECT_DOUBLE_EQ(recovery.checkpoint_interval, 2.0);
  EXPECT_DOUBLE_EQ(recovery.checkpoint_cost, 0.25);
  EXPECT_DOUBLE_EQ(recovery.restart_cost, 0.75);
}

TEST(SpecIo, RecoveryNeedsFaults) {
  EXPECT_THROW((void)e2c::exp::spec_from_ini(IniFile::parse(
                   "[sweep]\npolicies = MM\nintensities = low\n"
                   "[recovery]\nstrategy = checkpoint\n")),
               e2c::InputError);
}

TEST(SpecIo, RecoveryValidationNamesTheDefiningLine) {
  try {
    (void)e2c::exp::spec_from_ini(IniFile::parse(
        "[sweep]\npolicies = MM\nintensities = low\n"
        "[faults]\nmtbf = 100\n"
        "[recovery]\nstrategy = replicate\nreplicas = 99\n"));
    FAIL() << "expected InputError";
  } catch (const e2c::InputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("replicas"), std::string::npos) << what;
    EXPECT_NE(what.find("line 8"), std::string::npos) << what;
    EXPECT_NE(what.find("distinct machines"), std::string::npos) << what;
  }
}

TEST(SpecIo, MtbfAndTraceAreMutuallyExclusive) {
  // A valid trace, so only the pairing can be at fault.
  const std::string trace_path = testing::TempDir() + "/e2c_spec_trace.csv";
  {
    std::ofstream out(trace_path);
    out << "machine,fail_time,repair_time\n0,10,20\n";
  }
  const std::string what = input_error([&] {
    (void)e2c::exp::spec_from_ini(IniFile::parse(
        "[sweep]\npolicies = MM\nintensities = low\n"
        "[faults]\nmtbf = 100\ntrace = " + trace_path + "\n"));
  });
  std::remove(trace_path.c_str());
  EXPECT_NE(what.find("faults.mtbf and faults.trace are mutually exclusive"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("(line 5, line 6)"), std::string::npos) << what;
}

TEST(SpecIo, NegativeIntegersRejectedWithTheirLine) {
  const std::string sweep = "[sweep]\npolicies = MM\nintensities = low\n";
  const auto error_of = [](const std::string& text) {
    return input_error([&] { (void)e2c::exp::spec_from_ini(IniFile::parse(text)); });
  };
  // Each would otherwise wrap to a huge unsigned value and run.
  const std::string queue = error_of("[system]\nqueue_size = -1\n" + sweep);
  EXPECT_NE(queue.find("system.queue_size must be >= 0"), std::string::npos) << queue;
  EXPECT_NE(queue.find("(line 2)"), std::string::npos) << queue;
  const std::string seed = error_of(sweep + "seed = -3\n");
  EXPECT_NE(seed.find("sweep.seed must be >= 0"), std::string::npos) << seed;
  EXPECT_NE(seed.find("(line 4)"), std::string::npos) << seed;
  const std::string fault_seed = error_of(sweep + "[faults]\nmtbf = 100\nseed = -1\n");
  EXPECT_NE(fault_seed.find("faults.seed must be >= 0"), std::string::npos) << fault_seed;
  EXPECT_NE(fault_seed.find("(line 6)"), std::string::npos) << fault_seed;
}

TEST(SpecIo, DisabledFaultsSectionNeverOpensItsTrace) {
  const std::string sweep = "[sweep]\npolicies = MM\nintensities = low\n";
  const std::string missing = testing::TempDir() + "/e2c_spec_no_such_trace.csv";
  std::remove(missing.c_str());
  const auto off = e2c::exp::spec_from_ini(
      IniFile::parse(sweep + "[faults]\nenabled = false\ntrace = " + missing + "\n"));
  EXPECT_FALSE(off.system.faults.enabled);
  EXPECT_TRUE(off.system.faults.trace.empty());
  // The section's other keys are still checked, and so is the pairing.
  const std::string seed = input_error([&] {
    (void)e2c::exp::spec_from_ini(IniFile::parse(
        sweep + "[faults]\nenabled = false\ntrace = " + missing + "\nseed = -1\n"));
  });
  EXPECT_NE(seed.find("faults.seed must be >= 0 (line 7)"), std::string::npos) << seed;
  const std::string both = input_error([&] {
    (void)e2c::exp::spec_from_ini(IniFile::parse(
        sweep + "[faults]\nenabled = false\nmtbf = 100\ntrace = " + missing + "\n"));
  });
  EXPECT_NE(both.find("mutually exclusive"), std::string::npos) << both;
  // Enabled, the same section fails on the missing file.
  EXPECT_THROW((void)e2c::exp::spec_from_ini(
                   IniFile::parse(sweep + "[faults]\ntrace = " + missing + "\n")),
               e2c::IoError);
}

TEST(SpecIo, DeadlineFactorsRejectedWithTheirLines) {
  const std::string sweep = "[sweep]\npolicies = MM\nintensities = low\n";
  const auto error_of = [](const std::string& text) {
    return input_error([&] { (void)e2c::exp::spec_from_ini(IniFile::parse(text)); });
  };
  EXPECT_EQ(error_of(sweep + "deadline_lo = 0\n"),
            "experiment config: sweep.deadline_lo must be > 0 (line 4)");
  EXPECT_EQ(error_of(sweep + "deadline_hi = -2\n"),
            "experiment config: sweep.deadline_hi must be > 0 (line 4)");
  EXPECT_EQ(error_of(sweep + "deadline_lo = 3\ndeadline_hi = 2\n"),
            "experiment config: sweep.deadline_lo must be <= sweep.deadline_hi "
            "(line 4, line 5)");
  // An absent key is named by its section.key; the default hi is 4.
  EXPECT_EQ(error_of(sweep + "deadline_lo = 5\n"),
            "experiment config: sweep.deadline_lo must be <= sweep.deadline_hi "
            "(line 4, sweep.deadline_hi)");
  const auto spec =
      e2c::exp::spec_from_ini(IniFile::parse(sweep + "deadline_lo = 3\ndeadline_hi = 3\n"));
  EXPECT_DOUBLE_EQ(spec.deadline_factor_lo, 3.0);
  EXPECT_DOUBLE_EQ(spec.deadline_factor_hi, 3.0);
}

TEST(SpecIo, RejectsBadFaultsSection) {
  EXPECT_THROW((void)e2c::exp::spec_from_ini(IniFile::parse(
                   "[sweep]\npolicies = MM\nintensities = low\n"
                   "[faults]\nmtbf = -1\n")),
               e2c::InputError);
  EXPECT_THROW((void)e2c::exp::spec_from_ini(IniFile::parse(
                   "[sweep]\npolicies = MM\nintensities = low\n"
                   "[faults]\nenabled = maybe\n")),
               e2c::InputError);
}

TEST(SpecIo, RejectsInvalidConfigs) {
  EXPECT_THROW((void)e2c::exp::spec_from_ini(IniFile::parse("[sweep]\n")),
               e2c::InputError);  // no policies
  EXPECT_THROW((void)e2c::exp::spec_from_ini(
                   IniFile::parse("[sweep]\npolicies = MM\n")),
               e2c::InputError);  // no intensities
  EXPECT_THROW((void)e2c::exp::spec_from_ini(IniFile::parse(
                   "[system]\nscenario = marsbase\n"
                   "[sweep]\npolicies = MM\nintensities = low\n")),
               e2c::InputError);  // unknown scenario
  EXPECT_EQ(input_error([] {
              (void)e2c::exp::spec_from_ini(
                  IniFile::parse("[sweep]\npolicies = MM\nintensities = low, turbo\n"));
            }),
            "unknown intensity 'turbo' (low|medium|high) (line 3)");
}

TEST(SpecIo, NamedChoicesRejectedWithTheirLines) {
  const std::string sweep = "[sweep]\npolicies = MM\nintensities = low\n";
  const auto error_of = [](const std::string& text) {
    return input_error([&] { (void)e2c::exp::spec_from_ini(IniFile::parse(text)); });
  };
  EXPECT_EQ(error_of(sweep + "arrival = zipf\n"), "unknown arrival process: 'zipf' (line 4)");
  EXPECT_EQ(error_of("[system]\npet = gamma\n" + sweep),
            "unknown PET distribution: 'gamma' (line 2)");
  const std::string faults = sweep + "[faults]\nmtbf = 100\n";
  const std::string recovery = error_of(faults + "[recovery]\nstrategy = checkpont\n");
  EXPECT_NE(recovery.find("did you mean 'checkpoint'"), std::string::npos) << recovery;
  EXPECT_NE(recovery.find(") (line 7)"), std::string::npos) << recovery;
  const std::string io = error_of(faults +
                                  "[recovery]\nstrategy = checkpoint\n"
                                  "[io]\nbandwidth = 100\nstrategy = coop\n");
  EXPECT_EQ(io, "unknown io strategy: 'coop' (valid: selfish | cooperative) (line 10)");
  EXPECT_EQ(error_of("[system]\nautoscale = maybe\n" + sweep),
            "experiment config: system.autoscale must be a boolean, got 'maybe' (line 2)");
}

TEST(SpecIo, SystemPairingsAndBoundsRejectedWithTheirLines) {
  const std::string sweep = "[sweep]\npolicies = MM\nintensities = low\n";
  const auto error_of = [&](const std::string& system) {
    return input_error([&] {
      (void)e2c::exp::spec_from_ini(IniFile::parse("[system]\n" + system + sweep));
    });
  };
  // A value whose partner is missing would be ignored, so it is an error.
  EXPECT_EQ(error_of("pet_cv = 0.5\n"),
            "experiment config: system.pet_cv needs system.pet: the cv shapes the PET "
            "distribution (line 2, system.pet)");
  EXPECT_EQ(error_of("bandwidth = 10\n"),
            "experiment config: system.bandwidth needs system.payload_mb: the link "
            "carries task payloads only (line 2, system.payload_mb)");
  EXPECT_EQ(error_of("latency = 1\n"),
            "experiment config: system.latency needs system.payload_mb: the link "
            "carries task payloads only (line 2, system.payload_mb)");
  EXPECT_EQ(error_of("pet = normal\npet_cv = -1\n"),
            "experiment config: system.pet_cv must be >= 0 (line 3)");
  EXPECT_EQ(error_of("payload_mb = -1\n"),
            "experiment config: system.payload_mb must be >= 0 (line 2)");
  EXPECT_EQ(error_of("payload_mb = 1\nbandwidth = 0\n"),
            "experiment config: system.bandwidth must be > 0 (line 3)");
  EXPECT_EQ(error_of("payload_mb = 1\nlatency = -1\n"),
            "experiment config: system.latency must be >= 0 (line 3)");
  // Neither substrate without its keys; each with them.
  const auto plain = e2c::exp::system_from_ini(IniFile::parse("[system]\n"));
  EXPECT_FALSE(plain.pet.has_value());
  EXPECT_FALSE(plain.comm.has_value());
  EXPECT_FALSE(plain.autoscaler.enabled);
  const auto off = e2c::exp::system_from_ini(IniFile::parse("[system]\nautoscale = off\n"));
  EXPECT_FALSE(off.autoscaler.enabled);
  const auto link = e2c::exp::system_from_ini(
      IniFile::parse("[system]\npayload_mb = 2\nlatency = 0.5\n"));
  ASSERT_TRUE(link.comm.has_value());
  EXPECT_DOUBLE_EQ(link.comm->link(0).latency_seconds, 0.5);
  EXPECT_DOUBLE_EQ(link.comm->link(0).bandwidth_mb_per_s, 100.0);  // default MB/s
}

/// The run digest of \p system under MM on the golden scenarios' workload.
std::uint64_t mm_digest(e2c::sched::SystemConfig system) {
  const auto trace = e2c::test::digest_workload(system, e2c::test::kDigestRho,
                                                e2c::test::kDigestDuration);
  e2c::sched::Simulation simulation(std::move(system), e2c::sched::make_policy("MM"));
  simulation.load(trace);
  simulation.run();
  return e2c::test::digest_of(simulation);
}

TEST(SpecIo, SystemKeysBuildWhatTheFlagsBuilt) {
  const auto read = e2c::exp::system_from_ini(IniFile::parse(
      "[system]\npet = lognormal\npet_cv = 0.3\npayload_mb = 4\nbandwidth = 32\n"
      "autoscale = true\n"));
  // The same system built field by field, as e2c_run built it from
  // --pet lognormal --pet-cv 0.3 --payload-mb 4 --bandwidth 32 --autoscale.
  e2c::sched::SystemConfig by_hand = e2c::exp::heterogeneous_classroom(2);
  const auto& eet = by_hand.eet;
  by_hand.pet =
      e2c::hetero::PetMatrix::homoscedastic(eet, e2c::hetero::PetKind::kLognormal, 0.3);
  by_hand.comm = e2c::net::CommModel::uniform(eet.task_type_count(), eet.machine_type_count(),
                                              4.0, e2c::net::LinkSpec{0.0, 32.0});
  by_hand.autoscaler.enabled = true;
  by_hand.autoscaler.interval = 2.0;
  by_hand.autoscaler.queue_high = 4;
  by_hand.autoscaler.queue_low = 0;
  by_hand.autoscaler.boot_delay = 2.0;
  by_hand.autoscaler.min_online = 1;
  for (std::size_t m = 1; m < by_hand.machines.size(); ++m) {
    by_hand.autoscaler.initially_offline.push_back(m);
  }
  const std::uint64_t expected = mm_digest(by_hand);
  EXPECT_EQ(mm_digest(read), expected);
  // The keys reach the run: without them the digest differs.
  EXPECT_NE(mm_digest(e2c::exp::heterogeneous_classroom(2)), expected);
}

TEST(SpecIo, EndToEndRunFromFile) {
  const std::string config_path = testing::TempDir() + "/e2c_spec_test.ini";
  const std::string csv_path = testing::TempDir() + "/e2c_spec_test_out.csv";
  const std::string svg_path = testing::TempDir() + "/e2c_spec_test_out.svg";
  {
    std::ofstream out(config_path);
    out << "[system]\nscenario = homogeneous\n"
        << "[sweep]\npolicies = FCFS\nintensities = low\nreplications = 2\n"
        << "duration = 30\n"
        << "[output]\ntitle = e2e\ncsv = " << csv_path << "\nchart_svg = " << svg_path
        << "\n";
  }
  const IniFile ini = IniFile::load(config_path);
  e2c::exp::RunOptions options;
  options.workers = 2;
  const auto result = e2c::exp::run_experiment(e2c::exp::spec_from_ini(ini), options);
  e2c::exp::write_outputs(result, e2c::exp::outputs_from_ini(ini));
  EXPECT_EQ(result.cells.size(), 1u);
  std::ifstream csv(csv_path);
  std::ifstream svg(svg_path);
  EXPECT_TRUE(csv.good());
  EXPECT_TRUE(svg.good());
  std::remove(config_path.c_str());
  std::remove(csv_path.c_str());
  std::remove(svg_path.c_str());
}

}  // namespace
