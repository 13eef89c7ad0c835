// Tests for the crash-isolated process backend (exp/serve.hpp), the
// cell codec, and the resumable sweep journal. Fault injection uses the
// worker-side E2C_SERVE_TEST_* unit hooks (see worker_pool.cpp), matched on
// "slot/rep", so crashes, hangs and slow units are deterministic — no real
// faults needed. In small_spec() slot 1 is FCFS/high and slot 2 MECT/low.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/cell_codec.hpp"
#include "exp/experiment.hpp"
#include "exp/journal.hpp"
#include "exp/scenario.hpp"
#include "exp/spec_io.hpp"
#include "exp/worker_pool.hpp"
#include "hetero/eet_matrix.hpp"
#include "hetero/pet_matrix.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/framing.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"
#include "util/subprocess.hpp"

namespace {

namespace exp = e2c::exp;
using e2c::workload::Intensity;

#ifndef E2C_EXPERIMENT_BIN
#error "E2C_EXPERIMENT_BIN must be defined by the build"
#endif

exp::ExperimentSpec small_spec() {
  exp::ExperimentSpec spec;
  spec.system = exp::heterogeneous_classroom();
  spec.policies = {"FCFS", "MECT"};
  spec.intensities = {Intensity::kLow, Intensity::kHigh};
  spec.replications = 2;
  spec.duration = 60.0;
  spec.base_seed = 7;
  return spec;
}

std::string csv_of(const exp::ExperimentResult& result) {
  return e2c::util::to_csv(exp::result_csv(result));
}

/// Sets an environment variable for the lifetime of a scope; the worker
/// processes fork from this test binary, so they inherit it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem;
}

TEST(CellCodec, RoundTripsBitExactly) {
  const auto source = exp::run_experiment(small_spec(), 2);
  for (const auto& cell : source.cells) {
    const auto decoded = exp::decode_cell(exp::encode_cell(cell));
    EXPECT_EQ(decoded.policy, cell.policy);
    EXPECT_EQ(decoded.intensity, cell.intensity);
    EXPECT_EQ(decoded.status, cell.status);
    EXPECT_EQ(decoded.attempts, cell.attempts);
    // Whole records, doubles compared exactly: bit-exact doubles are the
    // point of the codec, and a field it forgets fails here.
    EXPECT_EQ(decoded.runs, cell.runs);
  }
}

/// small_spec() reduced to one cell, on \p system.
exp::ExperimentSpec one_cell_spec(e2c::sched::SystemConfig system) {
  exp::ExperimentSpec spec = small_spec();
  spec.system = std::move(system);
  spec.policies = {"MECT"};
  spec.intensities = {Intensity::kHigh};
  spec.replications = 3;
  return spec;
}

TEST(CellCodec, CellSizeDoesNotGrowWithTheCatalog) {
  std::vector<std::string> task_names;
  for (int t = 0; t < 1024; ++t) task_names.push_back("type-" + std::to_string(t));
  e2c::util::Rng rng(11);
  const auto wide = exp::run_experiment(
      one_cell_spec(e2c::sched::make_default_system(e2c::hetero::EetMatrix::random(
          std::move(task_names), {"m0", "m1", "m2", "m3"}, 2.0, 4.0, 4.0, true, rng))),
      1);
  const auto classroom = exp::run_experiment(one_cell_spec(exp::heterogeneous_classroom()), 1);
  ASSERT_EQ(wide.cells.size(), 1u);
  ASSERT_EQ(classroom.cells.size(), 1u);
  ASSERT_EQ(wide.cells[0].runs.size(), 3u);
  const std::string wide_payload = exp::encode_cell(wide.cells[0]);
  EXPECT_EQ(wide_payload.size(), exp::encode_cell(classroom.cells[0]).size());
  EXPECT_EQ(exp::decode_cell(wide_payload).runs, wide.cells[0].runs);
}

/// An empty cell's payload with its trailing run count (u32) set to \p runs.
std::string cell_payload_claiming(std::uint32_t runs) {
  exp::CellResult cell;
  cell.policy = "FCFS";
  cell.intensity = Intensity::kLow;
  std::string payload = exp::encode_cell(cell);
  std::memcpy(payload.data() + payload.size() - sizeof runs, &runs, sizeof runs);
  return payload;
}

TEST(CellCodec, RejectsCorruptPayloads) {
  exp::CellResult cell;
  cell.policy = "FCFS";
  cell.intensity = Intensity::kLow;
  const std::string payload = exp::encode_cell(cell);
  EXPECT_THROW((void)exp::decode_cell(payload.substr(0, payload.size() / 2)),
               e2c::InputError);
  EXPECT_THROW((void)exp::decode_cell(payload + "x"), e2c::InputError);
  EXPECT_THROW((void)exp::decode_cell(""), e2c::InputError);
  // A run count the payload size does not match fails before any allocation.
  EXPECT_THROW((void)exp::decode_cell(cell_payload_claiming(0xFFFFFFFFu)), e2c::InputError);
  EXPECT_THROW((void)exp::decode_cell(cell_payload_claiming(1)), e2c::InputError);
}

TEST(Framing, HexArmorRoundTripsAndRejectsJunk) {
  const std::string bytes("\x00\xff binary\n", 9);
  EXPECT_EQ(e2c::util::hex_decode(e2c::util::hex_encode(bytes)), bytes);
  EXPECT_THROW((void)e2c::util::hex_decode("abc"), e2c::InputError);   // odd length
  EXPECT_THROW((void)e2c::util::hex_decode("zz"), e2c::InputError);    // non-hex
}

TEST(ProcessPool, MatchesThreadsBackendByteForByte) {
  exp::RunOptions threads;
  threads.workers = 2;
  const auto baseline = exp::run_experiment(small_spec(), threads);

  exp::RunOptions procs;
  procs.workers = 2;
  procs.backend = exp::Backend::kProcs;
  const auto isolated = exp::run_experiment(small_spec(), procs);

  EXPECT_EQ(csv_of(isolated), csv_of(baseline));
  EXPECT_EQ(isolated.health.completed_cells, 4u);
  EXPECT_EQ(isolated.health.failed_cells, 0u);
  EXPECT_EQ(isolated.health.retries, 0u);
}

double cpu_seconds(const rusage& usage) {
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Units waiting for a busy worker must not turn the supervisor's poll() into
// a busy loop: with one worker and eight 200 ms units, the supervisor should
// sleep until the worker answers, not burn a core for the whole sweep.
TEST(ProcessPool, SupervisorSleepsWhileEveryWorkerIsBusy) {
  const ScopedEnv delay("E2C_SERVE_TEST_UNIT_DELAY_MS", "200");
  exp::RunOptions options;
  options.workers = 1;
  options.backend = exp::Backend::kProcs;
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  const auto start = std::chrono::steady_clock::now();
  const auto result = exp::run_experiment(small_spec(), options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);

  EXPECT_EQ(result.health.completed_cells, 4u);
  EXPECT_GE(wall, 0.8);  // eight units, one after another
  const double cpu = cpu_seconds(after) - cpu_seconds(before);
  EXPECT_LT(cpu, 0.25 * wall) << "supervisor used " << cpu << " CPU-s in " << wall
                              << " s wall";
}

// poll_timeout_ms, the one wake-up rule of both supervisors. Only the
// alive/busy/started fields of a Worker matter to it. The loop passes its
// clock in, so these cases pin `now` and expect exact timeouts.
const exp::Clock::time_point kNow{std::chrono::seconds(1000)};

exp::Worker fake_worker(bool alive, bool busy) {
  exp::Worker worker;
  worker.alive = alive;
  worker.busy = busy;
  worker.started = kNow;
  return worker;
}

std::deque<exp::Unit> one_unit_released_at(exp::Clock::time_point release) {
  exp::Unit unit;
  unit.release = release;
  return {unit};
}

TEST(WorkerPool, PollTimeoutIgnoresPastReleasesWhileEveryWorkerIsBusy) {
  std::vector<exp::Worker> workers;
  workers.push_back(fake_worker(true, true));
  workers.push_back(fake_worker(true, true));
  const auto ready = one_unit_released_at(kNow - std::chrono::seconds(1));
  EXPECT_EQ(exp::poll_timeout_ms(workers, 0.0, ready, kNow), 200);
}

TEST(WorkerPool, PollTimeoutClampsToAReleaseAnIdleOrDeadWorkerCanTake) {
  const auto ready = one_unit_released_at(kNow + std::chrono::milliseconds(150));
  for (const bool alive : {true, false}) {
    std::vector<exp::Worker> workers;
    workers.push_back(fake_worker(true, true));
    workers.push_back(fake_worker(alive, false));
    EXPECT_EQ(exp::poll_timeout_ms(workers, 0.0, ready, kNow), 150)
        << (alive ? "idle" : "dead");
  }
  std::vector<exp::Worker> workers;
  workers.push_back(fake_worker(true, false));
  EXPECT_EQ(exp::poll_timeout_ms(workers, 0.0,
                                 one_unit_released_at(kNow - std::chrono::seconds(1)), kNow),
            0);
}

TEST(WorkerPool, PollTimeoutClampsToABusyWorkersUnitDeadline) {
  std::vector<exp::Worker> workers;
  workers.push_back(fake_worker(true, true));
  const auto past = one_unit_released_at(kNow - std::chrono::seconds(1));
  EXPECT_EQ(exp::poll_timeout_ms(workers, 0.15, past, kNow), 150);
  workers.front().started -= std::chrono::seconds(1);  // overdue: wake at once
  EXPECT_EQ(exp::poll_timeout_ms(workers, 0.15, past, kNow), 0);
}

// dispatch_ready starts a unit's budget at the `now` it is given, so
// kill_overdue leaves the unit alone until the whole timeout has passed since
// then. The worker is a paused child, so a unit wrongly found overdue kills
// only that child.
TEST(WorkerPool, DispatchStartsTheBudgetAtTheGivenNow) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (;;) ::pause();
  }
  std::vector<exp::Worker> workers(1);
  exp::Worker& worker = workers.front();
  worker.pid = child;
  worker.cmd = std::make_unique<e2c::util::Pipe>();
  worker.res = std::make_unique<e2c::util::Pipe>();
  worker.alive = true;
  auto ready = one_unit_released_at(kNow);
  e2c::util::ByteWriter writer;
  exp::dispatch_ready(
      workers, ready,
      [](const exp::Unit&) -> std::optional<exp::UnitJob> { return exp::UnitJob{1, "[sweep]"}; },
      writer, kNow);
  EXPECT_TRUE(ready.empty());
  EXPECT_TRUE(worker.busy);
  EXPECT_EQ(worker.started, kNow);

  const double timeout = 2.0;
  const auto just_before = kNow + std::chrono::seconds(2) - std::chrono::milliseconds(1);
  EXPECT_TRUE(exp::kill_overdue(workers, timeout, just_before).empty());
  EXPECT_TRUE(worker.alive);
  EXPECT_EQ(exp::kill_overdue(workers, timeout, kNow + std::chrono::seconds(2)).size(), 1u);
  EXPECT_FALSE(worker.alive);  // killed and reaped
  if (worker.alive) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
}

TEST(WorkerPool, ChargeReleasesTheRetryABackoffAfterNow) {
  exp::UnitLedger ledger(/*job_id=*/7, {exp::Slot{"MECT", Intensity::kLow}},
                         /*reps=*/1, exp::RequeuePolicy{2});
  std::deque<exp::Unit> ready;
  exp::Unit unit;
  unit.job_id = 7;
  EXPECT_FALSE(ledger.charge(unit, ready, kNow).has_value());
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready.front().attempt, 1u);
  EXPECT_EQ(ready.front().release, kNow + std::chrono::milliseconds(50));
  unit = ready.front();
  ready.clear();
  EXPECT_FALSE(ledger.charge(unit, ready, kNow).has_value());
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready.front().release, kNow + std::chrono::milliseconds(100));  // doubled
  unit = ready.front();
  ready.clear();
  const auto failed = ledger.charge(unit, ready, kNow);  // retries exhausted
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status, exp::CellStatus::kFailed);
  EXPECT_TRUE(ready.empty());
}

TEST(ProcessPool, CrashedWorkerIsRetriedAndSweepCompletes) {
  exp::RunOptions options;
  options.workers = 2;
  const auto baseline = exp::run_experiment(small_spec(), options);

  const ScopedEnv crash("E2C_SERVE_TEST_CRASH_UNIT", "2/0");  // MECT/low
  options.backend = exp::Backend::kProcs;
  const auto result = exp::run_experiment(small_spec(), options);

  // The SIGKILL'd unit is requeued and recomputed; results stay identical.
  EXPECT_EQ(csv_of(result), csv_of(baseline));
  EXPECT_GE(result.health.retries, 1u);
  EXPECT_EQ(result.health.completed_cells, 4u);
  EXPECT_EQ(result.health.failed_cells, 0u);
  EXPECT_GE(result.cell("MECT", Intensity::kLow).attempts, 2u);
}

TEST(ProcessPool, HangingCellFailsAfterMaxRetriesAndSweepContinues) {
  const ScopedEnv hang("E2C_SERVE_TEST_HANG_UNIT", "1/0");  // FCFS/high
  exp::RunOptions options;
  options.workers = 2;
  options.backend = exp::Backend::kProcs;
  options.cell_timeout = 0.3;
  options.max_retries = 1;
  const auto result = exp::run_experiment(small_spec(), options);

  const auto& failed = result.cell("FCFS", Intensity::kHigh);
  EXPECT_EQ(failed.status, exp::CellStatus::kFailed);
  EXPECT_TRUE(failed.runs.empty());
  EXPECT_EQ(failed.attempts, 2u);  // initial dispatch + one retry
  EXPECT_EQ(result.health.failed_cells, 1u);
  EXPECT_EQ(result.health.completed_cells, 3u);
  EXPECT_EQ(result.health.retries, 1u);
  // Graceful degradation: the other cells completed with ok status.
  for (const auto& cell : result.cells) {
    if (&cell != &failed) {
      EXPECT_EQ(cell.status, exp::CellStatus::kOk);
    }
  }
}

TEST(ProcessPool, AlwaysCrashingUnitFailsOnlyItsCell) {
  exp::RunOptions options;
  options.workers = 2;
  const auto baseline = exp::run_experiment(small_spec(), options);

  // Unit 1/0 SIGKILLs its worker on every attempt: its retries run out and
  // only its cell degrades to kFailed, as under --serve.
  const ScopedEnv crash("E2C_SERVE_TEST_CRASH_ALWAYS", "1/0");  // FCFS/high
  options.backend = exp::Backend::kProcs;
  options.max_retries = 1;
  const auto result = exp::run_experiment(small_spec(), options);

  const auto& degraded = result.cell("FCFS", Intensity::kHigh);
  EXPECT_EQ(degraded.status, exp::CellStatus::kFailed);
  EXPECT_TRUE(degraded.runs.empty());
  EXPECT_EQ(degraded.attempts, options.max_retries + 1);
  EXPECT_EQ(result.health.failed_cells, 1u);
  EXPECT_EQ(result.health.completed_cells, 3u);
  const auto rows = exp::result_csv(result);
  const auto baseline_rows = exp::result_csv(baseline);
  ASSERT_EQ(rows.size(), baseline_rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 2) continue;  // row 0 is the header; row 2 is slot 1
    EXPECT_EQ(rows[i], baseline_rows[i]) << "row " << i;
  }
  EXPECT_EQ(rows[2][0], "FCFS");
  EXPECT_EQ(rows[2].back(), "failed");
}

TEST(ProcessPool, JournalResumeSkipsCompletedCells) {
  for (const exp::Backend backend : {exp::Backend::kProcs, exp::Backend::kThreads}) {
    SCOPED_TRACE(backend == exp::Backend::kProcs ? "procs" : "threads");
    const std::string journal_path = temp_path("resume_journal.txt");
    exp::RunOptions options;
    options.workers = 2;
    options.backend = backend;
    options.journal_path = journal_path;
    const auto full = exp::run_experiment(small_spec(), options);

    // Simulate an interrupted run: keep the header and the first two cell
    // records, as if the supervisor died mid-sweep.
    std::ifstream in(journal_path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    in.close();
    ASSERT_GE(lines.size(), 5u);  // header + 4 cells
    std::ofstream out(journal_path, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) out << lines[i] << "\n";
    out.close();

    std::size_t progress_calls = 0;
    options.resume = true;
    options.progress = [&progress_calls](std::size_t, std::size_t,
                                         const exp::CellResult&) { ++progress_calls; };
    const auto resumed = exp::run_experiment(small_spec(), options);

    EXPECT_EQ(csv_of(resumed), csv_of(full));
    EXPECT_EQ(resumed.health.resumed_cells, 2u);
    EXPECT_EQ(resumed.health.completed_cells, 4u);
    EXPECT_EQ(progress_calls, 2u);  // only the fresh cells fire progress
  }
}

TEST(ProcessPool, ResumeRejectsJournalFromDifferentSweep) {
  const std::string journal_path = temp_path("mismatch_journal.txt");
  exp::RunOptions options;
  options.backend = exp::Backend::kProcs;
  options.journal_path = journal_path;
  (void)exp::run_experiment(small_spec(), options);

  auto other = small_spec();
  other.base_seed = 8;  // different sweep => different spec digest
  options.resume = true;
  EXPECT_THROW((void)exp::run_experiment(other, options), e2c::InputError);

  // Stochastic execution alone makes a different sweep too.
  auto stochastic = small_spec();
  stochastic.system.pet = e2c::hetero::PetMatrix::homoscedastic(
      stochastic.system.eet, e2c::hetero::PetKind::kLognormal, 0.3);
  EXPECT_NE(exp::spec_digest(stochastic), exp::spec_digest(small_spec()));
  EXPECT_THROW((void)exp::run_experiment(stochastic, options), e2c::InputError);
}

TEST(Journal, DropsTornFinalLineKeepsRest) {
  const std::string journal_path = temp_path("torn_journal.txt");
  exp::RunOptions options;
  options.backend = exp::Backend::kProcs;
  options.journal_path = journal_path;
  (void)exp::run_experiment(small_spec(), options);

  // Chop the file mid-way through its final record — the SIGKILL case.
  std::ifstream in(journal_path);
  std::stringstream whole;
  whole << in.rdbuf();
  in.close();
  const std::string text = whole.str();
  std::ofstream out(journal_path, std::ios::trunc);
  out << text.substr(0, text.size() - 20);
  out.close();

  const auto contents = exp::read_journal(journal_path);
  EXPECT_EQ(contents.cells_total, 4u);
  EXPECT_EQ(contents.cells.size(), 3u);  // torn record dropped, rest intact
}

// A torn final line whose payload claims 0xFFFFFFFF runs is a torn tail like
// any other: read_journal drops it, and a resume reruns that cell and leaves
// a journal the next resume reads in full.
TEST(Journal, TornTailWithHugeRunCountIsDroppedAndResumed) {
  const std::string journal_path = temp_path("huge_count_journal.txt");
  exp::RunOptions options;
  options.journal_path = journal_path;
  const std::string expected = csv_of(exp::run_experiment(small_spec(), options));

  const std::string text = e2c::util::read_file(journal_path);
  const std::size_t last_line = text.rfind('\n', text.size() - 2) + 1;
  std::ofstream(journal_path, std::ios::trunc)
      << text.substr(0, last_line) << "cell 3 "
      << e2c::util::hex_encode(cell_payload_claiming(0xFFFFFFFFu));  // no newline

  const auto contents = exp::read_journal(journal_path);
  EXPECT_EQ(contents.cells.size(), 3u);
  EXPECT_EQ(contents.intact_bytes, last_line);

  options.resume = true;
  EXPECT_EQ(csv_of(exp::run_experiment(small_spec(), options)), expected);
  EXPECT_EQ(exp::read_journal(journal_path).cells.size(), 4u);
}

TEST(Journal, OtherVersionIsRefusedAtItsHeader) {
  const std::string journal_path = temp_path("v1_journal.txt");
  std::ofstream(journal_path, std::ios::trunc)
      << "e2c-sweep-journal v1 digest=0123456789abcdef cells=4\n"
      << "cell 0 00\n";
  for (const bool resume : {false, true}) {
    try {
      if (resume) {
        exp::RunOptions options;
        options.journal_path = journal_path;
        options.resume = true;
        (void)exp::run_experiment(small_spec(), options);
      } else {
        (void)exp::read_journal(journal_path);
      }
      FAIL() << "expected InputError";
    } catch (const e2c::InputError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("v1"), std::string::npos) << message;
      EXPECT_EQ(message.find("corrupt record"), std::string::npos) << message;
    }
  }
}

TEST(Backend, ParseRejectsUnknownWithSuggestion) {
  EXPECT_EQ(exp::parse_backend("threads"), exp::Backend::kThreads);
  EXPECT_EQ(exp::parse_backend("procs"), exp::Backend::kProcs);
  try {
    (void)exp::parse_backend("porcs");
    FAIL() << "expected InputError";
  } catch (const e2c::InputError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("procs"), std::string::npos) << message;
    EXPECT_NE(message.find("threads"), std::string::npos) << message;
  }
}

// --- CLI-level: SIGTERM graceful drain against the real binary. ------------

/// fork+execs `e2c_experiment ini_path 1 --backend procs --journal
/// journal_path extra...` with stdout in \p out_path; \p unit_delay_ms, when
/// set, slows every unit through E2C_SERVE_TEST_UNIT_DELAY_MS.
pid_t start_procs_sweep(const std::string& ini_path, const std::string& journal_path,
                        const std::string& out_path, const char* unit_delay_ms,
                        const std::vector<std::string>& extra = {}) {
  const pid_t child = fork();
  if (child == 0) {
    FILE* out = std::freopen(out_path.c_str(), "w", stdout);
    if (out == nullptr) _exit(97);
    if (unit_delay_ms != nullptr) ::setenv("E2C_SERVE_TEST_UNIT_DELAY_MS", unit_delay_ms, 1);
    std::vector<std::string> args = {E2C_EXPERIMENT_BIN, ini_path, "1", "--backend", "procs",
                                     "--journal", journal_path};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(E2C_EXPERIMENT_BIN, argv.data());
    _exit(98);  // exec failed
  }
  return child;
}

TEST(ProcessPool, SigtermDrainExitsCleanlyWithValidPartialJournal) {
  const std::string journal_path = temp_path("drain_journal.txt");
  const std::string ini_path = temp_path("drain_spec.ini");
  const std::string out_path = temp_path("drain_stdout.txt");
  const std::string csv_path = temp_path("drain_result.csv");
  {
    std::ofstream ini(ini_path, std::ios::trunc);
    ini << "[sweep]\n"
           "policies = FCFS, MECT\n"
           "intensities = low, high\n"
           "replications = 2\n"
           "duration = 30\n"
           "seed = 7\n"
           "\n"
           "[output]\n"
           "csv = " << csv_path << "\n";
  }

  // One worker so the drain provably leaves holes: queued units are
  // dropped, only the single in-flight unit finishes.
  const pid_t child = start_procs_sweep(ini_path, journal_path, out_path, "400");
  ASSERT_GE(child, 0);
  // Let the first wave of cells get in flight, then request a drain.
  ::usleep(600 * 1000);
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);  // drain is a success, not a crash

  std::ifstream out(out_path);
  std::stringstream captured;
  captured << out.rdbuf();
  EXPECT_NE(captured.str().find("drained"), std::string::npos) << captured.str();
  EXPECT_NE(captured.str().find("--resume"), std::string::npos);

  // The partial journal parses and holds only finished cells.
  const auto contents = exp::read_journal(journal_path);
  EXPECT_EQ(contents.cells_total, 4u);
  EXPECT_LT(contents.cells.size(), 4u);  // drained before the sweep finished
  for (const auto& [slot, cell] : contents.cells) {
    EXPECT_LT(slot, 4u);
    EXPECT_EQ(cell.status, exp::CellStatus::kOk);
    EXPECT_EQ(cell.runs.size(), 2u);
  }

  // Resuming the journal the drain left finishes the sweep, and the result
  // is the one an uninterrupted threads run gives.
  const std::string resumed_out = temp_path("drain_resumed_stdout.txt");
  const pid_t resumed = start_procs_sweep(ini_path, journal_path, resumed_out, nullptr,
                                          {"--resume"});
  ASSERT_GE(resumed, 0);
  ASSERT_EQ(::waitpid(resumed, &status, 0), resumed);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream resumed_stdout(resumed_out);
  std::stringstream resumed_text;
  resumed_text << resumed_stdout.rdbuf();
  EXPECT_NE(resumed_text.str().find(std::to_string(contents.cells.size()) + " resumed"),
            std::string::npos)
      << resumed_text.str();
  EXPECT_EQ(resumed_text.str().find("drained"), std::string::npos) << resumed_text.str();

  exp::RunOptions threads;
  threads.workers = 2;
  const auto reference = exp::run_experiment(
      exp::spec_from_ini(e2c::util::IniFile::load(ini_path)), threads);
  std::ifstream csv(csv_path);
  std::stringstream resumed_csv;
  resumed_csv << csv.rdbuf();
  EXPECT_EQ(resumed_csv.str(), csv_of(reference));
  EXPECT_EQ(exp::read_journal(journal_path).cells.size(), 4u);
}

}  // namespace
