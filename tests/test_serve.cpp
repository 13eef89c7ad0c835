// Tests for the resident sweep service (exp/serve.hpp): the job codec, the
// byte-identical-results guarantee against direct runs, worker crash
// supervision, backlog busy-rejection, SIGTERM drain, an idle supervisor
// while every worker is busy, and a front door that neither a silent
// connection nor a flood of them can stall. The service runs
// as the real e2c_experiment binary (fork+exec) and clients use the library
// submit_job path — the same split production uses. Fault injection uses the
// worker-side E2C_SERVE_TEST_* env hooks (see worker_pool.cpp), inherited through
// the exec, so crashes and slow units are deterministic.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/cell_codec.hpp"
#include "exp/experiment.hpp"
#include "exp/job_codec.hpp"
#include "exp/journal.hpp"
#include "exp/serve.hpp"
#include "exp/spec_io.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/ini.hpp"

namespace {

namespace exp = e2c::exp;
namespace util = e2c::util;

#ifndef E2C_EXPERIMENT_BIN
#error "E2C_EXPERIMENT_BIN must be defined by the build"
#endif

std::string config_text(std::uint64_t seed = 7) {
  return "[sweep]\n"
         "policies = FCFS, MECT\n"
         "intensities = low, high\n"
         "replications = 2\n"
         "duration = 60\n"
         "seed = " +
         std::to_string(seed) + "\n";
}

std::string csv_of(const exp::ExperimentResult& result) {
  return util::to_csv(exp::result_csv(result));
}

/// The ground truth a submitted job must match byte for byte: the same
/// config run directly on the crash-isolated process backend.
exp::ExperimentResult direct_run(const std::string& text) {
  const auto spec = exp::spec_from_ini(util::IniFile::parse(text, "test config"));
  exp::RunOptions options;
  options.workers = 2;
  options.backend = exp::Backend::kProcs;
  return exp::run_experiment(spec, options);
}

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

/// A started service process. Unless the test reaped it, the destructor
/// SIGKILLs and reaps it, so an assertion that ends a test early never leaves
/// the service running with the test's socket path and stdout.
class ServiceProcess {
 public:
  explicit ServiceProcess(pid_t pid) : pid_(pid) {}
  ~ServiceProcess() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ServiceProcess(const ServiceProcess&) = delete;
  ServiceProcess& operator=(const ServiceProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// waitpid() on the service; once it is reaped the destructor leaves it be.
  pid_t reap(int* status) {
    const pid_t reaped = ::waitpid(pid_, status, 0);
    if (reaped == pid_) pid_ = -1;
    return reaped;
  }

 private:
  pid_t pid_;
};

/// fork+execs `e2c_experiment --serve SOCKET extra...`; the child inherits
/// the caller's environment (ScopedEnv hooks reach the service's workers).
ServiceProcess start_service(const std::string& socket_path,
                             const std::vector<std::string>& extra,
                             const std::string& stdout_path = {}) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!stdout_path.empty()) {
      if (std::freopen(stdout_path.c_str(), "w", stdout) == nullptr) ::_exit(97);
    }
    std::vector<std::string> args = {E2C_EXPERIMENT_BIN, "--serve", socket_path};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(E2C_EXPERIMENT_BIN, argv.data());
    ::_exit(98);  // exec failed
  }
  return ServiceProcess(pid);
}

/// A raw client connection to \p socket_path, or -1 when nothing accepts.
int connect_raw(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// True when something is accepting connections on \p socket_path. The
/// supervisor sees the probe as a client that hung up before submitting
/// and just drops it.
bool service_up(const std::string& socket_path) {
  const int fd = connect_raw(socket_path);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

/// Peak resident set (VmHWM) of process \p pid in kB, or 0 if unreadable.
std::size_t peak_rss_kb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

/// Open file descriptors of process \p pid, from /proc/<pid>/fd.
std::size_t fd_count(pid_t pid) {
  const std::filesystem::path dir = "/proc/" + std::to_string(pid) + "/fd";
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) ++count;
  return count;
}

/// CPU seconds (user + system) process \p pid has used so far, from
/// /proc/<pid>/stat; its children are not counted.
double cpu_seconds_of(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
  const auto comm_end = text.rfind(')');
  if (comm_end == std::string::npos) return -1.0;
  // After "pid (comm)" come fields 3 (state) ... 14 (utime), 15 (stime).
  std::istringstream fields(text.substr(comm_end + 1));
  std::string field;
  for (int index = 3; index < 14; ++index) fields >> field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Blocks until the service accepts connections (or ~5 s pass): submitting
/// before listen() would read as a stale socket.
void wait_for_service(const std::string& socket_path) {
  for (int attempt = 0; attempt < 250; ++attempt) {
    if (service_up(socket_path)) return;
    ::usleep(20 * 1000);
  }
  FAIL() << "service at " << socket_path << " never came up";
}

/// SIGTERMs the service and asserts the drain exits 0.
void stop_service(ServiceProcess& service) {
  const pid_t pid = service.pid();
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(service.reap(&status), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---- codec ---------------------------------------------------------------

TEST(JobCodec, FramesRoundTrip) {
  util::ByteWriter writer;
  exp::encode_job_submit(writer, {"[sweep]\npolicies = FCFS\n"});
  const auto submit = exp::decode_job_submit(writer.bytes());
  EXPECT_EQ(submit.ini_text, "[sweep]\npolicies = FCFS\n");
  EXPECT_EQ(exp::peek_job_frame(writer.bytes()), exp::JobFrame::kSubmit);

  writer.clear();
  exp::encode_job_accepted(writer, {42, 6, 20, 8});
  const auto accepted = exp::decode_job_accepted(writer.bytes());
  EXPECT_EQ(accepted.job_id, 42u);
  EXPECT_EQ(accepted.cells_total, 6u);
  EXPECT_EQ(accepted.replications, 20u);
  EXPECT_EQ(accepted.workers, 8u);

  writer.clear();
  exp::encode_job_busy(writer, {3, 4, 1});
  const auto busy = exp::decode_job_busy(writer.bytes());
  EXPECT_EQ(busy.in_service, 3u);
  EXPECT_EQ(busy.backlog, 4u);
  EXPECT_EQ(busy.draining, 1u);

  writer.clear();
  exp::encode_worker_run_unit(writer, {0xDEADBEEFu, 2, 5, 1});
  const auto unit = exp::decode_worker_run_unit(writer.bytes());
  EXPECT_EQ(unit.job_key, 0xDEADBEEFu);
  EXPECT_EQ(unit.slot, 2u);
  EXPECT_EQ(unit.rep, 5u);
  EXPECT_EQ(unit.attempt, 1u);
}

TEST(JobCodec, RejectsCorruptFrames) {
  util::ByteWriter writer;
  exp::encode_job_accepted(writer, {1, 2, 3, 4});
  const std::string payload(writer.bytes());
  EXPECT_THROW((void)exp::decode_job_accepted(payload.substr(0, payload.size() / 2)),
               e2c::InputError);
  EXPECT_THROW((void)exp::decode_job_accepted(payload + "x"), e2c::InputError);
  EXPECT_THROW((void)exp::decode_job_busy(payload), e2c::InputError);  // wrong kind
  EXPECT_THROW((void)exp::peek_job_frame(""), e2c::InputError);
  std::string wrong_version = payload;
  wrong_version[0] = static_cast<char>(0x7F);
  EXPECT_THROW((void)exp::peek_job_frame(wrong_version), e2c::InputError);
}

TEST(JobCodec, DecodeErrorsPinExactText) {
  // Each message names the frame a decoder expected and what was wrong.
  const auto error_of = [](const auto& decode) -> std::string {
    try {
      (void)decode();
    } catch (const e2c::InputError& error) {
      return error.what();
    }
    return "";
  };
  util::ByteWriter writer;
  exp::encode_job_accepted(writer, {1, 2, 3, 4});
  const std::string payload(writer.bytes());
  std::string wrong_version = payload;
  wrong_version[0] = static_cast<char>(0x7F);
  EXPECT_EQ(error_of([&] { return exp::decode_job_accepted(wrong_version); }),
            "accepted frame: unsupported job codec version");
  EXPECT_EQ(error_of([&] { return exp::decode_job_busy(payload); }),
            "busy frame: unexpected frame kind");
  EXPECT_EQ(error_of([&] { return exp::decode_job_accepted(payload + "x"); }),
            "accepted frame: trailing bytes");
  EXPECT_EQ(error_of([&] { return exp::decode_job_accepted(payload); }), "");
}

TEST(JobCodec, MetricsPayloadRoundTripsBitExactly) {
  const auto spec = exp::spec_from_ini(util::IniFile::parse(config_text(), "t"));
  const auto source = exp::run_experiment(spec, 2);
  for (const auto& cell : source.cells) {
    for (const auto& metrics : cell.runs) {
      EXPECT_EQ(exp::decode_metrics_payload(exp::encode_metrics_payload(metrics)), metrics);
    }
  }
}

TEST(JobCodec, JobKeyIsStableAndTextSensitive) {
  EXPECT_EQ(exp::job_key_of("abc"), exp::job_key_of("abc"));
  EXPECT_NE(exp::job_key_of("abc"), exp::job_key_of("abd"));
  EXPECT_NE(exp::job_key_of(""), exp::job_key_of(" "));
}

// ---- service behavior ----------------------------------------------------

TEST(Serve, TwoConcurrentClientsByteIdenticalToDirectRuns) {
  const std::string text_a = config_text(7);
  // Stochastic execution and transfers ride along in the second job.
  const std::string text_b = "[system]\npet = lognormal\npayload_mb = 4\n" + config_text(9);
  const std::string expected_a = csv_of(direct_run(text_a));
  const std::string expected_b = csv_of(direct_run(text_b));

  const std::string socket_path = temp_path("serve_two.sock");
  ServiceProcess service = start_service(socket_path, {"--serve-workers", "2"});
  wait_for_service(socket_path);

  // Two clients in flight at once: the pool interleaves both jobs' units.
  exp::ExperimentResult result_a;
  exp::ExperimentResult result_b;
  std::string error_a;
  std::string error_b;
  std::thread client_a([&] {
    try {
      result_a = exp::submit_job(socket_path, text_a);
    } catch (const std::exception& failure) {
      error_a = failure.what();
    }
  });
  std::thread client_b([&] {
    try {
      result_b = exp::submit_job(socket_path, text_b);
    } catch (const std::exception& failure) {
      error_b = failure.what();
    }
  });
  client_a.join();
  client_b.join();
  ASSERT_EQ(error_a, "");
  ASSERT_EQ(error_b, "");

  EXPECT_EQ(csv_of(result_a), expected_a);
  EXPECT_EQ(csv_of(result_b), expected_b);
  EXPECT_EQ(result_a.health.completed_cells, 4u);
  EXPECT_EQ(result_b.health.completed_cells, 4u);
  EXPECT_EQ(result_a.health.workers, 2u);

  // A repeat submission hits the warm caches and must not drift.
  const auto again = exp::submit_job(socket_path, text_a);
  EXPECT_EQ(csv_of(again), expected_a);

  stop_service(service);
}

TEST(Serve, OversizeSubmitHeaderIsDroppedWithoutAllocating) {
  const std::string text = config_text(7);
  const std::string expected = csv_of(direct_run(text));
  const std::string socket_path = temp_path("serve_oversize.sock");
  ServiceProcess service = start_service(socket_path, {"--serve-workers", "1"});
  wait_for_service(socket_path);

  // A length prefix announcing ~4 GB and no payload. The supervisor must
  // reject it from the header alone and hang up, not size a buffer to it.
  const int fd = connect_raw(socket_path);
  ASSERT_GE(fd, 0);
  const std::uint32_t huge = 0xF0000000u;
  ASSERT_EQ(::write(fd, &huge, sizeof huge), static_cast<ssize_t>(sizeof huge));
  char byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // dropped: EOF, no reply frame
  ::close(fd);

  // The service keeps serving, and never grew toward the announced size.
  EXPECT_EQ(csv_of(exp::submit_job(socket_path, text)), expected);
  const std::size_t peak_kb = peak_rss_kb(service.pid());
  EXPECT_GT(peak_kb, 0u);
  EXPECT_LT(peak_kb, std::size_t{1} << 20) << "service VmHWM " << peak_kb << " kB";

  stop_service(service);
}

// A listener that accepts the submit and announces 0xFFFFFFFF cells: the
// client must refuse the count against its own parse of the config before
// it sizes anything by it.
TEST(Serve, ClientRefusesACellCountItsConfigDoesNotHave) {
  const std::string socket_path = temp_path("serve_fake.sock");
  ::unlink(socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);

  std::thread fake([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string submit;
    if (util::read_frame_into(fd, submit, util::kMaxChannelFrame)) {
      util::ByteWriter writer;
      exp::encode_job_accepted(writer, {.job_id = 1,
                                        .cells_total = 0xFFFFFFFFu,
                                        .replications = 2,
                                        .workers = 1});
      util::write_frame_zc(fd, writer.bytes());
      char byte = 0;
      (void)::read(fd, &byte, 1);  // until the client hangs up
    }
    ::close(fd);
  });
  bool refused = false;
  std::string message;
  try {
    (void)exp::submit_job(socket_path, config_text());
  } catch (const e2c::InputError& error) {
    refused = true;
    message = error.what();
  } catch (const std::exception& error) {
    message = error.what();
  }
  fake.join();
  ::close(listener);
  ::unlink(socket_path.c_str());
  EXPECT_TRUE(refused) << message;
  EXPECT_NE(message.find("4294967295"), std::string::npos) << message;
}

// Units queued behind the only, busy worker must not turn the supervisor's
// poll() into a busy loop: through eight 200 ms units it should sleep until
// the worker answers, not burn a core for the whole job.
TEST(Serve, SupervisorSleepsWhileEveryWorkerIsBusy) {
  const ScopedEnv delay("E2C_SERVE_TEST_UNIT_DELAY_MS", "200");
  const std::string socket_path = temp_path("serve_sleep.sock");
  ServiceProcess service = start_service(socket_path, {"--serve-workers", "1"});
  wait_for_service(socket_path);

  const double cpu_before = cpu_seconds_of(service.pid());
  const auto start = std::chrono::steady_clock::now();
  const auto result = exp::submit_job(socket_path, config_text(7));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double cpu = cpu_seconds_of(service.pid()) - cpu_before;

  EXPECT_EQ(result.health.completed_cells, 4u);
  EXPECT_GE(wall, 0.8);  // eight units, one after another
  ASSERT_GE(cpu_before, 0.0);
  EXPECT_LT(cpu, 0.25 * wall) << "supervisor used " << cpu << " CPU-s in " << wall
                              << " s wall";
  stop_service(service);
}

// A client that connects and sends nothing, and one that stops halfway
// through its submit frame, must cost only their own connections: a job
// submitted behind them finishes at its usual pace, and each stalled
// connection is dropped at its 5 s deadline.
TEST(Serve, SilentConnectionsDoNotStallOtherClients) {
  const std::string text = config_text(7);
  const std::string expected = csv_of(direct_run(text));
  const std::string socket_path = temp_path("serve_silent.sock");
  ServiceProcess service = start_service(socket_path, {"--serve-workers", "1"});
  wait_for_service(socket_path);

  const auto connected = std::chrono::steady_clock::now();
  const int silent = connect_raw(socket_path);
  ASSERT_GE(silent, 0);
  const int half_sent = connect_raw(socket_path);
  ASSERT_GE(half_sent, 0);
  const std::uint32_t announced = 100;
  ASSERT_EQ(::write(half_sent, &announced, sizeof announced),
            static_cast<ssize_t>(sizeof announced));
  ASSERT_EQ(::write(half_sent, "[sweep]\n", 8), 8);

  const auto start = std::chrono::steady_clock::now();
  const auto result = exp::submit_job(socket_path, text);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(csv_of(result), expected);
  EXPECT_LT(seconds, 1.0) << "a submit behind silent connections took " << seconds << " s";

  for (const int fd : {silent, half_sent}) {
    pollfd hangup{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&hangup, 1, 8000), 1) << "stalled connection never dropped";
    char byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);  // dropped: EOF, no reply frame
    ::close(fd);
  }
  const double dropped_after =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - connected).count();
  EXPECT_GE(dropped_after, 4.5);
  EXPECT_LT(dropped_after, 7.0);

  stop_service(service);
}

// A flood of silent connections must not take the service's fds. Past
// kMaxPendingClients waiting connections the oldest is dropped, so the
// service holds at most that many, and a prompt submit made during the flood
// is admitted at once and finishes at its usual pace.
TEST(Serve, PendingConnectionFloodIsBoundedAndPromptSubmitsStillRun) {
  const std::string text = config_text(7);
  const std::string expected = csv_of(direct_run(text));
  const std::string socket_path = temp_path("serve_flood.sock");
  ServiceProcess service = start_service(socket_path, {"--serve-workers", "1"});
  wait_for_service(socket_path);
  // One job first: once it is done the worker is up and every probe of
  // wait_for_service has been accepted and dropped.
  EXPECT_EQ(csv_of(exp::submit_job(socket_path, text)), expected);
  const std::size_t baseline = fd_count(service.pid());

  constexpr std::size_t kExtra = 8;
  std::vector<int> flood;
  for (std::size_t i = 0; i < exp::kMaxPendingClients + kExtra; ++i) {
    const int fd = connect_raw(socket_path);
    if (fd < 0) {
      ADD_FAILURE() << "connection " << i << " was refused";
      break;
    }
    flood.push_back(fd);
  }

  // The submit queues behind the whole flood, so once it is done the
  // service has accepted every flood connection.
  const auto start = std::chrono::steady_clock::now();
  const auto result = exp::submit_job(socket_path, text);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(csv_of(result), expected);
  EXPECT_LT(seconds, 1.0) << "a submit during the flood took " << seconds << " s";
  const std::size_t during = fd_count(service.pid());
  EXPECT_LE(during, baseline + exp::kMaxPendingClients)
      << "service holds " << during << " fds, " << baseline << " before the flood";

  // The oldest connections made room: each was closed without a reply.
  // (Failures here are not fatal, so the service is still stopped below.)
  for (std::size_t i = 0; i < std::min(kExtra, flood.size()); ++i) {
    pollfd hangup{flood[i], POLLIN, 0};
    if (::poll(&hangup, 1, 1000) != 1) {
      ADD_FAILURE() << "connection " << i << " was not dropped";
      continue;
    }
    char byte = 0;
    EXPECT_EQ(::read(flood[i], &byte, 1), 0);
  }
  for (const int fd : flood) ::close(fd);
  stop_service(service);
}

TEST(Serve, CrashedWorkerMidJobIsRequeuedAndClientGetsCompleteResult) {
  const std::string text = config_text(7);
  const std::string expected = csv_of(direct_run(text));

  // Slot 1 rep 0 SIGKILLs its worker on the first attempt — a worker dying
  // mid-job. The supervisor must respawn, requeue, and finish the sweep.
  const ScopedEnv crash("E2C_SERVE_TEST_CRASH_UNIT", "1/0");
  const std::string socket_path = temp_path("serve_crash.sock");
  ServiceProcess service = start_service(socket_path, {"--serve-workers", "2"});
  wait_for_service(socket_path);

  const auto result = exp::submit_job(socket_path, text);
  EXPECT_EQ(csv_of(result), expected);
  EXPECT_EQ(result.health.completed_cells, 4u);
  EXPECT_EQ(result.health.failed_cells, 0u);
  EXPECT_GE(result.health.retries, 1u);
  EXPECT_GE(result.cell("FCFS", e2c::workload::Intensity::kHigh).attempts, 2u);

  stop_service(service);
}

TEST(Serve, RetriesExhaustedDegradesCellAndClientStillCompletes) {
  // Unit 1/0 SIGKILLs its worker on EVERY attempt: retries run out and the
  // cell must degrade to kFailed — journaled, streamed to the client, and
  // counted toward completion. Before the fix the supervisor dropped the
  // cell silently, so the client blocked forever on a job that could never
  // finalize and a drain never finished.
  const ScopedEnv crash("E2C_SERVE_TEST_CRASH_ALWAYS", "1/0");
  const std::string socket_path = temp_path("serve_exhaust.sock");
  const std::string journal_prefix = temp_path("serve_exhaust_journal");
  ServiceProcess service = start_service(
      socket_path,
      {"--serve-workers", "2", "--max-retries", "1", "--journal", journal_prefix});
  wait_for_service(socket_path);

  const auto result = exp::submit_job(socket_path, config_text(7));
  EXPECT_EQ(result.health.completed_cells, 3u);
  EXPECT_EQ(result.health.failed_cells, 1u);
  EXPECT_GE(result.health.retries, 1u);

  // Slot 1 is FCFS/high (policy-major, intensity-minor slot order).
  const auto& degraded = result.cell("FCFS", e2c::workload::Intensity::kHigh);
  EXPECT_EQ(degraded.status, exp::CellStatus::kFailed);
  EXPECT_TRUE(degraded.runs.empty());
  EXPECT_EQ(degraded.attempts, 2u);  // --max-retries 1 → initial + 1 retry
  for (const auto* policy : {"FCFS", "MECT"}) {
    for (const auto intensity :
         {e2c::workload::Intensity::kLow, e2c::workload::Intensity::kHigh}) {
      const auto& cell = result.cell(policy, intensity);
      if (&cell == &degraded) continue;
      EXPECT_EQ(cell.status, exp::CellStatus::kOk);
      EXPECT_EQ(cell.runs.size(), 2u);
    }
  }

  // The journal recorded the degraded cell alongside the ok ones.
  const auto contents = exp::read_journal(journal_prefix + ".job1");
  EXPECT_EQ(contents.cells_total, 4u);
  EXPECT_EQ(contents.cells.size(), 4u);
  std::size_t journaled_failures = 0;
  for (const auto& [slot, cell] : contents.cells) {
    if (cell.status == exp::CellStatus::kFailed) {
      ++journaled_failures;
      EXPECT_EQ(slot, 1u);
    }
  }
  EXPECT_EQ(journaled_failures, 1u);

  // The degraded job must not linger in the backlog: the drain sees an
  // empty service and exits 0 promptly.
  stop_service(service);
}

/// A job whose cell frames fill a client's socket buffer long before its
/// units run out: 9 cells x 200 replications.
const char* const kStallingJob =
    "[sweep]\n"
    "policies = FCFS, MECT, MM\n"
    "intensities = low, medium, high\n"
    "replications = 200\n"
    "duration = 5\n"
    "seed = 3\n";

/// Connects to \p socket_path and submits \p ini_text without reading any
/// reply: a client that stalls once its socket buffer is full.
int submit_and_stall(const std::string& socket_path, const std::string& ini_text) {
  const int fd = connect_raw(socket_path);
  if (fd < 0) return fd;
  util::ByteWriter writer;
  exp::encode_job_submit(writer, {ini_text});
  util::write_frame_zc(fd, writer.bytes());
  return fd;
}

// A client that stops reading must not cost the units of another client's
// job their cell timeout: with a 4 s cell timeout, a second client's job
// completes with no unit killed and no retry. The second job's two units
// differ in length, so when two workers take them, the shorter one's result
// wakes the supervisor while the longer one still runs, and its timeout is
// checked. The stalled client itself is dropped, without a done frame, once
// it has read nothing for the service's 5 s client timeout.
TEST(Serve, StalledClientDoesNotSpendAnotherJobsCellTimeout) {
  const std::string text =
      "[sweep]\n"
      "policies = FCFS\n"
      "intensities = low, high\n"
      "replications = 1\n"
      "duration = 10000\n"
      "seed = 7\n";
  const std::string expected = csv_of(direct_run(text));
  const std::string socket_path = temp_path("serve_stalled.sock");
  ServiceProcess service = start_service(
      socket_path, {"--serve-workers", "2", "--cell-timeout", "4", "--max-retries", "1"});
  wait_for_service(socket_path);

  const int stalled = submit_and_stall(socket_path, kStallingJob);
  ASSERT_GE(stalled, 0);
  const auto stalled_at = std::chrono::steady_clock::now();

  const auto result = exp::submit_job(socket_path, text);
  EXPECT_EQ(csv_of(result), expected);
  EXPECT_EQ(result.health.failed_cells, 0u);
  EXPECT_EQ(result.health.retries, 0u) << "a unit was charged for the stalled client";

  // The stall did happen: once the client timeout has passed, the service
  // has given the stalled job up and closed the connection without a done
  // frame. The client reads nothing until then.
  std::this_thread::sleep_until(stalled_at + std::chrono::seconds(7));
  timeval receive_timeout{};
  receive_timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(stalled, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout,
                         sizeof receive_timeout),
            0);
  bool done = false;
  std::string frame;
  try {
    while (util::read_frame_into(stalled, frame, util::kMaxChannelFrame)) {
      done = done || exp::peek_job_frame(frame) == exp::JobFrame::kDone;
    }
  } catch (const e2c::Error&) {
    // A frame cut off where the service gave up its write.
  }
  ::close(stalled);
  EXPECT_FALSE(done) << "the stalled client's job was never dropped";

  stop_service(service);
}

// The supervisor never waits on one client's socket: while a client that
// stopped reading holds a full socket buffer, a second client's job is
// served at its usual pace, not after the stalled client's 5 s timeout.
TEST(Serve, StalledClientDoesNotDelayAnotherJob) {
  const std::string text = config_text(7);
  const std::string expected = csv_of(direct_run(text));
  const std::string socket_path = temp_path("serve_stall_other.sock");
  ServiceProcess service = start_service(socket_path, {"--serve-workers", "2"});
  wait_for_service(socket_path);

  const int stalled = submit_and_stall(socket_path, kStallingJob);
  ASSERT_GE(stalled, 0);
  const auto start = std::chrono::steady_clock::now();
  const auto result = exp::submit_job(socket_path, text);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(csv_of(result), expected);
  EXPECT_LT(seconds, 2.0) << "a job behind a stalled client took " << seconds << " s";

  ::close(stalled);
  stop_service(service);
}

TEST(Serve, BacklogOverflowIsBusyRejected) {
  // One worker, 300 ms per unit, backlog 1: the first job occupies the
  // service long enough for a second submit to bounce.
  const ScopedEnv delay("E2C_SERVE_TEST_UNIT_DELAY_MS", "300");
  const std::string socket_path = temp_path("serve_busy.sock");
  ServiceProcess service =
      start_service(socket_path, {"--serve-workers", "1", "--backlog", "1"});
  wait_for_service(socket_path);

  const std::string text = config_text(7);
  exp::ExperimentResult slow_result;
  std::string slow_error;
  std::thread slow_client([&] {
    try {
      slow_result = exp::submit_job(socket_path, text);
    } catch (const std::exception& failure) {
      slow_error = failure.what();
    }
  });
  ::usleep(400 * 1000);  // let the first job be admitted

  try {
    (void)exp::submit_job(socket_path, text);
    FAIL() << "expected a busy rejection";
  } catch (const e2c::IoError& busy) {
    const std::string message = busy.what();
    EXPECT_NE(message.find("busy"), std::string::npos) << message;
    EXPECT_NE(message.find("backlog 1"), std::string::npos) << message;
  }

  slow_client.join();
  ASSERT_EQ(slow_error, "");
  EXPECT_EQ(slow_result.health.completed_cells, 4u);  // rejected ≠ disturbed

  stop_service(service);
}

TEST(Serve, SigtermDrainsInFlightJobsJournalsAndExitsZero) {
  const ScopedEnv delay("E2C_SERVE_TEST_UNIT_DELAY_MS", "150");
  const std::string socket_path = temp_path("serve_drain.sock");
  const std::string journal_prefix = temp_path("serve_drain_journal");
  const std::string stdout_path = temp_path("serve_drain_stdout.txt");
  ServiceProcess service = start_service(
      socket_path, {"--serve-workers", "2", "--journal", journal_prefix},
      stdout_path);
  wait_for_service(socket_path);

  // 8 units x 150 ms on 2 workers ≈ 600 ms of sweep: the SIGTERM lands
  // mid-job, and the drain must still deliver the complete result.
  const std::string text = config_text(7);
  exp::ExperimentResult result;
  std::string error;
  std::thread client([&] {
    try {
      result = exp::submit_job(socket_path, text);
    } catch (const std::exception& failure) {
      error = failure.what();
    }
  });
  ::usleep(250 * 1000);
  ASSERT_EQ(::kill(service.pid(), SIGTERM), 0);

  client.join();
  ASSERT_EQ(error, "") << "drain must finish admitted jobs, not abort them";
  EXPECT_EQ(result.health.completed_cells, 4u);
  EXPECT_EQ(csv_of(result), csv_of(direct_run(text)));

  int status = 0;
  const pid_t pid = service.pid();
  ASSERT_EQ(service.reap(&status), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::ifstream out(stdout_path);
  std::stringstream captured;
  captured << out.rdbuf();
  EXPECT_NE(captured.str().find("service drained"), std::string::npos)
      << captured.str();

  // The per-job journal recorded every cell of the drained-through job.
  const auto contents = exp::read_journal(journal_prefix + ".job1");
  EXPECT_EQ(contents.cells_total, 4u);
  EXPECT_EQ(contents.cells.size(), 4u);
  for (const auto& [slot, cell] : contents.cells) {
    EXPECT_EQ(cell.status, exp::CellStatus::kOk);
    EXPECT_EQ(cell.runs.size(), 2u);
  }

  // After the drain the socket is gone: a fresh submit says so clearly.
  try {
    (void)exp::submit_job(socket_path, text);
    FAIL() << "expected a connection error after drain";
  } catch (const e2c::InputError& gone) {
    EXPECT_NE(std::string(gone.what()).find("no service socket"), std::string::npos)
        << gone.what();
  }
}

TEST(Serve, StaleSocketFileIsReplacedAndNonSocketRefused) {
  // A socket file with no listener behind it (crashed service) must be
  // replaced automatically...
  const std::string socket_path = temp_path("serve_stale.sock");
  {
    ServiceProcess service = start_service(socket_path, {"--serve-workers", "1"});
    wait_for_service(socket_path);
    ASSERT_EQ(::kill(service.pid(), SIGKILL), 0);  // die without unlinking
    int status = 0;
    const pid_t pid = service.pid();
    ASSERT_EQ(service.reap(&status), pid);
  }
  ASSERT_EQ(::access(socket_path.c_str(), F_OK), 0) << "stale socket should linger";
  {
    ServiceProcess service = start_service(socket_path, {"--serve-workers", "1"});
    wait_for_service(socket_path);
    const auto result = exp::submit_job(socket_path, config_text(7));
    EXPECT_EQ(result.health.completed_cells, 4u);
    stop_service(service);
  }

  // ...but a regular file in the way is never clobbered.
  const std::string decoy_path = temp_path("serve_decoy.txt");
  {
    std::ofstream decoy(decoy_path, std::ios::trunc);
    decoy << "not a socket\n";
  }
  exp::ServeOptions options;
  options.socket_path = decoy_path;
  options.workers = 1;
  options.drain_on_signals = false;
  EXPECT_THROW((void)exp::run_serve(options), e2c::InputError);
  std::ifstream still_there(decoy_path);
  std::string line;
  std::getline(still_there, line);
  EXPECT_EQ(line, "not a socket");
}

}  // namespace
