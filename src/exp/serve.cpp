#include "exp/serve.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/cell_codec.hpp"
#include "exp/job_codec.hpp"
#include "exp/journal.hpp"
#include "exp/spec_io.hpp"
#include "exp/worker_pool.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/ini.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"

namespace e2c::exp {

namespace {

/// Payload cap for a client's submit frame: INI text, so 1 MiB is ample.
/// Any client can connect, so its length prefix is not trusted.
constexpr std::size_t kMaxSubmitFrame = std::size_t{1} << 20;

/// How long a connection may take to deliver its submit frame, and how long
/// an admitted client may leave its queued frames unread before it counts as
/// gone.
constexpr auto kClientTimeout = std::chrono::seconds(5);

// ---- socket plumbing -----------------------------------------------------

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require_input(path.size() < sizeof(addr.sun_path),
                "socket path '" + path + "' is too long (max " +
                    std::to_string(sizeof(addr.sun_path) - 1) + " bytes)");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Closes an fd on scope exit; release() keeps it open.
class FdGuard {
 public:
  explicit FdGuard(int fd) noexcept : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }
  int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

/// Binds and listens on \p path. A stale socket file (nothing accepting:
/// connect says ECONNREFUSED) is unlinked and rebound; a live service or a
/// non-socket file in the way is the caller's mistake → InputError.
int make_listen_socket(const std::string& path) {
  const sockaddr_un addr = socket_address(path);
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0 && !S_ISSOCK(st.st_mode)) {
    throw InputError("--serve: '" + path +
                     "' exists and is not a socket — refusing to replace it");
  }
  // Nonblocking listener: a pending connection that is aborted between
  // poll() and accept() must make accept fail with EAGAIN, not block the
  // supervisor until the next client shows up.
  FdGuard fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (fd.get() < 0) {
    throw IoError(std::string("--serve: socket() failed: ") + std::strerror(errno));
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EADDRINUSE) {
      throw IoError("--serve: cannot bind '" + path + "': " + std::strerror(errno));
    }
    // Live service, or stale socket from a dead one? Probing disambiguates.
    FdGuard probe(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (probe.get() >= 0 &&
        ::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      throw InputError("--serve: a live service is already listening on '" + path + "'");
    }
    ::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      throw IoError("--serve: cannot rebind stale socket '" + path +
                    "': " + std::strerror(errno));
    }
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    ::unlink(path.c_str());
    throw IoError("--serve: listen on '" + path + "' failed: " + std::strerror(errno));
  }
  return fd.release();
}

int connect_to_service(const std::string& path) {
  const sockaddr_un addr = socket_address(path);
  FdGuard fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    throw IoError(std::string("--submit: socket() failed: ") + std::strerror(errno));
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    if (err == ENOENT) {
      throw InputError("--submit: no service socket at '" + path +
                       "' (start one with `e2c_experiment --serve " + path + "`)");
    }
    if (err == ECONNREFUSED) {
      throw InputError("--submit: socket '" + path +
                       "' is stale — no service is listening on it (restart "
                       "`e2c_experiment --serve`)");
    }
    throw IoError("--submit: cannot connect to '" + path + "': " + std::strerror(err));
  }
  return fd.release();
}

// ---- supervisor side -----------------------------------------------------

/// A connection whose submit frame is still arriving. Its fd is nonblocking
/// and sits in the supervisor's poll() set, so a client that sends slowly,
/// or nothing at all, costs only its own slot until its deadline.
struct PendingClient {
  Clock::time_point deadline;
  std::uint32_t size = 0;  ///< announced payload bytes, once the header is in
  std::string bytes;       ///< the length header, then the payload so far
};

enum class Intake { kWaiting, kComplete, kDrop };

constexpr std::size_t kFrameHeader = sizeof(std::uint32_t);

/// Reads what \p fd holds for \p client without blocking, never past the
/// end of the submit frame: bytes after it stay in the socket, where they
/// read as a protocol breach once the job runs. kDrop on EOF, a read error,
/// or a length header over kMaxSubmitFrame, refused before any payload is
/// buffered.
Intake read_submit(int fd, PendingClient& client) {
  for (;;) {
    const bool have_header = client.bytes.size() >= kFrameHeader;
    const std::size_t want = kFrameHeader + (have_header ? client.size : 0);
    if (have_header && client.bytes.size() == want) return Intake::kComplete;
    char chunk[4096];
    const ssize_t got = ::read(fd, chunk, std::min(sizeof chunk, want - client.bytes.size()));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return Intake::kWaiting;
    if (got <= 0) return Intake::kDrop;
    client.bytes.append(chunk, static_cast<std::size_t>(got));
    if (!have_header && client.bytes.size() == kFrameHeader) {
      std::memcpy(&client.size, client.bytes.data(), kFrameHeader);
      if (client.size > kMaxSubmitFrame) return Intake::kDrop;
      client.bytes.reserve(kFrameHeader + client.size);
    }
  }
}

/// One sweep on the supervisor loop: its config text (shipped to workers
/// lacking it), its unit ledger, and its cells, which count and journal
/// every finished cell. A submitted job streams them to its client
/// connection, a nonblocking fd: its frames queue in `outbox` and go out as
/// fast as the client reads, so a client that stops reading holds up only
/// its own job. The one-shot `--backend procs` sweep has no client
/// (client_fd < 0): its cells keep them for the caller.
struct ServeJob {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::string ini_text{};
  UnitLedger ledger;
  SweepCells cells;
  int client_fd = -1;
  bool client_dead = false;
  bool done_queued = false;      ///< the kDone frame is in the outbox
  std::string outbox{};          ///< length-prefixed frames not yet written
  std::size_t outbox_sent = 0;   ///< bytes of outbox the socket took
  /// While outbox holds unsent bytes: when the client counts as gone unless
  /// it reads some of them first.
  Clock::time_point write_deadline{};

  [[nodiscard]] bool outbox_pending() const noexcept { return outbox_sent < outbox.size(); }
};

/// Writes what the client's socket takes of \p job's outbox without
/// blocking. Any progress moves the write deadline to \p now plus the
/// client timeout; a write error marks the client dead.
void flush_outbox(ServeJob& job, Clock::time_point now) {
  while (job.outbox_pending()) {
    const ssize_t wrote = ::send(job.client_fd, job.outbox.data() + job.outbox_sent,
                                 job.outbox.size() - job.outbox_sent, MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (wrote <= 0) {
      job.client_dead = true;
      return;
    }
    job.outbox_sent += static_cast<std::size_t>(wrote);
    job.write_deadline = now + kClientTimeout;
  }
  job.outbox.clear();
  job.outbox_sent = 0;
}

/// Queues one length-prefixed frame for \p job's client and writes what the
/// socket takes at once. A frame queued behind nothing starts the wait for
/// the client at \p now.
void send_frame(ServeJob& job, std::string_view payload, Clock::time_point now) {
  if (!job.outbox_pending()) job.write_deadline = now + kClientTimeout;
  const auto size = static_cast<std::uint32_t>(payload.size());
  job.outbox.append(reinterpret_cast<const char*>(&size), sizeof size);
  job.outbox.append(payload);
  flush_outbox(job, now);
}

/// The one supervisor loop. It keeps the worker pool at strength, hands
/// ready units to idle workers, enforces unit timeouts, and turns every
/// finished or failed cell into one per-cell step (emit_cell: count,
/// journal, deliver). With a listener (run_serve) it also admits submitted
/// jobs, and a drain stops admitting and finishes every admitted job.
/// Without one (run_experiment_procs) it runs the jobs already in \p jobs
/// and ends once they are done; a drain drops the queued units, lets the
/// in-flight ones finish and ends, leaving the jobs partial. Jobs without a
/// client stay in \p jobs for the caller. Returns the client jobs served.
std::size_t supervise(const ServeOptions& options, std::size_t pool_size, int listen_fd,
                      const CachedJob* preload, std::map<std::uint64_t, ServeJob>& jobs,
                      std::deque<Unit>& ready) {
  const std::size_t backlog = std::max<std::size_t>(1, options.backlog);
  const RequeuePolicy retry{options.max_retries};
  const auto say = [&](const std::string& message) {
    if (options.log) options.log(message);
  };

  ScopedDrainHandlers drain_handlers(options.drain_on_signals);
  util::SigpipeGuard sigpipe_guard;

  std::vector<Worker> workers(pool_size);
  std::map<int, PendingClient> pending;  // by fd
  std::uint64_t next_job_id = 1;
  std::size_t jobs_served = 0;
  std::string frame;        // recycled inbound frame buffer
  util::ByteWriter writer;  // recycled outbound frame buffer
  // The loop's clock, read twice per iteration. Dispatch and the poll
  // timeout read it afresh, so a unit's budget starts when it is handed out:
  // the sweep before them (client writes, journal appends, kills, respawns)
  // can take seconds and must not count against it. Once the poll wakes it
  // is read again for every rule of the sweep (results, timeouts, backoff,
  // client deadlines).
  Clock::time_point now;

  /// Fds the supervisor owns that forked workers must not inherit: the
  /// listener and every client connection (a worker holding a client fd
  /// would suppress client-hangup detection).
  const auto child_close_list = [&] {
    std::vector<int> fds;
    if (listen_fd >= 0) fds.push_back(listen_fd);
    for (const auto& [id, job] : jobs) {
      if (job.client_fd >= 0) fds.push_back(job.client_fd);
    }
    for (const auto& [fd, client] : pending) fds.push_back(fd);
    return fds;
  };

  /// Records a finished (ok or failed) cell: count and journal it, then
  /// queue it for the client or keep it for the caller. A write failure
  /// marks the client dead; the job is cancelled at the next finalize pass.
  const auto emit_cell = [&](ServeJob& job, std::uint32_t slot, CellResult cell) {
    if (job.client_fd < 0) {
      job.cells.record(slot, std::move(cell));
      return;
    }
    job.cells.count(slot, cell);
    if (job.client_dead) return;
    JobCell cell_frame;
    cell_frame.slot = slot;
    cell_frame.cells_done = static_cast<std::uint32_t>(job.cells.done());
    cell_frame.cells_total = static_cast<std::uint32_t>(job.cells.owed());
    cell_frame.cell_payload = encode_cell(cell);
    writer.clear();
    encode_job_cell(writer, cell_frame);
    send_frame(job, writer.bytes(), now);
  };

  /// A crashed or timed-out unit: requeued with backoff, or its cell fails.
  /// The failed cell still flows through emit_cell so the journal records
  /// it, the client receives it, and cells_done advances — otherwise the job
  /// could never finalize and both sides would wait forever.
  const auto charge = [&](const Unit& unit) {
    const auto it = jobs.find(unit.job_id);
    if (it == jobs.end()) return;  // job cancelled while the unit was in flight
    ServeJob& job = it->second;
    if (job.ledger.cell_failed(unit.slot)) return;
    if (auto failed = job.ledger.charge(unit, ready, now)) {
      say("job " + std::to_string(job.id) + ": cell " + std::to_string(unit.slot) +
          " failed after " + std::to_string(unit.attempt + 1) + " attempts");
      emit_cell(job, unit.slot, std::move(*failed));
    } else {
      say("job " + std::to_string(job.id) + ": unit " + std::to_string(unit.slot) + "/" +
          std::to_string(unit.rep) + " failed (attempt " + std::to_string(unit.attempt + 1) +
          "), requeued");
    }
  };

  /// Closes client connections and erases client jobs that are finished
  /// (kDone queued and written) or abandoned (drop their pending units). A
  /// client that read none of its queued frames for kClientTimeout is
  /// abandoned too.
  const auto finalize_jobs = [&] {
    for (auto it = jobs.begin(); it != jobs.end();) {
      ServeJob& job = it->second;
      const bool finished = job.client_fd >= 0 && job.cells.done() == job.cells.owed();
      if (finished && !job.client_dead && !job.done_queued) {
        JobDone done;
        done.completed_cells = job.cells.completed();
        done.failed_cells = job.cells.failed();
        done.retries = job.ledger.retries();
        done.workers = pool_size;
        writer.clear();
        encode_job_done(writer, done);
        send_frame(job, writer.bytes(), now);
        job.done_queued = true;
      }
      if (job.outbox_pending() && job.write_deadline <= now) job.client_dead = true;
      if (job.client_dead) {
        ready.erase(std::remove_if(
                        ready.begin(), ready.end(),
                        [&](const Unit& unit) { return unit.job_id == job.id; }),
                    ready.end());
        if (job.client_fd >= 0) ::close(job.client_fd);
        say("job " + std::to_string(job.id) + ": client went away, cancelled");
        it = jobs.erase(it);
        continue;
      }
      if (finished && !job.outbox_pending()) {
        ::close(job.client_fd);
        ++jobs_served;
        say("job " + std::to_string(job.id) + " done: " + std::to_string(job.cells.completed()) +
            " ok, " + std::to_string(job.cells.failed()) + " failed, " +
            std::to_string(job.ledger.retries()) + " retries");
        it = jobs.erase(it);
        continue;
      }
      ++it;
    }
  };

  /// Whether the loop is over. With a listener: once a drain has seen every
  /// admitted job through. Without one: once every job has delivered its
  /// cells, or, under a drain, once no unit is in flight any more.
  const auto loop_done = [&](bool draining) {
    if (listen_fd >= 0) return draining && jobs.empty();
    return std::all_of(jobs.begin(), jobs.end(),
                       [](const auto& entry) {
                         return entry.second.cells.done() == entry.second.cells.owed();
                       }) ||
           (draining && std::none_of(workers.begin(), workers.end(),
                                     [](const Worker& w) { return w.busy; }));
  };

  /// A complete submit frame on \p raw_fd: admit the job or reject it, and
  /// queue its units. A rejection is one small frame on a fresh socket, so
  /// its nonblocking write goes through; if it does not, the connection is
  /// dropped.
  const auto admit = [&](int raw_fd, std::string_view submit_frame, bool draining) {
    FdGuard fd(raw_fd);
    try {
      if (peek_job_frame(submit_frame) != JobFrame::kSubmit) return;
      JobSubmit submit = decode_job_submit(submit_frame);
      if (draining || jobs.size() >= backlog) {
        JobBusy busy;
        busy.in_service = static_cast<std::uint32_t>(jobs.size());
        busy.backlog = static_cast<std::uint32_t>(backlog);
        busy.draining = draining ? 1 : 0;
        writer.clear();
        encode_job_busy(writer, busy);
        util::write_frame_zc(fd.get(), writer.bytes());
        say(draining ? "rejected submit: draining"
                     : "rejected submit: backlog full (" + std::to_string(jobs.size()) +
                           "/" + std::to_string(backlog) + ")");
        return;
      }
      ExperimentSpec spec;
      std::optional<SweepJournal> journal;
      try {
        spec = spec_from_ini(util::IniFile::parse(submit.ini_text, "submitted config"));
        detail::validate_spec(spec);
        if (!options.journal_prefix.empty()) {
          journal.emplace(SweepJournal::create(
              options.journal_prefix + ".job" + std::to_string(next_job_id),
              spec_digest(spec), spec.policies.size() * spec.intensities.size()));
        }
      } catch (const std::exception& rejection) {
        writer.clear();
        encode_job_error(writer, {rejection.what()});
        util::write_frame_zc(fd.get(), writer.bytes());
        say(std::string("rejected submit: ") + rejection.what());
        return;
      }
      const std::uint64_t id = next_job_id++;
      const auto reps = static_cast<std::uint32_t>(spec.replications);
      const std::vector<Slot> slots = build_slots(spec);
      ServeJob job{.id = id,
                   .key = job_key_of(submit.ini_text),
                   .ini_text = std::move(submit.ini_text),
                   .ledger = UnitLedger(id, slots, reps, retry),
                   .cells = SweepCells(slots.size(), {}, std::move(journal), {})};
      job.client_fd = fd.release();
      ServeJob& admitted = jobs.emplace(id, std::move(job)).first->second;
      JobAccepted accepted;
      accepted.job_id = id;
      accepted.cells_total = static_cast<std::uint32_t>(admitted.cells.owed());
      accepted.replications = reps;
      accepted.workers = static_cast<std::uint32_t>(pool_size);
      writer.clear();
      encode_job_accepted(writer, accepted);
      send_frame(admitted, writer.bytes(), now);
      for (std::uint32_t slot = 0; slot < admitted.ledger.cells(); ++slot) {
        admitted.ledger.queue_slot(slot, now, ready);
      }
      say("accepted job " + std::to_string(id) + ": " +
          std::to_string(admitted.ledger.cells()) + " cells x " + std::to_string(reps) +
          " reps (" + std::to_string(jobs.size()) + "/" + std::to_string(backlog) +
          " in service)");
    } catch (const Error&) {
      // Unreadable or unparsable submit conversation: drop the connection.
    }
  };

  /// Reads what a pending connection sent; once its submit frame is whole,
  /// the job is admitted. The fd stays nonblocking: the supervisor never
  /// waits on one client's socket.
  const auto take_submit = [&](std::map<int, PendingClient>::iterator it, bool draining) {
    const int fd = it->first;
    const Intake intake = read_submit(fd, it->second);
    if (intake == Intake::kWaiting) return;
    const std::string bytes = std::move(it->second.bytes);
    pending.erase(it);
    if (intake == Intake::kDrop) {
      ::close(fd);
      return;
    }
    admit(fd, std::string_view(bytes).substr(kFrameHeader), draining);
  };

  /// One accept(). The connection joins the poll set until its submit frame
  /// has arrived, so a stalled submitter never blocks the supervisor. With
  /// kMaxPendingClients already waiting, the oldest is dropped first, so a
  /// flood of silent connects holds a bounded number of fds and a prompt
  /// client, whose frame is read at once, is still admitted.
  const auto accept_client = [&](bool draining) {
    if (pending.size() >= kMaxPendingClients) {
      const auto oldest = std::min_element(
          pending.begin(), pending.end(),
          [](const auto& a, const auto& b) { return a.second.deadline < b.second.deadline; });
      ::close(oldest->first);
      pending.erase(oldest);
    }
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;
    const auto deadline = now + kClientTimeout;
    // A prompt client's frame is often in the socket already.
    take_submit(pending.emplace(fd, PendingClient{deadline, 0, {}}).first, draining);
  };

  /// Drops the connections that did not deliver a submit frame in time.
  const auto drop_stale_pending = [&] {
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->second.deadline > now) {
        ++it;
        continue;
      }
      ::close(it->first);
      it = pending.erase(it);
    }
  };

  /// A unit's job, or nullopt once it was cancelled: dispatch_ready then
  /// sweeps the unit out of the queue.
  const auto live_job = [&](const Unit& unit) -> std::optional<UnitJob> {
    const auto it = jobs.find(unit.job_id);
    if (it == jobs.end()) return std::nullopt;
    return UnitJob{it->second.key, it->second.ini_text};
  };

  try {
    {
      const std::vector<int> extra = child_close_list();
      for (Worker& worker : workers) spawn_worker(worker, workers, extra, preload);
    }

    for (;;) {
      const bool draining = drain_handlers.requested();
      if (draining && listen_fd < 0) ready.clear();
      if (loop_done(draining)) break;

      // Keep the pool at strength while there is work to hand out. The
      // service also respawns while any job is admitted (more work may soon
      // be requeued), a drain included, because admitted jobs must finish.
      if (!ready.empty() || (listen_fd >= 0 && !jobs.empty())) {
        std::optional<std::vector<int>> extra;
        for (Worker& worker : workers) {
          if (worker.alive) continue;
          if (!extra) extra = child_close_list();
          spawn_worker(worker, workers, *extra, preload);
          say("respawned worker (pid " + std::to_string(worker.pid) + ")");
        }
      }

      // A worker whose mirror lacks a unit's job gets the job's INI first.
      now = Clock::now();
      dispatch_ready(workers, ready, live_job, writer, now);
      int timeout_ms = poll_timeout_ms(workers, options.cell_timeout, ready, now);
      for (const auto& [id, job] : jobs) {
        if (job.client_dead || !job.outbox_pending()) continue;
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(job.write_deadline - now);
        timeout_ms = std::min<int>(timeout_ms,
                                   static_cast<int>(std::max<long long>(0, remaining.count())));
      }

      std::vector<pollfd> fds;
      std::vector<Worker*> worker_of;
      std::vector<std::uint64_t> job_of;
      if (listen_fd >= 0) {
        fds.push_back({listen_fd, POLLIN, 0});
        worker_of.push_back(nullptr);
        job_of.push_back(0);
      }
      for (Worker& worker : workers) {
        if (!worker.alive) continue;
        fds.push_back({worker.res->read_fd(), POLLIN, 0});
        worker_of.push_back(&worker);
        job_of.push_back(0);
      }
      for (auto& [id, job] : jobs) {
        if (job.client_fd < 0 || job.client_dead) continue;
        const short events = job.outbox_pending() ? POLLIN | POLLOUT : POLLIN;
        fds.push_back({job.client_fd, events, 0});
        worker_of.push_back(nullptr);
        job_of.push_back(id);
      }
      for (const auto& [fd, client] : pending) {
        fds.push_back({fd, POLLIN, 0});
        worker_of.push_back(nullptr);
        job_of.push_back(0);
      }

      const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
      if (rc < 0 && errno != EINTR) {
        throw IoError(std::string("supervisor: poll failed: ") + std::strerror(errno));
      }
      now = Clock::now();

      for (std::size_t i = 0; rc > 0 && i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        if (fds[i].fd == listen_fd) {
          accept_client(draining);
          continue;
        }
        if (Worker* worker = worker_of[i]; worker != nullptr) {
          if (!worker->alive) continue;  // reaped earlier this sweep
          if (auto metrics = read_unit_result(*worker, fds[i].revents, frame)) {
            const auto it = jobs.find(worker->unit.job_id);
            if (it == jobs.end()) continue;  // job cancelled while the unit was in flight
            if (auto cell = it->second.ledger.complete(worker->unit, std::move(*metrics))) {
              emit_cell(it->second, worker->unit.slot, std::move(*cell));
            }
          } else if (const auto unit = reap(*worker)) {
            charge(*unit);
          }
          continue;
        }
        if (const auto it = pending.find(fds[i].fd); it != pending.end()) {
          take_submit(it, draining);
          continue;
        }
        // Client connection: room for queued frames, or, since submitters
        // never speak after kSubmit, a hangup (or a protocol breach) —
        // cancel.
        if (const auto it = jobs.find(job_of[i]); it != jobs.end()) {
          if ((fds[i].revents & ~POLLOUT) != 0) {
            it->second.client_dead = true;
          } else {
            flush_outbox(it->second, now);
          }
        }
      }

      // Per-unit wall-clock timeout: SIGKILL and requeue.
      for (const Unit& unit : kill_overdue(workers, options.cell_timeout, now)) {
        say("job " + std::to_string(unit.job_id) + ": unit " + std::to_string(unit.slot) +
            "/" + std::to_string(unit.rep) + " timed out, killing worker");
        charge(unit);
      }

      drop_stale_pending();
      finalize_jobs();
    }

    shut_down(workers, writer);
  } catch (...) {
    kill_all(workers);
    for (auto& [id, job] : jobs) {
      if (job.client_fd >= 0) ::close(job.client_fd);
    }
    for (const auto& [fd, client] : pending) ::close(fd);
    throw;
  }

  for (const auto& [fd, client] : pending) ::close(fd);
  return jobs_served;
}

}  // namespace

std::size_t run_serve(const ServeOptions& options) {
  const std::size_t pool_size = util::ThreadPool::resolve_worker_count(options.workers);
  const FdGuard listener(make_listen_socket(options.socket_path));
  if (options.log) {
    options.log("listening on " + options.socket_path + ": " + std::to_string(pool_size) +
                " workers, backlog " +
                std::to_string(std::max<std::size_t>(1, options.backlog)));
  }
  std::map<std::uint64_t, ServeJob> jobs;
  std::deque<Unit> ready;
  std::size_t jobs_served = 0;
  try {
    jobs_served = supervise(options, pool_size, listener.get(), /*preload=*/nullptr, jobs, ready);
  } catch (...) {
    ::unlink(options.socket_path.c_str());
    throw;
  }
  ::unlink(options.socket_path.c_str());
  if (options.log) {
    options.log("drained: served " + std::to_string(jobs_served) + " job(s)");
  }
  return jobs_served;
}

ExperimentResult run_experiment_procs(const ExperimentSpec& spec, const RunOptions& options,
                                      SweepCells cells) {
  // The one job every worker runs, in its cache before fork(): the spec and
  // any policy registered at run time reach the worker with the address
  // space, never through an INI round-trip.
  const CachedJob cached = make_cached_job(/*key=*/0, spec);
  std::map<std::uint64_t, ServeJob> jobs;
  ServeJob& job =
      jobs.emplace(0, ServeJob{.ledger = UnitLedger(/*job_id=*/0, cached.slots,
                                                    static_cast<std::uint32_t>(spec.replications),
                                                    {options.max_retries}),
                               .cells = std::move(cells)})
          .first->second;
  std::deque<Unit> ready;
  const auto start = Clock::now();
  for (std::uint32_t slot = 0; slot < cached.slots.size(); ++slot) {
    if (!job.cells.has(slot)) job.ledger.queue_slot(slot, start, ready);
  }

  ServeOptions loop;
  loop.cell_timeout = options.cell_timeout;
  loop.drain_on_signals = options.drain_on_signals;
  // Same normalization as the threads backend: 0 means hardware concurrency,
  // resolved in exactly one place so the reported count cannot disagree.
  const std::size_t workers = util::ThreadPool::resolve_worker_count(options.workers);
  (void)supervise(loop, std::min(workers, ready.size()), /*listen_fd=*/-1, &cached, jobs,
                  ready);
  return std::move(job.cells).result(spec, workers, job.ledger.retries());
}

ExperimentResult submit_job(const std::string& socket_path, const std::string& ini_text,
                            const ProgressFn& progress) {
  // Parse locally first: config mistakes surface with full locators without
  // a round-trip, and the local spec doubles as the result's spec (the same
  // deterministic parse the service and its workers run on the same bytes).
  ExperimentSpec spec =
      spec_from_ini(util::IniFile::parse(ini_text, "submitted config"));

  util::SigpipeGuard sigpipe_guard;
  FdGuard fd(connect_to_service(socket_path));

  util::ByteWriter writer;
  encode_job_submit(writer, {ini_text});
  util::write_frame_zc(fd.get(), writer.bytes());

  const std::size_t cells_total = spec.policies.size() * spec.intensities.size();
  std::string frame;
  std::optional<JobAccepted> accepted;
  std::vector<std::optional<CellResult>> cells;
  SweepHealth health;
  for (bool done = false; !done;) {
    if (!util::read_frame_into(fd.get(), frame, util::kMaxChannelFrame)) {
      throw IoError("--submit: service closed the connection mid-job (did it crash?)");
    }
    switch (peek_job_frame(frame)) {
      case JobFrame::kBusy: {
        const JobBusy busy = decode_job_busy(frame);
        if (busy.draining != 0) {
          throw IoError("--submit: service at '" + socket_path +
                        "' is draining and no longer admits jobs");
        }
        throw IoError("--submit: service busy: " + std::to_string(busy.in_service) +
                      " job(s) in service (backlog " + std::to_string(busy.backlog) +
                      ") — retry later");
      }
      case JobFrame::kError:
        throw InputError("--submit: service rejected the config: " +
                         decode_job_error(frame).message);
      case JobFrame::kAccepted: {
        accepted = decode_job_accepted(frame);
        // The service parsed the same bytes, so its cell count must be the
        // local spec's; checked before it sizes the result.
        require_input(accepted->cells_total == cells_total, [&] {
          return "--submit: service announced " + std::to_string(accepted->cells_total) +
                 " cells for a config with " + std::to_string(cells_total);
        });
        cells.assign(accepted->cells_total, std::nullopt);
        break;
      }
      case JobFrame::kCell: {
        require_input(accepted.has_value(), "--submit: cell frame before acceptance");
        const JobCell cell_frame = decode_job_cell(frame);
        require_input(cell_frame.slot < cells.size(),
                      "--submit: cell frame for out-of-range slot");
        cells[cell_frame.slot] = decode_cell(cell_frame.cell_payload);
        if (progress) {
          progress(cell_frame.cells_done, cell_frame.cells_total,
                   *cells[cell_frame.slot]);
        }
        break;
      }
      case JobFrame::kDone: {
        require_input(accepted.has_value(), "--submit: done frame before acceptance");
        const JobDone job_done = decode_job_done(frame);
        health.completed_cells = job_done.completed_cells;
        health.failed_cells = job_done.failed_cells;
        health.retries = job_done.retries;
        health.workers = job_done.workers;
        done = true;
        break;
      }
      default:
        throw IoError("--submit: unexpected frame from service");
    }
  }

  ExperimentResult result;
  result.spec = std::move(spec);
  result.health = health;
  result.cells.reserve(cells.size());
  for (auto& cell : cells) {
    require_input(cell.has_value(), "--submit: job finished with missing cells");
    result.cells.push_back(std::move(*cell));
  }
  return result;
}

}  // namespace e2c::exp
