#include "exp/process_pool.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "exp/worker_pool.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"

namespace e2c::exp {

ExperimentResult run_experiment_procs(const ExperimentSpec& spec,
                                      const RunOptions& options,
                                      std::map<std::size_t, CellResult> resumed,
                                      SweepJournal* journal) {
  // The one job every worker runs, in its cache before fork(): the spec and
  // any policy registered at run time reach the worker with the address
  // space, never through an INI round-trip.
  const CachedJob job = make_cached_job(/*key=*/0, spec);
  const std::size_t cells_total = job.slots.size();
  const auto reps = static_cast<std::uint32_t>(spec.replications);
  UnitLedger ledger(/*job_id=*/0, job.slots, reps,
                    {options.max_retries, options.backoff_base, options.backoff_factor,
                     options.max_backoff});

  SweepHealth health;
  health.resumed_cells = resumed.size();
  health.completed_cells = resumed.size();  // resumed records are all ok

  std::vector<std::optional<CellResult>> results(cells_total);
  for (auto& [slot, cell] : resumed) results[slot] = std::move(cell);

  std::deque<Unit> ready;
  const auto start = Clock::now();
  for (std::uint32_t slot = 0; slot < cells_total; ++slot) {
    if (!results[slot]) ledger.queue_slot(slot, start, ready);
  }
  const std::size_t fresh_total = cells_total - resumed.size();
  std::size_t fresh_done = 0;

  ScopedDrainHandlers drain_handlers(options.drain_on_signals);
  util::SigpipeGuard sigpipe_guard;

  // Same normalization as the threads backend: 0 means hardware concurrency,
  // resolved in exactly one place so the reported count cannot disagree.
  const std::size_t pool_size = util::ThreadPool::resolve_worker_count(options.workers);
  health.workers = pool_size;
  std::vector<Worker> workers(std::min(pool_size, ready.size()));
  util::ByteWriter writer;  // recycled outbound frame buffer
  std::string frame;        // recycled inbound frame buffer

  const auto record = [&](std::uint32_t slot, CellResult cell) {
    if (cell.status == CellStatus::kOk) {
      ++health.completed_cells;
    } else {
      ++health.failed_cells;
    }
    if (journal != nullptr) journal->append(slot, cell);
    results[slot] = std::move(cell);
    ++fresh_done;
    if (options.progress) options.progress(fresh_done, fresh_total, *results[slot]);
  };

  const auto charge = [&](std::optional<Unit> unit) {
    if (!unit) return;
    if (auto failed = ledger.charge(*unit, ready)) record(unit->slot, std::move(*failed));
  };

  try {
    while (fresh_done < fresh_total) {
      const bool draining = drain_handlers.requested();
      if (draining) ready.clear();

      // Respawn dead workers while undispatched work remains.
      if (!draining && !ready.empty()) {
        for (Worker& worker : workers) {
          if (!worker.alive) spawn_worker(worker, workers, {}, &job);
        }
      }

      dispatch_ready(workers, ready, [&](const Unit&) { return UnitJob{job.key, {}}; },
                     writer);

      if (draining && std::none_of(workers.begin(), workers.end(),
                                   [](const Worker& w) { return w.busy; })) {
        break;  // in-flight units done; leave the rest unrun
      }

      const int timeout_ms = poll_timeout_ms(workers, options.cell_timeout, ready);

      std::vector<pollfd> fds;
      std::vector<Worker*> fd_owner;
      for (Worker& worker : workers) {
        if (!worker.alive) continue;
        fds.push_back({worker.res->read_fd(), POLLIN, 0});
        fd_owner.push_back(&worker);
      }
      const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
      if (rc < 0 && errno != EINTR) {
        throw IoError(std::string("process pool: poll failed: ") + std::strerror(errno));
      }

      for (std::size_t i = 0; rc > 0 && i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        Worker& worker = *fd_owner[i];
        if (auto metrics = read_unit_result(worker, fds[i].revents, frame)) {
          if (auto cell = ledger.complete(worker.unit, std::move(*metrics))) {
            record(worker.unit.slot, std::move(*cell));
          }
        } else {
          charge(reap(worker));
        }
      }

      for (const Unit& unit : kill_overdue(workers, options.cell_timeout)) charge(unit);
    }
    shut_down(workers, writer);
  } catch (...) {
    kill_all(workers);
    throw;
  }

  health.retries = ledger.retries();
  health.drained = drain_handlers.requested();

  ExperimentResult result;
  result.spec = spec;
  result.health = health;
  result.cells.reserve(cells_total);
  for (std::size_t slot = 0; slot < cells_total; ++slot) {
    if (results[slot]) result.cells.push_back(std::move(*results[slot]));
  }
  return result;
}

}  // namespace e2c::exp
