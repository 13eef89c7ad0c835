#include "fault/fault_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace e2c::fault {

double RetryPolicy::delay(std::size_t retry) const {
  require(retry >= 1, "RetryPolicy::delay: retry numbers are 1-based");
  const double raw =
      backoff_base * std::pow(backoff_factor, static_cast<double>(retry - 1));
  // The uncapped power overflows to +inf near retry 1024; the cap keeps every
  // backoff finite and bounded.
  if (!std::isfinite(raw)) return max_backoff;
  return std::min(raw, max_backoff);
}

const char* recovery_strategy_name(RecoveryStrategy strategy) noexcept {
  switch (strategy) {
    case RecoveryStrategy::kResubmit: return "resubmit";
    case RecoveryStrategy::kCheckpoint: return "checkpoint";
    case RecoveryStrategy::kReplicate: return "replicate";
  }
  return "unknown";
}

RecoveryStrategy parse_recovery_strategy(const std::string& name) {
  if (util::iequals(name, "resubmit")) return RecoveryStrategy::kResubmit;
  if (util::iequals(name, "checkpoint")) return RecoveryStrategy::kCheckpoint;
  if (util::iequals(name, "replicate")) return RecoveryStrategy::kReplicate;
  std::string message = "unknown recovery strategy: '" + name + "'";
  if (const auto suggestion =
          util::nearest_match(name, {"resubmit", "checkpoint", "replicate"})) {
    message += " — did you mean '" + *suggestion + "'?";
  }
  message += " (valid: resubmit | checkpoint | replicate)";
  throw InputError(message);
}

const char* io_strategy_name(IoStrategy strategy) noexcept {
  switch (strategy) {
    case IoStrategy::kSelfish: return "selfish";
    case IoStrategy::kCooperative: return "cooperative";
  }
  return "unknown";
}

IoStrategy parse_io_strategy(const std::string& name) {
  if (util::iequals(name, "selfish")) return IoStrategy::kSelfish;
  if (util::iequals(name, "cooperative")) return IoStrategy::kCooperative;
  std::string message = "unknown io strategy: '" + name + "'";
  if (const auto suggestion = util::nearest_match(name, {"selfish", "cooperative"})) {
    message += " — did you mean '" + *suggestion + "'?";
  }
  message += " (valid: selfish | cooperative)";
  throw InputError(message);
}

double young_daly_interval(double checkpoint_cost, double mtbf) {
  require_input(checkpoint_cost > 0.0 && mtbf > 0.0,
                "young_daly_interval: checkpoint cost and MTBF must be > 0");
  return std::sqrt(2.0 * checkpoint_cost * mtbf);
}

void FaultConfig::validate(std::size_t machine_count) const {
  if (!enabled) return;
  if (mode == FaultMode::kStochastic) {
    require_input(mtbf > 0.0, "fault config: mtbf must be > 0");
    require_input(mttr > 0.0, "fault config: mttr must be > 0");
  } else {
    const auto locate = [this](std::size_t index) {
      const FaultTraceEntry& entry = trace[index];
      return entry.where.empty() ? "trace entry #" + std::to_string(index)
                                 : entry.where;
    };
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const FaultTraceEntry& entry = trace[i];
      require_input(entry.machine < machine_count,
                    "fault trace: machine index " + std::to_string(entry.machine) +
                        " out of range (system has " +
                        std::to_string(machine_count) + " machines) at " + locate(i));
      require_input(entry.fail_time >= 0.0,
                    "fault trace: fail_time must be >= 0 at " + locate(i));
      require_input(entry.repair_time > entry.fail_time,
                    "fault trace: repair_time must be after fail_time at " + locate(i));
    }
    // Overlapping spans on one machine would mean failing an already-failed
    // machine; the injector would silently skip the second span, so reject
    // the trace up front. Back-to-back spans (fail == previous repair) are
    // fine: the machine crashes again the instant it comes back.
    std::vector<std::size_t> order(trace.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      if (trace[a].machine != trace[b].machine) return trace[a].machine < trace[b].machine;
      return trace[a].fail_time < trace[b].fail_time;
    });
    for (std::size_t k = 1; k < order.size(); ++k) {
      const FaultTraceEntry& prev = trace[order[k - 1]];
      const FaultTraceEntry& curr = trace[order[k]];
      if (prev.machine != curr.machine) continue;
      require_input(curr.fail_time >= prev.repair_time,
                    "fault trace: overlapping spans on machine " +
                        std::to_string(curr.machine) + ": span at " + locate(order[k]) +
                        " fails at " + std::to_string(curr.fail_time) +
                        " before the span at " + locate(order[k - 1]) +
                        " repairs at " + std::to_string(prev.repair_time));
    }
  }
  require_input(retry.backoff_base >= 0.0,
                "fault config: retry backoff must be >= 0");
  require_input(retry.backoff_factor >= 1.0,
                "fault config: retry backoff factor must be >= 1");
  require_input(retry.max_backoff > 0.0,
                "fault config: retry max_backoff must be > 0");
  require_input(recovery.checkpoint_interval >= 0.0,
                "fault config: recovery checkpoint interval must be >= 0");
  require_input(recovery.checkpoint_cost >= 0.0,
                "fault config: recovery checkpoint cost must be >= 0");
  require_input(recovery.restart_cost >= 0.0,
                "fault config: recovery restart cost must be >= 0");
  if (recovery.strategy == RecoveryStrategy::kCheckpoint &&
      recovery.checkpoint_interval == 0.0) {
    // Auto-τ is the Young/Daly optimum, which needs a cost and an MTBF.
    require_input(mode == FaultMode::kStochastic,
                  "fault config: the Young/Daly auto checkpoint interval needs a "
                  "stochastic MTBF; set an explicit interval for trace-driven faults");
    require_input(recovery.checkpoint_cost > 0.0,
                  "fault config: the Young/Daly auto checkpoint interval needs a "
                  "checkpoint cost > 0");
  }
  if (recovery.strategy == RecoveryStrategy::kReplicate) {
    require_input(recovery.replicas >= 1, "fault config: replicas must be >= 1");
    require_input(recovery.replicas <= machine_count,
                  "fault config: replicas (" + std::to_string(recovery.replicas) +
                      ") exceed the machine count (" + std::to_string(machine_count) +
                      "); replicas must run on distinct machines");
  }
  if (io.enabled) {
    require_input(recovery.strategy == RecoveryStrategy::kCheckpoint,
                  "fault config: the io channel models checkpoint/restart traffic; "
                  "it requires recovery strategy 'checkpoint'");
    require_input(io.bandwidth > 0.0, "fault config: io bandwidth must be > 0");
    require_input(io.checkpoint_bytes >= 0.0,
                  "fault config: io checkpoint_bytes must be >= 0");
    require_input(io.restart_bytes >= 0.0,
                  "fault config: io restart_bytes must be >= 0");
    require_input(io.effective_checkpoint_bytes(recovery.checkpoint_cost) > 0.0,
                  "fault config: io checkpoint transfer size is 0; set "
                  "checkpoint_bytes or a checkpoint cost > 0");
    if (io.strategy == IoStrategy::kCooperative) {
      require_input(io.max_writers >= 1,
                    "fault config: io max_writers must be >= 1 for the "
                    "cooperative strategy");
    }
  }
}

double FaultConfig::effective_checkpoint_interval() const {
  if (recovery.checkpoint_interval > 0.0) return recovery.checkpoint_interval;
  return young_daly_interval(recovery.checkpoint_cost, mtbf);
}

FaultInjector::FaultInjector(const FaultConfig& config, std::size_t machine_count)
    : config_(config) {
  config_.validate(machine_count);
  if (config_.mode == FaultMode::kStochastic) {
    util::Rng master(config_.seed);
    streams_.reserve(machine_count);
    for (std::size_t m = 0; m < machine_count; ++m) streams_.push_back(master.split());
  } else {
    trace_spans_.resize(machine_count);
    cursors_.assign(machine_count, 0);
    for (const FaultTraceEntry& entry : config_.trace) {
      trace_spans_[entry.machine].push_back(
          FaultSpan{entry.fail_time, entry.repair_time});
    }
    for (auto& spans : trace_spans_) {
      std::sort(spans.begin(), spans.end(), [](const FaultSpan& a, const FaultSpan& b) {
        return a.fail_time < b.fail_time;
      });
    }
  }
}

std::optional<FaultSpan> FaultInjector::next(std::size_t machine, double from) {
  if (config_.mode == FaultMode::kStochastic) {
    require(machine < streams_.size(), "FaultInjector::next: machine out of range");
    util::Rng& rng = streams_[machine];
    FaultSpan span;
    span.fail_time = from + rng.exponential(1.0 / config_.mtbf);
    span.repair_time = span.fail_time + rng.exponential(1.0 / config_.mttr);
    return span;
  }
  require(machine < trace_spans_.size(), "FaultInjector::next: machine out of range");
  const auto& spans = trace_spans_[machine];
  std::size_t& cursor = cursors_[machine];
  while (cursor < spans.size() && spans[cursor].fail_time < from) ++cursor;
  if (cursor >= spans.size()) return std::nullopt;
  return spans[cursor++];
}

namespace {

std::vector<FaultTraceEntry> trace_from_doc(const util::CsvDoc& doc) {
  require_input(!doc.empty(), "fault trace CSV: file is empty" +
                                  (doc.source().empty() ? "" : " (" + doc.source() + ")"));
  require_input(doc.row(0).size() >= 3,
                "fault trace CSV: expected header machine,fail_time,repair_time (" +
                    doc.where(0) + ")");

  std::vector<FaultTraceEntry> entries;
  entries.reserve(doc.row_count() - 1);
  for (std::size_t r = 1; r < doc.row_count(); ++r) {
    const auto row = doc.row(r);
    require_input(row.size() >= 3,
                  [&] { return "fault trace CSV: too few fields at " + doc.where(r); });
    const auto machine = util::parse_int(row[0]);
    require_input(machine.has_value() && *machine >= 0, [&] {
      return "fault trace CSV: bad machine '" + std::string(row[0]) + "' at " + doc.where(r);
    });
    const auto fail = util::parse_double(row[1]);
    require_input(fail.has_value(), [&] {
      return "fault trace CSV: bad fail_time '" + std::string(row[1]) + "' at " + doc.where(r);
    });
    const auto repair = util::parse_double(row[2]);
    require_input(repair.has_value(), [&] {
      return "fault trace CSV: bad repair_time '" + std::string(row[2]) + "' at " +
             doc.where(r);
    });
    require_input(*fail >= 0.0, [&] {
      return "fault trace CSV: fail_time must be >= 0 at " + doc.where(r);
    });
    require_input(*repair > *fail, [&] {
      return "fault trace CSV: repair_time must be after fail_time at " + doc.where(r);
    });
    entries.push_back(FaultTraceEntry{static_cast<std::size_t>(*machine), *fail, *repair,
                                      doc.where(r)});
  }
  return entries;
}

}  // namespace

std::vector<FaultTraceEntry> fault_trace_from_csv_text(const std::string& text) {
  return trace_from_doc(util::parse_csv_doc(text));
}

std::vector<FaultTraceEntry> load_fault_trace_csv(const std::string& path) {
  return trace_from_doc(util::read_csv_doc(path));
}

}  // namespace e2c::fault
