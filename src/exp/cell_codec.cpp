#include "exp/cell_codec.hpp"

#include "util/error.hpp"
#include "util/framing.hpp"

namespace e2c::exp {

namespace {

/// Bump when the payload layout changes; decode rejects other versions so a
/// stale journal fails loudly instead of mis-parsing. v2: one fixed-size
/// record per run (v1 carried per-machine and per-type vectors).
constexpr std::uint8_t kCellCodecVersion = 2;

/// Encoded size of one Metrics record: 8 u64 counters and 15 f64 values.
constexpr std::size_t kMetricsRecordBytes = 23 * 8;

void encode_metrics(util::ByteWriter& writer, const reports::Metrics& m) {
  writer.u64(m.total_tasks);
  writer.u64(m.completed);
  writer.u64(m.cancelled);
  writer.u64(m.dropped);
  writer.u64(m.failed);
  writer.u64(m.requeued);
  writer.f64(m.completion_percent);
  writer.f64(m.cancelled_percent);
  writer.f64(m.dropped_percent);
  writer.f64(m.failed_percent);
  writer.f64(m.makespan);
  writer.f64(m.mean_wait);
  writer.f64(m.mean_response);
  writer.f64(m.total_energy_joules);
  writer.f64(m.energy_per_completed_task);
  writer.f64(m.dynamic_energy_joules);
  writer.f64(m.dynamic_energy_per_completed_task);
  writer.f64(m.type_fairness_jain);
  writer.f64(m.lost_work_seconds);
  writer.f64(m.checkpoint_overhead_seconds);
  writer.f64(m.cancelled_replica_seconds);
  writer.u64(m.checkpoints_taken);
  writer.u64(m.replicas_cancelled);
}

reports::Metrics decode_metrics(util::ByteReader& reader) {
  reports::Metrics m;
  m.total_tasks = reader.u64();
  m.completed = reader.u64();
  m.cancelled = reader.u64();
  m.dropped = reader.u64();
  m.failed = reader.u64();
  m.requeued = reader.u64();
  m.completion_percent = reader.f64();
  m.cancelled_percent = reader.f64();
  m.dropped_percent = reader.f64();
  m.failed_percent = reader.f64();
  m.makespan = reader.f64();
  m.mean_wait = reader.f64();
  m.mean_response = reader.f64();
  m.total_energy_joules = reader.f64();
  m.energy_per_completed_task = reader.f64();
  m.dynamic_energy_joules = reader.f64();
  m.dynamic_energy_per_completed_task = reader.f64();
  m.type_fairness_jain = reader.f64();
  m.lost_work_seconds = reader.f64();
  m.checkpoint_overhead_seconds = reader.f64();
  m.cancelled_replica_seconds = reader.f64();
  m.checkpoints_taken = reader.u64();
  m.replicas_cancelled = reader.u64();
  return m;
}

}  // namespace

std::string encode_cell(const CellResult& cell) {
  util::ByteWriter writer;
  writer.u8(kCellCodecVersion);
  writer.str(cell.policy);
  writer.u32(static_cast<std::uint32_t>(cell.intensity));
  writer.u8(cell.status == CellStatus::kOk ? 0 : 1);
  writer.u32(cell.attempts);
  writer.u32(static_cast<std::uint32_t>(cell.runs.size()));
  for (const reports::Metrics& m : cell.runs) encode_metrics(writer, m);
  return writer.take();
}

CellResult decode_cell(std::string_view payload) {
  util::ByteReader reader(payload);
  require_input(reader.u8() == kCellCodecVersion,
                "cell payload: unsupported codec version");
  CellResult cell;
  cell.policy = reader.str();
  const std::uint32_t intensity = reader.u32();
  require_input(intensity <= static_cast<std::uint32_t>(workload::Intensity::kHigh),
                "cell payload: intensity out of range");
  cell.intensity = static_cast<workload::Intensity>(intensity);
  cell.status = reader.u8() == 0 ? CellStatus::kOk : CellStatus::kFailed;
  cell.attempts = reader.u32();
  const std::uint32_t runs = reader.u32();
  // Checked before the reserve, so a corrupt or hostile count cannot size
  // an allocation: every run is one fixed-size record.
  require_input(std::uint64_t{runs} * kMetricsRecordBytes == reader.remaining(),
                "cell payload: run count does not match the payload size");
  cell.runs.reserve(runs);
  for (std::uint32_t i = 0; i < runs; ++i) cell.runs.push_back(decode_metrics(reader));
  return cell;
}

std::string encode_metrics_payload(const reports::Metrics& metrics) {
  util::ByteWriter writer;
  writer.u8(kCellCodecVersion);
  encode_metrics(writer, metrics);
  return writer.take();
}

reports::Metrics decode_metrics_payload(std::string_view payload) {
  util::ByteReader reader(payload);
  require_input(reader.u8() == kCellCodecVersion,
                "metrics payload: unsupported codec version");
  require_input(reader.remaining() == kMetricsRecordBytes,
                "metrics payload: wrong record size");
  return decode_metrics(reader);
}

}  // namespace e2c::exp
