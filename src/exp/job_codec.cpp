#include "exp/job_codec.hpp"

#include "util/error.hpp"

namespace e2c::exp {

namespace {

void put_header(util::ByteWriter& writer, JobFrame kind) {
  writer.u8(kJobCodecVersion);
  writer.u8(static_cast<std::uint8_t>(kind));
}

/// Consumes and validates the [version][kind] header.
util::ByteReader open_payload(std::string_view payload, JobFrame expected,
                              const char* what) {
  // The messages are built only on failure: a valid frame allocates nothing.
  util::ByteReader reader(payload);
  require_input(reader.u8() == kJobCodecVersion,
                [what] { return std::string(what) + ": unsupported job codec version"; });
  require_input(static_cast<JobFrame>(reader.u8()) == expected,
                [what] { return std::string(what) + ": unexpected frame kind"; });
  return reader;
}

void close_payload(const util::ByteReader& reader, const char* what) {
  require_input(reader.remaining() == 0,
                [what] { return std::string(what) + ": trailing bytes"; });
}

}  // namespace

JobFrame peek_job_frame(std::string_view payload) {
  util::ByteReader reader(payload);
  require_input(reader.u8() == kJobCodecVersion,
                "job frame: unsupported job codec version");
  const std::uint8_t kind = reader.u8();
  require_input(kind >= static_cast<std::uint8_t>(JobFrame::kSubmit) &&
                    kind <= static_cast<std::uint8_t>(JobFrame::kUnitResult),
                "job frame: unknown frame kind");
  return static_cast<JobFrame>(kind);
}

std::uint64_t job_key_of(std::string_view ini_text) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  for (const char c : ini_text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

void encode_job_submit(util::ByteWriter& writer, const JobSubmit& frame) {
  put_header(writer, JobFrame::kSubmit);
  writer.str(frame.ini_text);
}

JobSubmit decode_job_submit(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kSubmit, "submit frame");
  JobSubmit frame;
  frame.ini_text = reader.str();
  close_payload(reader, "submit frame");
  return frame;
}

void encode_job_accepted(util::ByteWriter& writer, const JobAccepted& frame) {
  put_header(writer, JobFrame::kAccepted);
  writer.u64(frame.job_id);
  writer.u32(frame.cells_total);
  writer.u32(frame.replications);
  writer.u32(frame.workers);
}

JobAccepted decode_job_accepted(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kAccepted, "accepted frame");
  JobAccepted frame;
  frame.job_id = reader.u64();
  frame.cells_total = reader.u32();
  frame.replications = reader.u32();
  frame.workers = reader.u32();
  close_payload(reader, "accepted frame");
  return frame;
}

void encode_job_busy(util::ByteWriter& writer, const JobBusy& frame) {
  put_header(writer, JobFrame::kBusy);
  writer.u32(frame.in_service);
  writer.u32(frame.backlog);
  writer.u8(frame.draining);
}

JobBusy decode_job_busy(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kBusy, "busy frame");
  JobBusy frame;
  frame.in_service = reader.u32();
  frame.backlog = reader.u32();
  frame.draining = reader.u8();
  close_payload(reader, "busy frame");
  return frame;
}

void encode_job_cell(util::ByteWriter& writer, const JobCell& frame) {
  put_header(writer, JobFrame::kCell);
  writer.u32(frame.slot);
  writer.u32(frame.cells_done);
  writer.u32(frame.cells_total);
  writer.str(frame.cell_payload);
}

JobCell decode_job_cell(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kCell, "cell frame");
  JobCell frame;
  frame.slot = reader.u32();
  frame.cells_done = reader.u32();
  frame.cells_total = reader.u32();
  frame.cell_payload = reader.str();
  close_payload(reader, "cell frame");
  return frame;
}

void encode_job_done(util::ByteWriter& writer, const JobDone& frame) {
  put_header(writer, JobFrame::kDone);
  writer.u64(frame.completed_cells);
  writer.u64(frame.failed_cells);
  writer.u64(frame.retries);
  writer.u64(frame.workers);
}

JobDone decode_job_done(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kDone, "done frame");
  JobDone frame;
  frame.completed_cells = reader.u64();
  frame.failed_cells = reader.u64();
  frame.retries = reader.u64();
  frame.workers = reader.u64();
  close_payload(reader, "done frame");
  return frame;
}

void encode_job_error(util::ByteWriter& writer, const JobError& frame) {
  put_header(writer, JobFrame::kError);
  writer.str(frame.message);
}

JobError decode_job_error(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kError, "error frame");
  JobError frame;
  frame.message = reader.str();
  close_payload(reader, "error frame");
  return frame;
}

void encode_worker_load_job(util::ByteWriter& writer, const WorkerLoadJob& frame) {
  put_header(writer, JobFrame::kLoadJob);
  writer.u64(frame.job_key);
  writer.str(frame.ini_text);
}

WorkerLoadJob decode_worker_load_job(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kLoadJob, "load-job frame");
  WorkerLoadJob frame;
  frame.job_key = reader.u64();
  frame.ini_text = reader.str();
  close_payload(reader, "load-job frame");
  return frame;
}

void encode_worker_run_unit(util::ByteWriter& writer, const WorkerRunUnit& frame) {
  put_header(writer, JobFrame::kRunUnit);
  writer.u64(frame.job_key);
  writer.u32(frame.slot);
  writer.u32(frame.rep);
  writer.u32(frame.attempt);
}

WorkerRunUnit decode_worker_run_unit(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kRunUnit, "run-unit frame");
  WorkerRunUnit frame;
  frame.job_key = reader.u64();
  frame.slot = reader.u32();
  frame.rep = reader.u32();
  frame.attempt = reader.u32();
  close_payload(reader, "run-unit frame");
  return frame;
}

void encode_worker_shutdown(util::ByteWriter& writer) {
  put_header(writer, JobFrame::kShutdown);
}

void encode_worker_unit_result(util::ByteWriter& writer,
                               const WorkerUnitResult& frame) {
  put_header(writer, JobFrame::kUnitResult);
  writer.u64(frame.job_key);
  writer.u32(frame.slot);
  writer.u32(frame.rep);
  writer.u32(frame.attempt);
  writer.str(frame.metrics_payload);
}

WorkerUnitResult decode_worker_unit_result(std::string_view payload) {
  auto reader = open_payload(payload, JobFrame::kUnitResult, "unit-result frame");
  WorkerUnitResult frame;
  frame.job_key = reader.u64();
  frame.slot = reader.u32();
  frame.rep = reader.u32();
  frame.attempt = reader.u32();
  frame.metrics_payload = reader.str();
  close_payload(reader, "unit-result frame");
  return frame;
}

}  // namespace e2c::exp
