#include "exp/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "exp/cell_codec.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/framing.hpp"
#include "util/string_util.hpp"

namespace e2c::exp {

namespace {

/// Bumped with the cell codec: a journal's records are encode_cell payloads,
/// so v1 journals (codec v1 records) cannot be resumed by this build.
constexpr unsigned kJournalVersion = 2;
constexpr std::string_view kHeaderTag = "e2c-sweep-journal v";

std::string header_line(std::uint64_t digest, std::size_t cells_total) {
  char line[96];
  std::snprintf(line, sizeof line, "e2c-sweep-journal v%u digest=%016llx cells=%zu\n",
                kJournalVersion, static_cast<unsigned long long>(digest), cells_total);
  return line;
}

void write_fsync(int fd, const std::string& data, const char* what) {
  const char* cursor = data.data();
  std::size_t remaining = data.size();
  while (remaining > 0) {
    const ssize_t written = ::write(fd, cursor, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string(what) + ": write failed: " + std::strerror(errno));
    }
    cursor += written;
    remaining -= static_cast<std::size_t>(written);
  }
  if (::fsync(fd) != 0) {
    throw IoError(std::string(what) + ": fsync failed: " + std::strerror(errno));
  }
}

}  // namespace

SweepJournal SweepJournal::create(const std::string& path, std::uint64_t digest,
                                  std::size_t cells_total) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw IoError("journal: cannot create '" + path + "': " + std::strerror(errno));
  }
  SweepJournal journal(fd);
  write_fsync(fd, header_line(digest, cells_total), "journal");
  return journal;
}

SweepJournal SweepJournal::append_to(const std::string& path, std::uint64_t digest,
                                     std::size_t cells_total) {
  // Validates the header the same way read_journal does, so an append handle
  // can never extend a journal from a different sweep.
  const JournalContents contents = read_journal(path);
  require_input(contents.digest == digest,
                "journal '" + path + "': spec digest mismatch");
  require_input(contents.cells_total == cells_total,
                "journal '" + path + "': cell count mismatch");
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    throw IoError("journal: cannot append to '" + path + "': " + std::strerror(errno));
  }
  SweepJournal journal(fd);
  // Cut a torn tail off before appending: a record written after it would
  // join it into one corrupt interior line that the next resume refuses.
  if (::ftruncate(fd, static_cast<off_t>(contents.intact_bytes)) != 0) {
    throw IoError("journal: cannot drop the torn tail of '" + path +
                  "': " + std::strerror(errno));
  }
  return journal;
}

void SweepJournal::append(std::size_t slot, const CellResult& cell) {
  std::string line = "cell " + std::to_string(slot) + " " +
                     util::hex_encode(encode_cell(cell)) + "\n";
  write_fsync(fd_, line, "journal");
}

SweepJournal::SweepJournal(SweepJournal&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

JournalContents read_journal(const std::string& path) {
  const std::string text = util::read_file(path);

  JournalContents contents;
  std::size_t offset = 0;
  bool saw_header = false;
  while (offset < text.size()) {
    const std::size_t newline = text.find('\n', offset);
    const bool complete = newline != std::string::npos;
    const std::string_view line(text.data() + offset,
                                (complete ? newline : text.size()) - offset);
    const std::size_t next = complete ? newline + 1 : text.size();
    const bool is_last = next >= text.size();

    if (!saw_header) {
      // The header is written in one fsync'd write before any record; a
      // journal torn inside it is unusable and reported as malformed.
      require_input(util::starts_with(line, kHeaderTag),
                    "journal '" + path + "': missing header line");
      unsigned version = 0;
      unsigned long long digest = 0;
      std::size_t cells = 0;
      const int fields = std::sscanf(std::string(line).c_str(),
                                     "e2c-sweep-journal v%u digest=%llx cells=%zu",
                                     &version, &digest, &cells);
      if (fields >= 1 && version != kJournalVersion) {
        throw InputError("journal '" + path + "': format v" + std::to_string(version) +
                         " is not supported (this build reads v" +
                         std::to_string(kJournalVersion) +
                         "); run the sweep again without --resume");
      }
      if (fields != 3) throw InputError("journal '" + path + "': malformed header line");
      contents.digest = digest;
      contents.cells_total = cells;
      contents.intact_bytes = next;
      saw_header = true;
      offset = next;
      continue;
    }

    bool parsed = false;
    if (util::starts_with(line, "cell ")) {
      const auto fields = util::split(line, ' ');
      if (fields.size() == 3) {
        const auto slot = util::parse_int(fields[1]);
        if (slot.has_value() && *slot >= 0) {
          try {
            CellResult cell = decode_cell(util::hex_decode(fields[2]));
            contents.cells.insert_or_assign(static_cast<std::size_t>(*slot),
                                            std::move(cell));
            parsed = true;
          } catch (const InputError&) {
            parsed = false;  // torn or corrupt payload
          }
        }
      }
    }
    if (!parsed) {
      // A torn final record is the expected SIGKILL artifact; corruption
      // anywhere else means the file is not append-only damage.
      require_input(is_last && !complete,
                    "journal '" + path + "': corrupt record (not a torn tail)");
    } else {
      contents.intact_bytes = next;
    }
    offset = next;
  }
  require_input(saw_header, "journal '" + path + "': empty file");
  return contents;
}

}  // namespace e2c::exp
