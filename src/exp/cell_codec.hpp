/// \file cell_codec.hpp
/// \brief Binary serialization of CellResult for pipes and the sweep journal.
///
/// Worker processes ship each finished cell to the supervising parent as one
/// frame, and the journal persists the identical payload (hex-armored) so a
/// resumed sweep restores bit-exact metrics — every double travels as its
/// raw 8 bytes, never through a decimal print, which is what keeps resumed
/// and uninterrupted runs byte-identical in the result CSV.
///
/// Layout v2: a version byte, the cell header (policy, intensity, status,
/// attempts, run count), then one fixed-size 184-byte record per run. A
/// cell's size depends only on its run count, never on the catalog's task
/// or machine count, and the decoder checks the run count against the bytes
/// left before it allocates anything.
#pragma once

#include <string>
#include <string_view>

#include "exp/experiment.hpp"

namespace e2c::exp {

/// Encodes a cell (policy, intensity, status, attempts, every Metrics field
/// of every replication) into a self-contained byte payload.
[[nodiscard]] std::string encode_cell(const CellResult& cell);

/// Inverse of encode_cell. Throws e2c::InputError on a truncated, overlong,
/// or wrong-version payload, and on a run count the payload size does not
/// match.
[[nodiscard]] CellResult decode_cell(std::string_view payload);

/// Encodes one replication's Metrics as a self-contained payload — the unit
/// the serve backend ships per (cell, replication) work item. Same field
/// layout (and the same bit-exact doubles guarantee) as the per-run records
/// inside encode_cell, with its own leading version byte.
[[nodiscard]] std::string encode_metrics_payload(const reports::Metrics& metrics);

/// Inverse of encode_metrics_payload. Throws e2c::InputError on a truncated,
/// overlong, or wrong-version payload.
[[nodiscard]] reports::Metrics decode_metrics_payload(std::string_view payload);

}  // namespace e2c::exp
