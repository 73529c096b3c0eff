// Trace (de)serialization: CSV export/import of probe-round observations.
//
// Lets researchers run the Vehicle-Key pipeline on *real* register-RSSI
// captures (the paper's setup) instead of the simulator: record per-symbol
// rRSSI on actual SX127x hardware, dump to this CSV schema, and feed it to
// KeyGenPipeline via dataset extraction. Also used to archive simulated
// traces for exact reproduction across machines.
//
// Schema (one row per register sample):
//   round,observer,symbol,t_start,rssi_dbm
// where observer is one of: bob_rx, alice_rx, eve_rx_alice_tx,
// eve_rx_bob_tx. Rows must be grouped by round (ascending); symbol indexes
// within the packet.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "channel/trace.h"

namespace vkey::channel {

/// Write rounds to a CSV stream/file.
void write_trace_csv(std::ostream& out,
                     const std::vector<ProbeRound>& rounds);
void save_trace_csv(const std::string& path,
                    const std::vector<ProbeRound>& rounds);

/// The most distinct rounds read_trace_csv accepts. A round held while
/// reading costs about 1 KiB whatever its line holds, so this keeps a
/// hostile CSV with one line per round index under ~64 MiB; a capture of
/// more rounds is split into several files.
inline constexpr std::size_t kMaxTraceRounds = std::size_t{1} << 16;

/// Parse a CSV stream/file produced by write_trace_csv (or by a hardware
/// capture tool following the same schema). Throws vkey::Error on malformed
/// input; rounds with missing observers are rejected, and so is a CSV that
/// names more than kMaxTraceRounds rounds, at the line that names one more.
std::vector<ProbeRound> read_trace_csv(std::istream& in);
std::vector<ProbeRound> load_trace_csv(const std::string& path);

}  // namespace vkey::channel
