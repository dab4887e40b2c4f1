// Checkpointing: save/load model parameters (and BatchNorm running
// statistics) to a simple self-describing binary format.
//
// Format (little-endian):
//   magic "DKFC" | u32 version | u64 entry_count |
//   per entry: u64 name_len | name bytes | u64 ndim | u64 dims[ndim] |
//              f32 data[numel]
//   footer: magic "DKFE" | u64 payload_bytes (everything before the footer)
//
// Entries are keyed by parameter name, so checkpoints survive refactors
// that reorder layers but not ones that rename them. BatchNorm running
// stats are stored under "<bn-name>.running_{mean,var}".
//
// Durability: the path-taking save writes `<path>.tmp`, fsyncs, and
// atomically renames — a crash mid-write leaves the previous checkpoint
// (or a stray .tmp), never a truncated file under the real name. The
// footer makes truncation detectable on load even when the cut lands on
// an entry boundary.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/layer.hpp"

namespace dkfac::nn {

/// Serialises every parameter and BatchNorm running statistic of `model`.
void save_checkpoint(Layer& model, std::ostream& out);
void save_checkpoint(Layer& model, const std::string& path);

/// The durable tail of an atomic file write, shared by every file a
/// crashed rank must never see torn: fsyncs the fully written `tmp`,
/// renames it over `path`, then fsyncs the containing directory (best
/// effort). Removes `tmp` and throws dkfac::Error if the fsync or rename
/// fails.
void commit_file(const std::string& tmp, const std::string& path);

/// Restores a checkpoint saved by save_checkpoint. Throws dkfac::Error on
/// magic/version mismatch, missing entries, or shape mismatches.
void load_checkpoint(Layer& model, std::istream& in);
void load_checkpoint(Layer& model, const std::string& path);

}  // namespace dkfac::nn
