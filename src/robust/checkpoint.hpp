// Versioned JSON checkpoints for long-running searches. A checkpoint is
// the search's evaluation journal — every (indices, fidelity, Evaluation)
// absorbed, in absorption order — plus the failure counters and a config
// fingerprint. Replaying the journal in order reconstructs the evaluation
// cache AND the predictors' evidence sequences bit-for-bit (floating-point
// accumulation order included), so a resumed search walks the exact
// trajectory of an uninterrupted one without re-invoking the evaluator for
// completed work.
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "robust/counters.hpp"
#include "robust/json.hpp"
#include "search/objective.hpp"

namespace metacore::robust {

/// One absorbed evaluation: the grid indices of the point, the fidelity it
/// was evaluated at, and the full result.
struct CheckpointRecord {
  std::vector<int> indices;
  int fidelity = 0;
  search::Evaluation eval;
};

inline constexpr int kCheckpointVersion = 1;

struct SearchCheckpoint {
  int version = kCheckpointVersion;
  /// Design-space dimensionality, validated on resume.
  std::size_t dimensions = 0;
  /// Name of the probabilistic metric the writing search was configured
  /// with (part of the trajectory-shaping configuration).
  std::string probabilistic_metric;
  /// Numeric configuration knobs that shape the search trajectory; a resume
  /// with a different configuration is rejected rather than silently
  /// diverging.
  std::map<std::string, double> fingerprint;
  /// Failure counters at the time of the flush.
  FailureCounters failures;
  /// Absorbed evaluations in absorption order.
  std::vector<CheckpointRecord> journal;
};

/// Serializes `checkpoint` to `path` as one CRC32C-guarded journal frame
/// (robust/journal.hpp), published with a durable atomic replace (tmp file
/// + fsync per METACORE_DURABILITY + rename): a crash at any byte of the
/// flush leaves either the previous complete checkpoint or the new one,
/// never a torn file. Doubles are written with round-trip precision;
/// non-finite values use the bare tokens inf/-inf/nan (a deliberate,
/// documented superset of JSON — our own reader accepts them). Throws
/// CrashInjected (armed fail point) or std::runtime_error on I/O failure.
void save_checkpoint(const std::string& path,
                     const SearchCheckpoint& checkpoint);

/// Parses a checkpoint written by save_checkpoint. Throws
/// std::runtime_error on I/O failure, a file that is not journal-framed
/// (naming the path), a checksum mismatch, malformed JSON, a missing
/// field, or a version mismatch.
SearchCheckpoint load_checkpoint(const std::string& path);

bool checkpoint_exists(const std::string& path);

/// Writes `rec` as one JSON object — the checkpoint journal-entry schema,
/// which is also the per-line evaluation schema of the serve/ evaluation
/// store (the store prepends its own addressing fields).
void write_eval_record(std::ostream& os, const CheckpointRecord& rec);

/// Parses a JSON object in the write_eval_record schema. Throws
/// std::runtime_error (prefixed with `what`) on a missing or mistyped
/// field.
CheckpointRecord parse_eval_record(const JsonValue& obj,
                                   const std::string& what);

}  // namespace metacore::robust
