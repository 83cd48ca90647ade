#include "robust/checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "robust/journal.hpp"
#include "robust/json.hpp"

namespace metacore::robust {

namespace {

constexpr const char* kMagic = "metacore-search-checkpoint";
constexpr const char* kWhat = "checkpoint";

}  // namespace

void write_eval_record(std::ostream& os, const CheckpointRecord& rec) {
  os << "{\"indices\":[";
  for (std::size_t d = 0; d < rec.indices.size(); ++d) {
    if (d) os << ',';
    os << rec.indices[d];
  }
  os << "],\"fidelity\":" << rec.fidelity
     << ",\"feasible\":" << (rec.eval.feasible ? "true" : "false")
     << ",\"confidence_weight\":";
  write_double(os, rec.eval.confidence_weight);
  os << ",\"failure_reason\":";
  write_escaped(os, rec.eval.failure_reason);
  os << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : rec.eval.metrics) {
    if (!first) os << ',';
    first = false;
    write_escaped(os, name);
    os << ':';
    write_double(os, value);
  }
  os << "}}";
}

CheckpointRecord parse_eval_record(const JsonValue& obj,
                                   const std::string& what) {
  if (obj.type != JsonValue::Type::Object) {
    throw std::runtime_error(what + ": evaluation record is not an object");
  }
  CheckpointRecord rec;
  const JsonValue& indices =
      require(obj, "indices", JsonValue::Type::Array, what);
  rec.indices.reserve(indices.array.size());
  for (const JsonValue& idx : indices.array) {
    if (idx.type != JsonValue::Type::Number) {
      throw std::runtime_error(what + ": non-numeric grid index");
    }
    rec.indices.push_back(static_cast<int>(std::llround(idx.number)));
  }
  rec.fidelity = static_cast<int>(std::llround(
      require(obj, "fidelity", JsonValue::Type::Number, what).number));
  rec.eval.feasible =
      require(obj, "feasible", JsonValue::Type::Bool, what).boolean;
  rec.eval.confidence_weight =
      require(obj, "confidence_weight", JsonValue::Type::Number, what).number;
  rec.eval.failure_reason =
      require(obj, "failure_reason", JsonValue::Type::String, what).string;
  const JsonValue& metrics =
      require(obj, "metrics", JsonValue::Type::Object, what);
  for (const auto& [name, value] : metrics.object) {
    if (value.type != JsonValue::Type::Number) {
      throw std::runtime_error(what + ": non-numeric metric \"" + name +
                               "\"");
    }
    rec.eval.metrics[name] = value.number;
  }
  return rec;
}

void save_checkpoint(const std::string& path,
                     const SearchCheckpoint& checkpoint) {
  std::ostringstream os;
  {
    os << "{\n\"magic\":\"" << kMagic << "\",\n"
       << "\"version\":" << checkpoint.version << ",\n"
       << "\"dimensions\":" << checkpoint.dimensions << ",\n"
       << "\"probabilistic_metric\":";
    write_escaped(os, checkpoint.probabilistic_metric);
    os << ",\n\"fingerprint\":{";
    bool first = true;
    for (const auto& [key, value] : checkpoint.fingerprint) {
      if (!first) os << ',';
      first = false;
      write_escaped(os, key);
      os << ':';
      write_double(os, value);
    }
    os << "},\n\"counters\":{"
       << "\"invalid_point\":" << checkpoint.failures.invalid_point
       << ",\"non_convergence\":" << checkpoint.failures.non_convergence
       << ",\"non_finite\":" << checkpoint.failures.non_finite
       << ",\"transient_faults\":" << checkpoint.failures.transient_faults
       << ",\"retries\":" << checkpoint.failures.retries
       << ",\"recovered\":" << checkpoint.failures.recovered
       << ",\"failed_evaluations\":" << checkpoint.failures.failed_evaluations
       << "},\n\"journal\":[";
    for (std::size_t i = 0; i < checkpoint.journal.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n");
      write_eval_record(os, checkpoint.journal[i]);
    }
    os << "\n]}\n";
  }

  // The checkpoint document travels as one CRC32C-guarded journal frame,
  // published with a durable atomic replace (tmp + fsync + rename): a kill
  // at any byte of the flush leaves either the previous complete
  // checkpoint or the new one — never a truncated or torn file that the
  // fingerprint check would then reject, forcing a full restart.
  const std::string doc = os.str();
  std::string contents =
      journal_header_line(JournalHeader{kMagic, kCheckpointVersion});
  contents += frame_record(doc);
  atomic_replace_file(path, contents, DurabilityConfig::from_env(),
                      "checkpoint", kWhat);
}

SearchCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  if (!looks_like_journal(text)) {
    throw std::runtime_error("checkpoint: " + path +
                             " is not a journal-framed metacore search "
                             "checkpoint");
  }
  const JournalReadResult framed = read_journal_text(text, kWhat);
  if (framed.header.kind != kMagic) {
    throw std::runtime_error("checkpoint: " + path +
                             " is not a metacore search checkpoint");
  }
  if (framed.header.kind_version != kCheckpointVersion) {
    throw std::runtime_error(
        "checkpoint: unsupported version " +
        std::to_string(framed.header.kind_version) +
        " (this build reads version " + std::to_string(kCheckpointVersion) +
        ")");
  }
  if (framed.records.size() != 1) {
    std::string detail = framed.skip_reasons.empty()
                             ? std::string("truncated or torn file")
                             : framed.skip_reasons.front();
    throw std::runtime_error(
        "checkpoint: " + path + " does not hold one intact record (" +
        detail + ") — save_checkpoint publishes atomically, so this is "
        "external damage, refusing to guess");
  }
  const std::string& doc = framed.records.front();

  const JsonValue root = parse_json(doc, kWhat);
  if (root.type != JsonValue::Type::Object) {
    throw std::runtime_error("checkpoint: document is not an object");
  }
  if (require(root, "magic", JsonValue::Type::String, kWhat).string !=
      kMagic) {
    throw std::runtime_error("checkpoint: " + path +
                             " is not a metacore search checkpoint");
  }
  SearchCheckpoint cp;
  cp.version = static_cast<int>(std::llround(
      require(root, "version", JsonValue::Type::Number, kWhat).number));
  if (cp.version != kCheckpointVersion) {
    throw std::runtime_error(
        "checkpoint: unsupported version " + std::to_string(cp.version) +
        " (this build reads version " + std::to_string(kCheckpointVersion) +
        ")");
  }
  cp.dimensions = require_count(root, "dimensions", kWhat);
  cp.probabilistic_metric =
      require(root, "probabilistic_metric", JsonValue::Type::String, kWhat)
          .string;
  const JsonValue& fp =
      require(root, "fingerprint", JsonValue::Type::Object, kWhat);
  for (const auto& [key, value] : fp.object) {
    if (value.type != JsonValue::Type::Number) {
      throw std::runtime_error("checkpoint: non-numeric fingerprint entry \"" +
                               key + "\"");
    }
    cp.fingerprint[key] = value.number;
  }
  const JsonValue& counters =
      require(root, "counters", JsonValue::Type::Object, kWhat);
  cp.failures.invalid_point = require_count(counters, "invalid_point", kWhat);
  cp.failures.non_convergence =
      require_count(counters, "non_convergence", kWhat);
  cp.failures.non_finite = require_count(counters, "non_finite", kWhat);
  cp.failures.transient_faults =
      require_count(counters, "transient_faults", kWhat);
  cp.failures.retries = require_count(counters, "retries", kWhat);
  cp.failures.recovered = require_count(counters, "recovered", kWhat);
  cp.failures.failed_evaluations =
      require_count(counters, "failed_evaluations", kWhat);
  const JsonValue& journal =
      require(root, "journal", JsonValue::Type::Array, kWhat);
  cp.journal.reserve(journal.array.size());
  for (const JsonValue& entry : journal.array) {
    cp.journal.push_back(parse_eval_record(entry, kWhat));
  }
  return cp;
}

bool checkpoint_exists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace metacore::robust
