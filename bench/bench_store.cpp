// Evaluation-store persistence throughput: append rate under each
// durability policy, journal-replay (reopen) time, reopen time after 10x
// overwrite churn (dead-record bloat), snapshot-compaction throughput
// (records/sec, bytes before/after), and post-compaction reopen time —
// demonstrating that compaction keeps reopen cost bounded by the live set,
// not the append history. Records land in BENCH_serve.json (override with
// METACORE_BENCH_SERVE_JSON) so the persistence trajectory is tracked
// across PRs.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/store.hpp"
#include "util/crc32c.hpp"
#include "util/table.hpp"

using namespace metacore;

namespace {

std::string bench_serve_json_path() {
  const char* env = std::getenv("METACORE_BENCH_SERVE_JSON");
  return (env != nullptr && env[0] != '\0') ? env : "BENCH_serve.json";
}

std::string store_path() {
  return (std::filesystem::temp_directory_path() / "metacore_bench_store.jsonl")
      .string();
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

search::Evaluation synthetic_eval(int n) {
  search::Evaluation eval;
  eval.feasible = (n % 7) != 0;
  eval.confidence_weight = 1.0 + n * 0.001;
  eval.metrics["area_mm2"] = 0.5 + (n % 97) * 0.01;
  eval.metrics["ber"] = 1e-3 / (1 + n % 13);
  eval.metrics["latency_us"] = 3.0 + (n % 31) * 0.125;
  return eval;
}

void fill(serve::EvaluationStore& store, int records) {
  for (int n = 0; n < records; ++n) {
    store.record("bench-fp", {n / 37, n % 37}, n % 3, synthetic_eval(n));
  }
}

std::size_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

/// The record frames of the journal at `path` (everything after the header
/// line) — the raw material for simulating overwrite churn across writer
/// epochs.
std::string frames_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return text.substr(text.find('\n') + 1);
}

void append_epochs(const std::string& path, const std::string& frames,
                   int epochs) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  for (int e = 0; e < epochs; ++e) out << frames;
}

}  // namespace

int main() {
  bench::print_header("Evaluation-store persistence: append / replay / compact",
                      "the crash-consistent store under Section 6 serving");
  const int records = static_cast<int>(bench::budget(20000));
  const std::string path = store_path();
  std::remove((path + ".tmp").c_str());
  std::vector<bench::BenchRecord> out;
  util::TextTable table(
      {"pass", "records", "wall ms", "records/s", "file KiB"});

  // 1) Append throughput per durability policy (the fsync policies are
  //    excluded from the default run: their cost is the device's, not the
  //    code's).
  for (const char* policy : {"none", "flush"}) {
    std::remove(path.c_str());
    serve::StoreConfig config;
    config.durability = robust::DurabilityConfig::parse(policy);
    const auto t0 = std::chrono::steady_clock::now();
    {
      serve::EvaluationStore store(path, config);
      fill(store, records);
    }
    const double wall = ms_since(t0);
    bench::BenchRecord rec;
    rec.name = "store_append";
    rec.labels["durability"] = policy;
    rec.values["records"] = records;
    rec.values["wall_ms"] = wall;
    rec.values["records_per_sec"] = records / (wall / 1000.0);
    rec.values["file_bytes"] = static_cast<double>(file_bytes(path));
    out.push_back(rec);
    table.add_row({std::string("append (") + policy + ")",
                   std::to_string(records), util::format_double(wall, 1),
                   util::format_double(records / (wall / 1000.0), 0),
                   util::format_double(file_bytes(path) / 1024.0, 0)});
  }

  // 2) Journal replay: reopen the flush-policy journal written above.
  {
    const auto t0 = std::chrono::steady_clock::now();
    serve::EvaluationStore store(path);
    const double wall = ms_since(t0);
    bench::BenchRecord rec;
    rec.name = "store_replay";
    rec.values["records"] = records;
    rec.values["wall_ms"] = wall;
    rec.values["records_per_sec"] = records / (wall / 1000.0);
    rec.values["live_entries"] = static_cast<double>(store.size());
    out.push_back(rec);
    table.add_row({"replay (clean)", std::to_string(records),
                   util::format_double(wall, 1),
                   util::format_double(records / (wall / 1000.0), 0),
                   util::format_double(file_bytes(path) / 1024.0, 0)});
  }

  // 3) 10x overwrite churn: every record rewritten 10 times across writer
  //    epochs (appending the same frames 9 more times, as racing epochs
  //    would), then one reopen with the default compaction ratio — reopen
  //    cost must end bounded by the live set, not the churn history.
  append_epochs(path, frames_of(path), 9);
  const std::size_t churned_bytes = file_bytes(path);
  {
    const auto t0 = std::chrono::steady_clock::now();
    serve::EvaluationStore store(path);  // dead ratio 0.9: compacts at open
    const double wall = ms_since(t0);
    const auto stats = store.stats();
    bench::BenchRecord rec;
    rec.name = "store_churn_reopen";
    rec.values["journal_records"] = static_cast<double>(records) * 10.0;
    rec.values["live_entries"] = static_cast<double>(store.size());
    rec.values["wall_ms"] = wall;
    rec.values["bytes_before"] =
        static_cast<double>(stats.compaction_bytes_before);
    rec.values["bytes_after"] =
        static_cast<double>(stats.compaction_bytes_after);
    rec.values["compactions"] = static_cast<double>(stats.compactions);
    out.push_back(rec);
    table.add_row({"reopen (10x churn + compact)",
                   std::to_string(records * 10),
                   util::format_double(wall, 1),
                   util::format_double(records * 10 / (wall / 1000.0), 0),
                   util::format_double(churned_bytes / 1024.0, 0)});
  }

  // 4) Post-compaction reopen: the bounded steady state.
  {
    const auto t0 = std::chrono::steady_clock::now();
    serve::EvaluationStore store(path);
    const double wall = ms_since(t0);
    bench::BenchRecord rec;
    rec.name = "store_compacted_reopen";
    rec.values["records"] = records;
    rec.values["wall_ms"] = wall;
    rec.values["records_per_sec"] = records / (wall / 1000.0);
    rec.values["file_bytes"] = static_cast<double>(file_bytes(path));
    out.push_back(rec);
    table.add_row({"reopen (compacted)", std::to_string(records),
                   util::format_double(wall, 1),
                   util::format_double(records / (wall / 1000.0), 0),
                   util::format_double(file_bytes(path) / 1024.0, 0)});
  }

  // 5) Explicit compact() throughput on a half-dead journal (ratio
  //    trigger disabled so the bloat survives the open).
  append_epochs(path, frames_of(path), 1);
  {
    serve::StoreConfig config;
    config.auto_compact_dead_ratio = 0.0;
    serve::EvaluationStore store(path, config);
    const std::size_t before = file_bytes(path);
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t reclaimed = store.compact();
    const double wall = ms_since(t0);
    bench::BenchRecord rec;
    rec.name = "store_compact";
    rec.values["live_entries"] = static_cast<double>(store.size());
    rec.values["wall_ms"] = wall;
    rec.values["records_per_sec"] = store.size() / (wall / 1000.0);
    rec.values["bytes_before"] = static_cast<double>(before);
    rec.values["bytes_after"] = static_cast<double>(file_bytes(path));
    rec.values["bytes_reclaimed"] = static_cast<double>(reclaimed);
    out.push_back(rec);
    table.add_row({"compact()", std::to_string(store.size()),
                   util::format_double(wall, 1),
                   util::format_double(store.size() / (wall / 1000.0), 0),
                   util::format_double(file_bytes(path) / 1024.0, 0)});
  }

  // 6) CRC32C backend throughput: the checksum under every journal frame
  //    and checkpoint. Both tiers are bit-identical
  //    (util_crc32c_test pins that); this records what the SSE4.2
  //    dispatch buys over the portable slice-by-8 walk.
  {
    std::string payload(1 << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<char>((i * 2654435761u) >> 13);
    }
    const int reps = static_cast<int>(bench::budget(400));
    std::vector<std::pair<std::string, std::string>> tiers = {
        {"sw", "sw-slice8"}};
    if (util::crc32c_hw_available()) tiers.emplace_back("hw", "hw-sse42");
    for (const auto& [force, name] : tiers) {
      util::crc32c_force_backend(force);
      std::uint32_t sink = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) {
        sink ^= util::crc32c(payload.data(), payload.size());
      }
      const double wall = ms_since(t0);
      const double mb = reps * (payload.size() / 1e6);
      bench::BenchRecord rec;
      rec.name = "store_crc32c";
      rec.labels["backend"] = name;
      rec.values["block_bytes"] = static_cast<double>(payload.size());
      rec.values["reps"] = reps;
      rec.values["wall_ms"] = wall;
      rec.values["mb_per_sec"] = mb / (wall / 1000.0);
      rec.values["checksum"] = static_cast<double>(sink);
      out.push_back(rec);
      // The throughput column carries MB/s for this pass.
      table.add_row({"crc32c (" + name + ")", std::to_string(reps),
                     util::format_double(wall, 1),
                     util::format_double(mb / (wall / 1000.0), 0), "-"});
    }
    util::crc32c_force_backend("auto");
  }

  table.print(std::cout);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  bench::append_bench_records(out, bench_serve_json_path());
  std::cout << "bench records appended to " << bench_serve_json_path()
            << "\n";
  return 0;
}
