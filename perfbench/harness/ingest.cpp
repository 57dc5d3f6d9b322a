// ingest_sets — fdlc --ingest over trace-dump sets. The only workload
// that reaches the ingest reader and the TJ/KJ validators; no graph type
// is ever built.
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "gtdl/graph/csr.hpp"
#include "gtdl/graph/graph.hpp"
#include "gtdl/ingest/ingest.hpp"
#include "gtdl/ingest/trace_writer.hpp"
#include "gtdl/tj/join_policy.hpp"
#include "gtdl/tj/trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

// Dump sets per second of --seconds on the reference machine.
constexpr double kSetsPerSecond = 16;
constexpr unsigned kShards = 8;
// Manifest field of a set's expected TJ and KJ verdicts.
constexpr std::size_t kJoins = kTag + 1;

enum class Fault { kNone, kCycle, kUnspawned };

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kCycle: return "cycle";
    case Fault::kUnspawned: return "unspawned";
    default: return "none";
  }
}

gtdl::Symbol sym(const std::string& name) {
  return gtdl::Symbol::intern(name);
}

// A two-level spawn tree: main spawns `groups` threads, each spawning and
// then touching `per_group` workers. The cycle fault makes two workers
// of group 0 touch each other; the unspawned fault makes main touch a
// future nobody spawns. Both are deadlocks of the traced execution by
// construction.
std::size_t write_wide(const SetupContext& ctx, const std::string& base,
                       std::size_t groups, std::size_t per_group,
                       Fault fault) {
  gtdl::ingest::TraceDumpWriter::Options options;
  options.shards = kShards;
  gtdl::ingest::TraceDumpWriter writer(base, options);
  const gtdl::Symbol main_thread = sym("main");
  std::vector<gtdl::Symbol> group_names;
  for (std::size_t g = 0; g < groups; ++g) {
    group_names.push_back(sym("g" + std::to_string(g)));
    writer.record_spawn(main_thread, group_names.back());
    std::vector<gtdl::Symbol> workers;
    for (std::size_t w = 0; w < per_group; ++w) {
      workers.push_back(
          sym("g" + std::to_string(g) + "w" + std::to_string(w)));
      writer.record_spawn(group_names.back(), workers.back());
    }
    if (g == 0 && fault == Fault::kCycle) {
      writer.record_touch(workers[0], workers[1]);
      writer.record_touch(workers[1], workers[0]);
    }
    for (const gtdl::Symbol& worker : workers) {
      writer.record_touch(group_names.back(), worker);
      writer.record_resolve(worker);
    }
    writer.record_resolve(group_names.back());
  }
  for (const gtdl::Symbol& name : group_names) {
    writer.record_touch(main_thread, name);
  }
  if (fault == Fault::kUnspawned) {
    writer.record_touch(main_thread, sym("ghost"));
  }
  std::string error;
  ctx.io([&] { writer.flush(&error); });
  if (!error.empty()) throw std::runtime_error(error);
  return writer.record_count();
}

// Future k spawned by future k-1 and touched on the way back: maximal
// nesting, every spawn crossing shards. The cycle fault makes the
// deepest future touch one in the middle of the chain, which is waiting
// on it; the unspawned fault makes the deepest future touch a future
// nobody spawns.
std::size_t write_chain(const SetupContext& ctx, const std::string& base,
                        std::size_t depth, Fault fault) {
  gtdl::ingest::TraceDumpWriter::Options options;
  options.shards = kShards;
  gtdl::ingest::TraceDumpWriter writer(base, options);
  std::vector<gtdl::Symbol> names{sym("main")};
  for (std::size_t i = 1; i <= depth; ++i) {
    names.push_back(sym("c" + std::to_string(i)));
    writer.record_spawn(names[i - 1], names[i]);
  }
  if (fault == Fault::kCycle) {
    writer.record_touch(names[depth], names[depth / 2]);
  }
  if (fault == Fault::kUnspawned) {
    writer.record_touch(names[depth], sym("ghost"));
  }
  for (std::size_t i = depth; i >= 1; --i) {
    writer.record_touch(names[i - 1], names[i]);
    writer.record_resolve(names[i]);
  }
  std::string error;
  ctx.io([&] { writer.flush(&error); });
  if (!error.empty()) throw std::runtime_error(error);
  return writer.record_count();
}

// Expected TJ and KJ verdicts of a set, by construction: without a
// fault every thread touches only the futures it spawned itself, which
// both policies permit. A fault makes the execution deadlock, and a
// TJ-valid trace is deadlock-free (paper §4.2), so TJ must reject it; KJ
// permits less than TJ, so KJ must reject it too. 'V' valid, 'I' invalid.
const char* expected_joins(Fault f) { return f == Fault::kNone ? "VV" : "II"; }

// The TJ and KJ verdicts of an ingest report, read from its
// "transitive joins (observed)" and "known joins (observed)" lines; '?'
// for a line that is missing.
std::string report_joins(const std::string& text) {
  std::string joins;
  for (const char* key :
       {"transitive joins (observed): ", "known joins (observed): "}) {
    const std::size_t pos = text.find(key);
    joins += pos == std::string::npos ? '?'
             : text.compare(pos + std::strlen(key), 5, "valid") == 0 ? 'V'
                                                                      : 'I';
  }
  return joins;
}

// ingest_dump_set's pipeline, one public call per layer: glob + merge,
// CSR lowering + cycle/unspawned scan, Fig. 6 trace + TJ/KJ. Returns the
// exit code; `joins` gets the TJ and KJ verdicts as report_joins gives.
int traced_set(const std::string& pattern, std::string& joins) {
  gtdl::ingest::MergedTrace merged;
  {
    Span span(kIngestMerge);
    std::string error;
    merged = gtdl::ingest::merge_trace_dumps(
        gtdl::ingest::expand_dump_glob(pattern, &error));
  }
  if (!merged.ok) return 2;
  bool deadlock = false;
  {
    Span span(kGraphScan);
    gtdl::GraphArena arena;
    const gtdl::CsrGraph csr = gtdl::lower_to_csr(*merged.graph, arena);
    deadlock = csr.find_cycle().has_value() || !csr.unspawned_touches().empty();
  }
  {
    Span span(kTjValidate);
    const gtdl::Trace trace = gtdl::trace_with_init(*merged.graph, merged.root);
    joins = {gtdl::check_transitive_joins(trace).valid ? 'V' : 'I',
             gtdl::check_known_joins(trace).valid ? 'V' : 'I'};
  }
  return deadlock ? 1 : 0;
}

}  // namespace

Manifest ingest_setup(const SetupContext& ctx) {
  Rng rng(derive(ctx.seed, 4));
  Manifest m;
  Digest content;
  // Every cell of (size, shape, fault): a log grid of sizes over 1k..6k
  // records, each jittered by +-1%, in both shapes, with no fault, a
  // cycle, or an unspawned touch — so every seed has the same mix. The
  // range stops at 6k because the TJ check grows about cubically: a
  // 6k-record set takes ~0.3 s end to end, a 30k one ~10 s, so the
  // 30k..150k sizes of the merge-only E14 numbers do not fit a run
  // (README.md, "Findings").
  const unsigned strata = ctx.smoke ? 2 : 6;
  const double lo = 1000, hi = ctx.smoke ? 3000 : 6000;
  std::size_t set = 0;
  for (unsigned i = 0; i < strata; ++i) {
    const double grid =
        lo * std::pow(hi / lo, static_cast<double>(i) / (strata - 1));
    for (const bool wide : {true, false}) {
      for (const Fault fault :
           {Fault::kNone, Fault::kCycle, Fault::kUnspawned}) {
        const auto target =
            static_cast<unsigned>(grid * (0.99 + 0.02 * rng.unit()));
        const std::string base = ctx.work_dir + "/set" + std::to_string(set);
        std::size_t records = 0;
        if (wide) {
          const auto side = static_cast<std::size_t>(
              std::max(2.0, std::sqrt(target / 3.0)));
          records = write_wide(ctx, base, side, side, fault);
        } else {
          records = write_chain(ctx, base, std::max(2u, target / 3), fault);
        }
        ctx.io([&] {
          for (unsigned s = 0; s < kShards; ++s) {
            content.add(read_file(base + "." + std::to_string(s) + ".json"));
          }
        });
        m.add({"F", base + ".*.json", fault == Fault::kNone ? "A" : "R",
               std::to_string(records),
               std::string(wide ? "wide" : "chain") +
                   ":records=" + std::to_string(records) +
                   ":fault=" + fault_name(fault),
               expected_joins(fault)});
        ++set;
      }
    }
  }
  m.add({"H", content.hex()});
  add_passes(m, rng, set,
             script_length(kSetsPerSecond, ctx.seconds, ctx.smoke));
  return m;
}

RunResult ingest_measure(const Manifest& manifest, const ScriptPart& part,
                         bool traced) {
  std::vector<const std::vector<std::string>*> sets;
  std::vector<std::size_t> script;
  for (const auto& row : manifest.rows) {
    if (row[0] == "F") sets.push_back(&row);
    if (row[0] == "S") script.push_back(std::stoul(row[1]));
  }
  const auto pass = [&](std::size_t i, bool traced) {
    const auto& row = *sets[script[i]];
    const std::string& pattern = row[kPath];
    ItemReport report;
    ItemResult& item = report.item;
    item.verdicts = 1;
    item.records = std::stoull(row[kRecords]);
    int code = 2;
    std::string joins;
    if (!traced) {
      const double t0 = now_ms();
      const gtdl::ingest::IngestReport set =
          gtdl::ingest::ingest_dump_set(pattern);
      item.wall_ms = now_ms() - t0;
      code = set.exit_code;
      joins = report_joins(set.text);
    } else {
      ItemTrace trace;
      const double t0 = now_ms();
      {
        Recording recording(trace.layers);
        code = traced_set(pattern, joins);
      }
      trace.wall_ms = trace.capacity_ms = item.wall_ms = now_ms() - t0;
      report.traces.push_back(trace);
      report.counters["merged_records"] = static_cast<double>(item.records);
    }
    report.verdicts = std::to_string(code) + joins;
    const char expected = row[kExpect][0];
    const std::string& expected_tj_kj = row[kJoins];
    if (code == 3) {
      ++item.unknowns;
      item.ok = false;
    } else if (!outcome_ok(expected, code) || joins != expected_tj_kj) {
      item.ok = false;
      item.wrong = true;
      item.detail = "item " + std::to_string(i) + " " + row[kTag] +
                    ": expected " + expected + " TJ/KJ " + expected_tj_kj +
                    " got exit " + std::to_string(code) + " TJ/KJ " + joins;
    }
    return report;
  };
  Aggregate aggregate =
      run_items(part, script.size(), traced, pass,
                [&](std::size_t i) { return (*sets[script[i]])[kTag]; });
  const double untraced_ms = aggregate.untraced_ms;
  RunResult result = finish(aggregate, traced);
  result.pass_length = sets.size();
  if (traced) {
    auto& out = result.layer;
    const double n = result.items.empty() ? 1.0 : result.items.size();
    // ingest_dump_set's own remainder — report rendering and glue: the
    // part of the untraced call's mean time the three sub-layer calls of
    // the traced pass do not explain.
    out["ingest.render_ms"] =
        std::max(0.0, untraced_ms / n - out["ingest.merge_ms"] -
                          out["graph.scan_ms"] - out["tj.validate_ms"]);
    out["ingest.merge_records_per_s"] =
        out["ingest.merge_ms"] > 0
            ? out["merged_records"] / (out["ingest.merge_ms"] * n) * 1000.0
            : 0;
  }
  return result;
}

}  // namespace pb
