// baseline_unroll — fdlc --gtype-file --baseline --unrolls k. Streaming
// Norm_n, the CSR scan and the memo tables do the work; the FutLang and
// MiniML frontends are never entered.
#include <cctype>
#include <tuple>

#include "gtdl/detect/counterexample.hpp"
#include "gtdl/detect/deadlock.hpp"
#include "gtdl/detect/gml_baseline.hpp"
#include "gtdl/detect/new_push.hpp"
#include "gtdl/gtype/gtype.hpp"
#include "gtdl/gtype/intern.hpp"
#include "gtdl/gtype/normalize.hpp"
#include "gtdl/gtype/parse.hpp"
#include "gtdl/gtype/wellformed.hpp"
#include "gtdl/par/corpus.hpp"
#include "gtdl/par/engine.hpp"
#include "gtdl/par/stream_scan.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

// Graph types per second of --seconds on the reference machine.
constexpr double kTypesPerSecond = 430;
// Manifest column of the expected baseline outcome and the unroll bound.
constexpr std::size_t kBaselineExpect = 5, kUnrolls = 6;

// Prefixes every identifier of a printed graph type (vertex and graph
// variable names alike), leaving keywords alone: an alpha-renaming, so
// the verdicts cannot change with the seed but the text does.
std::string rename(const std::string& text, const std::string& prefix) {
  static const char* const kKeywords[] = {"rec", "new", "pi", "vec",
                                          "touchall", "touchidx"};
  std::string out;
  for (std::size_t i = 0; i < text.size();) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (!std::isalpha(c) && c != '_') {
      out += text[i++];
      continue;
    }
    std::size_t end = i;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) ||
            text[end] == '_' || text[end] == '$' || text[end] == '\'' ||
            text[end] == '@')) {
      ++end;
    }
    const std::string word = text.substr(i, end - i);
    bool keyword = false;
    for (const char* k : kKeywords) keyword = keyword || word == k;
    out += keyword ? word : prefix + word;
    i = end;
  }
  return out;
}

// new v1..vn, u. (1 | 1/v1) ; ... ; (1 | 1/vn) ; ~u ; 1/u — every one of
// the 2^n graphs touches u before spawning it, so the baseline reports a
// deadlock at any unroll bound and the kind system rejects it.
gtdl::GTypePtr alternation_deadlock(unsigned n) {
  std::vector<gtdl::Symbol> binders;
  std::vector<gtdl::GTypePtr> parts;
  for (unsigned i = 1; i <= n; ++i) {
    binders.push_back(gtdl::Symbol::intern("v" + std::to_string(i)));
    parts.push_back(gtdl::gt::alt(gtdl::gt::empty(),
                                  gtdl::gt::spawn(gtdl::gt::empty(),
                                                  binders.back())));
  }
  const gtdl::Symbol u = gtdl::Symbol::intern("u");
  binders.push_back(u);
  parts.push_back(gtdl::gt::touch(u));
  parts.push_back(gtdl::gt::spawn(gtdl::gt::empty(), u));
  return gtdl::gt::nu_all(binders, gtdl::gt::seq_all(std::move(parts)));
}

// new u, v1..vn. 1/u ; (1 | 1/v1) ; ... ; (1 | 1/vn) ; ~u — u is spawned
// before its touch and each v_i at most once, so none of the 2^n graphs
// deadlocks: the baseline must scan them all and report deadlock-free,
// and the kind system accepts.
gtdl::GTypePtr alternation_free(unsigned n) {
  std::vector<gtdl::Symbol> binders;
  std::vector<gtdl::GTypePtr> parts;
  const gtdl::Symbol u = gtdl::Symbol::intern("u");
  binders.push_back(u);
  parts.push_back(gtdl::gt::spawn(gtdl::gt::empty(), u));
  for (unsigned i = 1; i <= n; ++i) {
    binders.push_back(gtdl::Symbol::intern("v" + std::to_string(i)));
    parts.push_back(gtdl::gt::alt(gtdl::gt::empty(),
                                  gtdl::gt::spawn(gtdl::gt::empty(),
                                                  binders.back())));
  }
  parts.push_back(gtdl::gt::touch(u));
  return gtdl::gt::nu_all(binders, gtdl::gt::seq_all(std::move(parts)));
}

struct PoolType {
  std::string text;
  char df_expected;        // kind system: 'A' / 'R'
  char baseline_expected;  // 'D' reports deadlock, 'F' deadlock-free
  unsigned unrolls;
  std::string tag;
};

std::vector<PoolType> make_pool(bool smoke) {
  std::vector<PoolType> pool;
  // §3 family: member m deadlocks, so the kind system rejects it; the
  // baseline finds the cycle only once k >= m + 2 recursive-call
  // unrollings (counterexample.hpp), which is the refutation.
  for (unsigned m = 1; m <= (smoke ? 2u : 6u); ++m) {
    const std::string text = gtdl::to_string(gtdl::counterexample_gtype(m));
    for (unsigned k = 2; k <= 8; ++k) {
      pool.push_back({text, 'R', k >= m + 2 ? 'D' : 'F', k,
                      "sec3:m=" + std::to_string(m) +
                          ":k=" + std::to_string(k)});
    }
  }
  for (unsigned n = 8; n <= (smoke ? 8u : 12u); ++n) {
    pool.push_back({gtdl::to_string(alternation_deadlock(n)), 'R', 'D', 2,
                    "alt_deadlock:n=" + std::to_string(n)});
  }
  for (unsigned n = 6; n <= (smoke ? 6u : 11u); ++n) {
    pool.push_back({gtdl::to_string(alternation_free(n)), 'A', 'F', 2,
                    "alt_free:n=" + std::to_string(n)});
  }
  return pool;
}

gtdl::CorpusOptions baseline_options(unsigned unrolls) {
  gtdl::CorpusOptions options;
  options.baseline = true;
  options.unrolls = unrolls;
  return options;
}

// The baseline outcome fdlc printed: 'D', 'F', 'U' (unknown) or '?'.
char baseline_outcome(const std::string& report) {
  const std::size_t line = report.find("gml baseline (");
  if (line == std::string::npos) return '?';
  const std::string rest = report.substr(line, report.find('\n', line) - line);
  if (rest.find("UNKNOWN") != std::string::npos) return 'U';
  if (rest.find("reports deadlock-free") != std::string::npos) return 'F';
  if (rest.find("reports deadlock") != std::string::npos) return 'D';
  return '?';
}

struct TracedCounts {
  std::uint64_t graphs = 0, steps = 0, peak = 0, checked = 0, useful = 0;
};

// fdlc's single-file pipeline for a .gt input with --baseline, one public
// call per layer: parse, WF, new pushing, DF, then the baseline's unroll,
// streamed enumeration and batched scan (gml_baseline_check's parts).
// Returns {exit code, baseline outcome}.
std::pair<int, char> traced_type(const std::string& path, unsigned unrolls,
                                 TracedCounts& counts) {
  const std::string source = read_file(path);
  gtdl::DiagnosticEngine diags;
  gtdl::GTypePtr g;
  {
    Span span(kGtypeParse);
    g = gtdl::parse_gtype(source, diags);
  }
  if (g == nullptr) return {2, '?'};
  gtdl::WellformedResult wf;
  {
    Span span(kGtypeWellformed);
    wf = gtdl::check_wellformed(g);
  }
  if (!wf.ok) return {1, '?'};
  gtdl::GTypePtr pushed;
  {
    Span span(kDetectNewPush);
    pushed = gtdl::push_new_bindings(g);
  }
  gtdl::DetectOptions detect;
  detect.require_wellformed = false;
  detect.new_pushing = false;
  bool accepted = false;
  {
    Span span(kDetectDf);
    accepted = gtdl::check_deadlock_freedom(pushed, detect).deadlock_free;
  }

  const gtdl::GmlBaselineOptions defaults;
  gtdl::GTypePtr expanded;
  {
    Span span(kGtypeUnroll);
    expanded = gtdl::expand_recursion(g, unrolls);
  }
  gtdl::GroundDeadlockScanner::Options scan_options;
  scan_options.batch_size = defaults.scan_batch;
  gtdl::GroundDeadlockScanner scanner(scan_options);
  // The graphs of the scanner's current batch, to locate the first
  // witness inside it.
  std::vector<gtdl::GraphExprPtr> batch;
  std::size_t batch_start = 0;
  gtdl::StreamStats stats;
  {
    Span span(kGtypeEnumerate);
    stats = gtdl::for_each_graph(
        expanded, 1, defaults.limits, [&](const gtdl::GraphExprPtr& graph) {
          if (batch.size() == defaults.scan_batch) {
            batch_start += batch.size();
            batch.clear();
          }
          batch.push_back(graph);
          Span scan(kGraphScan);
          return scanner.push(graph);
        });
    Span scan(kGraphScan);
    scanner.finish();
  }
  counts.graphs += stats.emitted;
  counts.steps += stats.steps;
  counts.peak = std::max<std::uint64_t>(counts.peak, stats.peak_materialized);
  counts.checked += scanner.pushed();
  std::size_t useful = scanner.pushed();
  if (scanner.found()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i] == scanner.offending_graph()) useful = batch_start + i + 1;
    }
  }
  counts.useful += useful;
  return {accepted ? 0 : 1, scanner.found() ? 'D' : 'F'};
}

}  // namespace

Manifest baseline_setup(const SetupContext& ctx) {
  const std::vector<PoolType> pool = make_pool(ctx.smoke);
  Rng rng(derive(ctx.seed, 2));
  Manifest m;
  Digest content;
  // One file per pool entry, its names renamed by the seed.
  for (std::size_t j = 0; j < pool.size(); ++j) {
    const PoolType& type = pool[j];
    const std::string prefix =
        "s" + std::to_string(rng.below(1u << 30)) + "_";
    const std::string text = rename(type.text, prefix) + "\n";
    const std::string path = ctx.work_dir + "/g" + std::to_string(j) + ".gt";
    ctx.write(path, text);
    content.add(text);
    m.add({"F", path, std::string(1, type.df_expected),
           std::to_string(count_lines(text)), type.tag + ":prefix=" + prefix,
           std::string(1, type.baseline_expected),
           std::to_string(type.unrolls)});
  }
  m.add({"H", content.hex()});
  add_passes(m, rng, pool.size(),
             script_length(kTypesPerSecond, ctx.seconds, ctx.smoke));
  return m;
}

RunResult baseline_measure(const Manifest& manifest, const ScriptPart& part,
                           bool traced) {
  std::vector<const std::vector<std::string>*> files;
  std::vector<std::size_t> script;
  for (const auto& row : manifest.rows) {
    if (row[0] == "F") files.push_back(&row);
    if (row[0] == "S") script.push_back(std::stoul(row[1]));
  }
  const auto pass = [&](std::size_t i, bool traced) {
    const auto& row = *files[script[i]];
    const std::string& path = row[kPath];
    const auto unrolls = static_cast<unsigned>(std::stoul(row[kUnrolls]));
    ItemReport report;
    ItemResult& item = report.item;
    item.verdicts = 1;
    item.records = std::stoull(row[kRecords]);
    int code = 2;
    char baseline = '?';
    if (!traced) {
      gtdl::Engine engine(1);  // fdlc's default --jobs 1
      const double t0 = now_ms();
      const gtdl::FileReport file =
          gtdl::analyze_file(path, baseline_options(unrolls), &engine);
      item.wall_ms = now_ms() - t0;
      code = file.exit_code;
      baseline = baseline_outcome(file.text);
    } else {
      auto& interner = gtdl::GTypeInterner::instance();
      const auto before = interner.stats();
      ItemTrace trace;
      TracedCounts counts;
      const double t0 = now_ms();
      {
        Recording recording(trace.layers);
        std::tie(code, baseline) = traced_type(path, unrolls, counts);
      }
      trace.wall_ms = trace.capacity_ms = item.wall_ms = now_ms() - t0;
      report.traces.push_back(trace);
      const auto after = interner.stats();
      auto& c = report.counters;
      const auto delta = [&](const char* name, std::uint64_t a,
                             std::uint64_t b) {
        c[name] = static_cast<double>(b - a);
      };
      delta("intern_hits", before.intern_hits, after.intern_hits);
      delta("gtype.intern.misses", before.intern_misses, after.intern_misses);
      delta("norm_hits", before.norm_memo_hits, after.norm_memo_hits);
      delta("norm_misses", before.norm_memo_misses, after.norm_memo_misses);
      delta("unroll_hits", before.unroll_hits, after.unroll_hits);
      delta("unroll_misses", before.unroll_misses, after.unroll_misses);
      delta("subst_hits", before.subst_memo_hits, after.subst_memo_hits);
      delta("subst_misses", before.subst_memo_misses, after.subst_memo_misses);
      c["gtype.enumerate.graphs"] = static_cast<double>(counts.graphs);
      c["gtype.enumerate.steps"] = static_cast<double>(counts.steps);
      c["gtype.enumerate.peak_materialized"] = static_cast<double>(counts.peak);
      c["scan_checked"] = static_cast<double>(counts.checked);
      c["scan_useful"] = static_cast<double>(counts.useful);
    }
    report.verdicts = std::to_string(code) + baseline;
    const char df_expected = row[kExpect][0];
    const char baseline_expected = row[kBaselineExpect][0];
    if (baseline == 'U' || code == 3) {
      ++item.unknowns;
      item.ok = false;
    } else if (!outcome_ok(df_expected, code) ||
               baseline != baseline_expected) {
      item.ok = false;
      item.wrong = true;
      item.detail = "item " + std::to_string(i) + " " + row[kTag] +
                    ": expected " + df_expected + "/" + baseline_expected +
                    " got exit " + std::to_string(code) + "/" + baseline;
    }
    return report;
  };
  Aggregate aggregate =
      run_items(part, script.size(), traced, pass,
                [&](std::size_t i) { return (*files[script[i]])[kTag]; });
  RunResult result = finish(aggregate, traced);
  result.pass_length = files.size();
  if (traced) {
    auto& out = result.layer;
    out["detect.gml.scan_useful_ratio"] =
        ratio(out["scan_useful"], out["scan_checked"] - out["scan_useful"]);
    out["gtype.intern.hit_ratio"] =
        ratio(out["intern_hits"], out["gtype.intern.misses"]);
    out["gtype.norm.memo_hit_ratio"] =
        ratio(out["norm_hits"], out["norm_misses"]);
    out["gtype.unroll.hit_ratio"] =
        ratio(out["unroll_hits"], out["unroll_misses"]);
    out["gtype.subst.memo_hit_ratio"] =
        ratio(out["subst_hits"], out["subst_misses"]);
  }
  return result;
}

}  // namespace pb
