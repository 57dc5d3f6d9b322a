// check_corpus — the fdlc corpus path. Inference dominates here; the
// normalizer and the graph scanner are never entered.
#include <cmath>
#include <optional>

#include "gtdl/detect/counterexample.hpp"
#include "gtdl/detect/deadlock.hpp"
#include "gtdl/detect/new_push.hpp"
#include "gtdl/frontend/driver.hpp"
#include "gtdl/frontend/interp.hpp"
#include "gtdl/frontend/parser.hpp"
#include "gtdl/frontend/typecheck.hpp"
#include "gtdl/fuzz/random_program.hpp"
#include "gtdl/gtype/intern.hpp"
#include "gtdl/gtype/wellformed.hpp"
#include "gtdl/mml/driver.hpp"
#include "gtdl/par/corpus.hpp"
#include "gtdl/par/engine.hpp"
#include "gtdl/par/thread_pool.hpp"
#include "gtdl/support/budget.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr unsigned kJobs = 2;
// Deterministic per-file step budget (fdlc --budget-steps). Far above
// what any generated file needs, so a trip means the analysis got
// pathologically slower, and it shows as an unknown, never as a timing.
constexpr std::uint64_t kStepBudget = 50'000'000;
// File batches per second of --seconds on the reference machine.
constexpr double kBatchesPerSecond = 300;
constexpr unsigned kInterpRuns = 3;

// The in-repo example programs (pinned copies under perfbench/inputs)
// with their ground truth: Table 1 of the paper for the six §5 programs
// and their MiniML ports, E12 for the collection programs.
struct Example {
  const char* file;
  char expected;
  const char* source;  // where the expectation comes from
};
constexpr Example kExamples[] = {
    {"fibonacci.fut", 'A', "table1"},  {"fib_dl.fut", 'R', "table1"},
    {"pipeline.fut", 'A', "table1"},   {"counterex.fut", 'R', "table1"},
    {"webserver.fut", 'A', "table1"},  {"webserver_dl.fut", 'R', "table1"},
    {"fibonacci.mml", 'A', "table1"},  {"fib_dl.mml", 'R', "table1"},
    {"pipeline.mml", 'A', "table1"},   {"counterex.mml", 'R', "table1"},
    {"vec_reduce.fut", 'A', "e12"},    {"vec_indexed.fut", 'A', "e12"},
    {"vec_pipeline.fut", 'A', "e12"},  {"pipeline_buffer.fut", 'A', "e12"},
    {"pipeline_source.fut", 'A', "e12"}, {"vec_skip_dl.fut", 'R', "e12"},
    {"pipeline_dl.fut", 'R', "e12"},
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::string_view sv(suffix);
  return s.size() >= sv.size() &&
         s.compare(s.size() - sv.size(), sv.size(), sv) == 0;
}

gtdl::CorpusOptions corpus_options() {
  gtdl::CorpusOptions options;
  options.jobs = kJobs;
  options.budget_steps = kStepBudget;
  return options;
}

// The fdlc per-file pipeline, one public call per layer, each under a
// span. Returns the fdlc exit code.
int traced_file(const std::string& path, unsigned& mycroft_rounds) {
  const std::string source = read_file(path);
  gtdl::DiagnosticEngine diags;
  gtdl::InferOptions infer_options;
  infer_options.max_signature_iterations = corpus_options().max_iters;
  gtdl::GTypePtr g;
  if (ends_with(path, ".mml")) {
    Span span(kMmlCompile);
    auto compiled = gtdl::mml::compile_mml(source, diags, infer_options);
    if (!compiled) return 2;
    g = compiled->inferred.program_gtype;
  } else {
    std::optional<gtdl::Program> program;
    {
      Span span(kFrontendParse);
      program = gtdl::parse_program(source, diags);
    }
    if (!program) return 2;
    bool typed = false;
    {
      Span span(kFrontendTypecheck);
      typed = gtdl::typecheck_program(*program, diags);
    }
    if (!typed) return 2;
    std::optional<gtdl::InferredProgram> inferred;
    {
      Span span(kFrontendInfer);
      inferred = gtdl::infer_graph_types(*program, diags, infer_options);
    }
    if (!inferred) return 2;
    for (const auto& [name, info] : inferred->functions) {
      mycroft_rounds += info.iterations;
    }
    g = inferred->program_gtype;
  }
  gtdl::Budget::Limits limits;
  limits.max_steps = kStepBudget;
  gtdl::Budget budget(limits);
  gtdl::WellformedResult wf;
  {
    Span span(kGtypeWellformed);
    wf = gtdl::check_wellformed(g, &budget);
  }
  if (wf.budget_exhausted) return 3;
  if (!wf.ok) return 1;
  gtdl::GTypePtr pushed;
  {
    Span span(kDetectNewPush);
    pushed = gtdl::push_new_bindings(g);
  }
  gtdl::DetectOptions detect;
  detect.require_wellformed = false;
  detect.new_pushing = false;
  detect.budget = &budget;
  gtdl::DeadlockVerdict verdict;
  {
    Span span(kDetectDf);
    verdict = gtdl::check_deadlock_freedom(pushed, detect);
  }
  if (verdict.verdict == gtdl::Verdict::kUnknown) return 3;
  return verdict.deadlock_free ? 0 : 1;
}

struct PoolFile {
  std::string path;
  char expected;
  std::uint64_t records;
  std::string tag;
};

std::vector<PoolFile> load_pool(const Manifest& m) {
  std::vector<PoolFile> pool;
  for (const auto& row : m.rows) {
    if (row[0] == "F") {
      pool.push_back({row[kPath], row[kExpect][0],
                      std::stoull(row[kRecords]), row[kTag]});
    }
  }
  return pool;
}

std::vector<std::vector<std::size_t>> load_script(const Manifest& m) {
  std::vector<std::vector<std::size_t>> script;
  for (const auto& row : m.rows) {
    if (row[0] != "S") continue;
    std::vector<std::size_t> batch;
    for (const std::string& i : split(row[1], ',')) {
      batch.push_back(std::stoul(i));
    }
    script.push_back(std::move(batch));
  }
  return script;
}

// Checks one batch's exit codes against the pool expectations.
void judge(const std::vector<PoolFile>& pool,
           const std::vector<std::size_t>& batch,
           const std::vector<int>& codes, ItemResult& item,
           std::string& verdicts) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PoolFile& file = pool[batch[i]];
    const int code = codes[i];
    verdicts += std::to_string(code);
    ++item.verdicts;
    item.records += file.records;
    if (code == 3) {
      ++item.unknowns;
      item.ok = false;
    } else if (!outcome_ok(file.expected, code)) {
      item.ok = false;
      item.wrong = true;
      if (item.detail.size() < 400) {
        item.detail += file.tag + " expected " + file.expected + " got exit " +
                       std::to_string(code) + "; ";
      }
    }
  }
}

}  // namespace

std::string chain_program(unsigned stages) {
  std::string src =
      "fun h1() -> int {\n"
      "  let u = new_future[int]();\n"
      "  spawn u { return 1; }\n"
      "  return touch(u);\n"
      "}\n";
  for (unsigned k = 2; k <= stages; ++k) {
    src += "fun h" + std::to_string(k) +
           "() -> int {\n"
           "  let u = new_future[int]();\n"
           "  spawn u { return h" +
           std::to_string(k - 1) +
           "() + 1; }\n"
           "  return touch(u);\n"
           "}\n";
  }
  return src + "fun main() {\n  print(int_to_string(h" +
         std::to_string(stages) + "()));\n}\n";
}

std::string chain_program_deadlock(unsigned stages) {
  std::string src = chain_program(stages);
  const std::string good =
      "  spawn u { return 1; }\n"
      "  return touch(u);\n";
  const std::string bad =
      "  let early = touch(u);\n"
      "  spawn u { return 1; }\n"
      "  return early;\n";
  src.replace(src.find(good), good.size(), bad);
  return src;
}

unsigned stratified_size(Rng& rng, unsigned lo, unsigned hi, unsigned i,
                         unsigned n) {
  const double span = std::log(static_cast<double>(hi) / lo);
  const double x = (static_cast<double>(i) + rng.unit()) / n;
  const auto size =
      static_cast<unsigned>(std::lround(lo * std::exp(span * x)));
  return std::min(hi, std::max(lo, size));
}

Manifest corpus_setup(const SetupContext& ctx) {
  Manifest m;
  Digest content;
  Rng rng(derive(ctx.seed, 1));
  const auto add = [&](const std::string& name, const std::string& text,
                       char expected, const std::string& tag) {
    const std::string path = ctx.work_dir + "/" + name;
    ctx.write(path, text);
    content.add(name);
    content.add(text);
    m.add({"F", path, std::string(1, expected),
           std::to_string(count_lines(text)), tag});
  };
  for (const Example& ex : kExamples) {
    add(std::string("ex_") + ex.file,
        read_file(ctx.inputs_dir + "/" + ex.file), ex.expected,
        std::string(ex.source) + ":" + ex.file);
  }
  const unsigned chains = ctx.smoke ? 3 : 24;
  for (unsigned i = 0; i < chains; ++i) {
    const unsigned n = stratified_size(rng, 8, 256, i, chains);
    add("chain_" + std::to_string(i) + ".fut", chain_program(n), 'A',
        "chain:stages=" + std::to_string(n));
  }
  // Random programs: expectation '?' until the interpreter oracle runs.
  const unsigned randoms = ctx.smoke ? 4 : 64;
  for (unsigned collections = 0; collections < 2; ++collections) {
    for (unsigned i = 0; i < randoms; ++i) {
      const std::uint64_t seed = derive(ctx.seed, 1000 + 2 * i + collections);
      gtdl::fuzz::RandomProgram gen(seed, collections != 0);
      add("random_" + std::to_string(collections) + "_" + std::to_string(i) +
              ".fut",
          gen.generate(), '?',
          "random:seed=" + std::to_string(seed) +
              ":collections=" + std::to_string(collections));
    }
  }
  // §3 family as FutLang: m = 1 deadlocks by construction; m >= 2 fails
  // GML-faithful inference (paper footnote 3).
  for (unsigned mm = 1; mm <= (ctx.smoke ? 2u : 4u); ++mm) {
    add("sec3_m" + std::to_string(mm) + ".fut",
        gtdl::counterexample_futlang(mm), mm == 1 ? 'R' : 'E',
        "sec3:m=" + std::to_string(mm));
  }
  m.add({"H", content.hex()});

  std::size_t pool = 0;
  for (const auto& row : m.rows) pool += row[0] == "F";
  const std::size_t batches = script_length(kBatchesPerSecond, ctx.seconds,
                                            ctx.smoke);
  for (std::size_t b = 0; b < batches; ++b) {
    const unsigned size = 1 + rng.below(16);
    std::string batch;
    for (unsigned i = 0; i < size; ++i) {
      if (i != 0) batch += ',';
      batch += std::to_string(rng.below(static_cast<unsigned>(pool)));
    }
    m.add({"S", batch});
  }
  return m;
}

void corpus_oracle(Manifest& manifest) {
  for (auto& row : manifest.rows) {
    if (row[0] != "F" || row[kExpect] != "?") continue;
    // Ground truth from the FutLang interpreter: a deadlock in any of a
    // few seeded executions forbids an accept; otherwise either definite
    // verdict is acceptable (rejecting a program no run deadlocks is
    // imprecision, not a wrong answer).
    const std::string source = read_file(row[kPath]);
    const std::uint64_t seed = std::stoull(split(row[kTag], '=')[1]);
    gtdl::DiagnosticEngine diags;
    const auto compiled = gtdl::compile_futlang(source, diags);
    char expected = '*';
    if (compiled) {
      for (unsigned run = 0; run < kInterpRuns; ++run) {
        gtdl::InterpOptions options;
        options.seed = derive(seed, run);
        if (gtdl::interpret(compiled->program, options).deadlock) {
          expected = 'N';
          break;
        }
      }
    }
    row[kExpect] = std::string(1, expected);
  }
}

RunResult corpus_measure(const Manifest& manifest, const ScriptPart& part,
                         bool traced) {
  const std::vector<PoolFile> pool = load_pool(manifest);
  const auto script = load_script(manifest);
  const auto pass = [&](std::size_t b, bool traced) {
    const auto& batch = script[b];
    std::vector<std::string> paths;
    for (const std::size_t i : batch) paths.push_back(pool[i].path);
    std::vector<int> codes(batch.size());
    ItemReport report;
    if (!traced) {
      const double t0 = now_ms();
      const gtdl::CorpusReport corpus =
          gtdl::drive_corpus(paths, corpus_options());
      report.item.wall_ms = now_ms() - t0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        codes[i] = corpus.files[i].exit_code;
      }
    } else {
      // The same batch through the decomposed pipeline: one task per
      // file on a jobs-wide pool, as drive_corpus schedules them.
      gtdl::Engine engine(kJobs);
      std::vector<LayerTimes> per_file(batch.size());
      std::vector<double> window(batch.size());
      std::vector<unsigned> rounds(batch.size());
      auto& interner = gtdl::GTypeInterner::instance();
      const auto before = interner.stats();
      const double t0 = now_ms();
      {
        gtdl::TaskGroup group(*engine.pool());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          group.run([&, i] {
            // Each task writes only its own slots; summed after wait().
            Recording recording(per_file[i]);
            const double f0 = now_ms();
            codes[i] = traced_file(paths[i], rounds[i]);
            window[i] = now_ms() - f0;
          });
        }
        group.wait();
      }
      const double wall = now_ms() - t0;
      const auto after = interner.stats();
      ItemTrace trace;
      trace.wall_ms = wall;
      trace.capacity_ms = kJobs * wall;
      double busy = 0;
      auto& c = report.counters;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        trace.layers.add(per_file[i]);
        busy += window[i];
        c["frontend.infer.mycroft_rounds"] += rounds[i];
        c["files"] += 1;
        c["unknown_files"] += codes[i] == 3;
      }
      trace.idle_ms = trace.capacity_ms - busy;
      c["busy_ms"] = busy;
      c["capacity_ms"] = trace.capacity_ms;
      c["gtype.intern.misses"] =
          static_cast<double>(after.intern_misses - before.intern_misses);
      c["intern_hits"] =
          static_cast<double>(after.intern_hits - before.intern_hits);
      report.traces.push_back(trace);
      report.item.wall_ms = wall;
    }
    judge(pool, batch, codes, report.item, report.verdicts);
    if (!report.item.detail.empty()) {
      report.item.detail = "batch " + std::to_string(b) + ": " +
                           report.item.detail;
    }
    return report;
  };
  const auto describe = [&](std::size_t b) {
    std::string tags = "(batch of";
    for (const std::size_t i : script[b]) tags += " " + pool[i].tag;
    return tags + ")";
  };
  Aggregate aggregate = run_items(part, script.size(), traced, pass, describe);
  RunResult result = finish(aggregate, traced);
  if (traced) {
    auto& out = result.layer;
    out["par.busy_ratio"] =
        ratio(out["busy_ms"], out["capacity_ms"] - out["busy_ms"]);
    out["gtype.intern.hit_ratio"] =
        ratio(out["intern_hits"], out["gtype.intern.misses"]);
    out["support.budget.unknown_ratio"] =
        ratio(out["unknown_files"], out["files"] - out["unknown_files"]);
  }
  return result;
}

}  // namespace pb
