// gtdl_perfbench — the repository's end-to-end benchmark harness.
//
//   gtdl_perfbench --workload W --seed N --seconds S --trace 0|1
//                  --inputs DIR --work DIR --fdld PATH [--smoke] [--flip]
//
// Generates the workload's inputs from the seed (timed as setup_s),
// attaches expectations from sources other than the program, runs a
// fixed script of items in a fresh process (or against a live fdld), and
// prints a summary followed by one JSON line with the metrics. With
// --trace 0 those are the end-to-end metrics; with --trace 1 the
// per-layer breakdown. perfbench/run.py builds this harness and calls it.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <thread>

#include "workloads.hpp"

extern char** environ;

namespace {

using namespace pb;
namespace fs = std::filesystem;

struct Args {
  std::string workload, phase = "run", inputs, work, fdld;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false, smoke = false, flip = false;
  ScriptPart part;  // the measure phase's share of the script
};

struct Workload {
  const char* name;
  Manifest (*setup)(const SetupContext&);
  RunResult (*measure)(const Manifest&, const ScriptPart&, bool traced);
};
constexpr Workload kWorkloads[] = {
    {"check_corpus", corpus_setup, corpus_measure},
    {"baseline_unroll", baseline_setup, baseline_measure},
    {"ingest_sets", ingest_setup, ingest_measure},
    {"daemon_edits", nullptr, nullptr},
};

// Every per-layer metric the benchmark defines (BENCHMARK.json). A traced
// run prints all of them; a layer the workload leaves idle reads 0.
const char* const kPerLayer[] = {
    "frontend.parse_ms", "frontend.typecheck_ms", "frontend.infer_ms",
    "frontend.infer.mycroft_rounds", "mml.compile_ms", "gtype.parse_ms",
    "gtype.wellformed_ms", "gtype.unroll_ms", "gtype.enumerate_ms",
    "gtype.enumerate.graphs", "gtype.enumerate.steps",
    "gtype.enumerate.peak_materialized", "gtype.intern.misses",
    "gtype.intern.hit_ratio", "gtype.intern.nodes",
    "gtype.norm.memo_hit_ratio", "gtype.unroll.hit_ratio",
    "gtype.subst.memo_hit_ratio", "detect.new_push_ms", "detect.df_ms",
    "detect.gml.scan_useful_ratio", "graph.scan_ms", "par.busy_ratio",
    "par.idle_ms", "support.budget.unknown_ratio", "service.replay_ms",
    "service.edit_ms", "daemon.transport_ms", "service.cache.hit_ratio",
    "service.cache.invalidated", "service.cache.evictions",
    "ingest.merge_ms", "ingest.merge_records_per_s", "ingest.render_ms",
    "tj.validate_ms", "trace.wall_ms", "trace.unattributed_ms",
    "trace.overhead_ratio"};

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::string suffix(s);
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_per_s")) return "1/s";
  if (ends("_ratio")) return "ratio";
  return "count";
}

// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string json_metrics(
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
        metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           number(metrics[i].second.first) + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  return out + "}";
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") args.workload = value();
    else if (arg == "--seed") args.seed = std::stoull(value());
    else if (arg == "--seconds") args.seconds = std::stod(value());
    else if (arg == "--trace") args.traced = value() == "1";
    else if (arg == "--phase") args.phase = value();
    else if (arg == "--inputs") args.inputs = value();
    else if (arg == "--work") args.work = value();
    else if (arg == "--fdld") args.fdld = value();
    else if (arg == "--from") args.part.first = std::stoull(value());
    else if (arg == "--to") args.part.last = std::stoull(value());
    else if (arg == "--digest")
      args.part.digest = std::stoull(value(), nullptr, 16);
    else if (arg == "--budget-ms") args.part.budget_ms = std::stod(value());
    else if (arg == "--smoke") args.smoke = true;
    else if (arg == "--flip") args.flip = true;
    else throw std::runtime_error("unknown argument " + arg);
  }
  return !args.workload.empty() && !args.work.empty();
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Runs the measure phase of one script part in a fresh process, so no
// state of the set-up (interned types, symbols, heap) leaks into the
// measured items.
void run_measure_child(const char* self, const Args& args,
                       const ScriptPart& part) {
  std::vector<std::string> words{self,
                                 "--phase",
                                 "measure",
                                 "--workload",
                                 args.workload,
                                 "--work",
                                 args.work,
                                 "--trace",
                                 args.traced ? "1" : "0",
                                 "--from",
                                 std::to_string(part.first),
                                 "--to",
                                 std::to_string(part.last),
                                 "--digest",
                                 Digest{part.digest}.hex(),
                                 "--budget-ms",
                                 number(part.budget_ms)};
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, self, nullptr, nullptr, argv.data(), environ) != 0) {
    throw std::runtime_error("cannot start the measure phase");
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the measure phase failed");
  }
}

// The value of `stat` over the script, taken from up to `max_slices`
// consecutive slices of it. Slices are cut at multiples of `unit` items
// (a whole pass over a workload's pool), so each holds the same mix.
// With `best`, the best slice counts: the lowest for a time, the highest
// for a rate. The reference machine's vCPUs are time-shared: the same
// loop runs up to twice as long on one vCPU as on another, and a slow
// phase lasts seconds. The best slice measures the program rather than
// its neighbours (min-of-N, as the repo's own benches do). Without
// `best`, the median slice counts, for items that are no repeats of each
// other (RunResult::shared_state). A script of fewer than 100 items per
// slice (the smoke size) is one slice.
double over_slices(
    const std::vector<ItemResult>& items, std::size_t unit,
    std::size_t max_slices, bool best, bool higher_is_better,
    const std::function<double(const std::vector<const ItemResult*>&)>& stat) {
  const std::size_t units = items.size() / std::max<std::size_t>(unit, 1);
  std::size_t chunks = std::min(max_slices, units);
  if (unit <= 1 && items.size() < 100 * max_slices) chunks = 1;
  chunks = std::max<std::size_t>(chunks, 1);
  std::vector<double> values;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * units / chunks * unit;
    const std::size_t end =
        c + 1 == chunks ? items.size() : (c + 1) * units / chunks * unit;
    std::vector<const ItemResult*> slice;
    for (std::size_t i = begin; i < end; ++i) slice.push_back(&items[i]);
    values.push_back(stat(slice));
  }
  if (!best) return quantile(values, 0.5);
  return higher_is_better ? *std::max_element(values.begin(), values.end())
                          : *std::min_element(values.begin(), values.end());
}

// Rates and medians take the best of 20 slices; the p99 takes the best of
// 10, so each slice keeps about ten samples or more above its p99. Items
// that share state take the median of 10 slices for every statistic.
constexpr std::size_t kRateSlices = 20, kTailSlices = 10;

// Per-slice statistics for over_slices.
double slice_rate(const std::vector<const ItemResult*>& slice,
                  std::uint64_t ItemResult::*count) {
  double n = 0, ms = 0;
  for (const ItemResult* i : slice) {
    n += static_cast<double>(i->*count);
    ms += i->wall_ms;
  }
  return n / ms * 1000.0;
}
double slice_quantile(const std::vector<const ItemResult*>& slice, double q) {
  std::vector<double> walls;
  for (const ItemResult* i : slice) walls.push_back(i->wall_ms);
  return quantile(walls, q);
}

int orchestrate(const char* self, const Args& args) {
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  SetupContext ctx;
  ctx.work_dir = args.work + "/in";
  ctx.inputs_dir = args.inputs;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.smoke = args.smoke;
  ctx.flip = args.flip;

  std::vector<double> setup_s;
  RunResult result;
  double peak_rss_mb = 0;
  std::string input_digest;
  if (workload->setup == nullptr) {
    DaemonOutcome daemon = daemon_run(ctx, args.fdld, args.traced);
    setup_s = daemon.setup_s;
    result = std::move(daemon.result);
    peak_rss_mb = daemon.peak_rss_mb;
    input_digest = daemon.input_digest;
  } else {
    // Set-up: generate every input from the seed. Each repetition writes
    // the same files again.
    double io_ms = 0;
    ctx.io_ms = &io_ms;
    const auto set_up = [&] {
      fs::remove_all(ctx.work_dir);
      fs::create_directories(ctx.work_dir);
      io_ms = 0;
      const double t0 = now_ms();
      Manifest manifest = workload->setup(ctx);
      setup_s.push_back((now_ms() - t0 - io_ms) / 1000.0);
      return manifest;
    };
    Manifest manifest = set_up();
    // Expectations that need the interpreter: outside setup_s.
    if (std::string(workload->name) == "check_corpus") {
      corpus_oracle(manifest);
    }
    if (ctx.flip) {
      // Invert the expectation of the first input the script uses.
      std::vector<std::vector<std::string>*> inputs;
      std::size_t first = 0;
      for (auto& row : manifest.rows) {
        if (row[0] == "F") inputs.push_back(&row);
      }
      for (const auto& row : manifest.rows) {
        if (row[0] == "S") {
          first = std::stoul(split(row[1], ',')[0]);
          break;
        }
      }
      std::string& expect = (*inputs.at(first))[kExpect];
      expect = std::string(1, flipped(expect[0]));
    }
    // The input digest: every manifest field but the (work-dir dependent)
    // paths; the "H" row carries the generated files' contents.
    Digest digest;
    for (const auto& row : manifest.rows) {
      for (std::size_t f = 0; f < row.size(); ++f) {
        if (row[0] != "F" || f != kPath) digest.add(row[f]);
      }
    }
    input_digest = digest.hex();
    manifest.save(args.work + "/manifest.tsv");

    // The script in parts, with the other set-up repetitions between
    // them; a traced run reports no setup_s and runs it whole.
    std::size_t items = 0;
    for (const auto& row : manifest.rows) items += row[0] == "S";
    const std::size_t parts = args.traced ? 1 : kSetupReps;
    ScriptPart part;
    double measured = 0;
    for (std::size_t k = 0; k < parts; ++k) {
      if (k != 0) set_up();
      part.first = k * items / parts;
      part.last = (k + 1) * items / parts;
      part.budget_ms = kMaxMeasureMs - measured;
      if (part.first == part.last || part.budget_ms <= 0) continue;
      run_measure_child(self, args, part);
      RunResult done = RunResult::load(args.work + "/result.tsv");
      for (ItemResult& item : done.items) {
        measured += item.wall_ms;
        result.items.push_back(std::move(item));
      }
      part.digest = std::stoull(done.verdict_digest, nullptr, 16);
      result.verdict_digest = done.verdict_digest;
      result.peak_rss_mb = std::max(result.peak_rss_mb, done.peak_rss_mb);
      result.pass_length = done.pass_length;
      if (args.traced) {
        result.layer = std::move(done.layer);
        result.problems = std::move(done.problems);
      }
    }
    peak_rss_mb = result.peak_rss_mb;
  }
  fs::remove_all(args.work);

  std::uint64_t failed = 0, wrong = 0, verdicts = 0;
  for (const ItemResult& item : result.items) {
    failed += !item.ok;
    wrong += item.wrong;
    verdicts += item.verdicts;
    if (!item.ok) {
      std::cout << "FAILED ITEM (run seed " << args.seed
                << "): " << item.detail << "\n";
    }
  }
  for (const std::string& problem : result.problems) {
    std::cout << "TRACE DOES NOT ADD UP: " << problem << "\n";
  }
  const std::size_t attempted = result.items.size();
  const bool correct = attempted > 0 && wrong == 0 && result.problems.empty();
  const double failed_ratio =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.traced) {
    // Items that share growing state take the median slice, so that a
    // change slowing later items moves the figures.
    const bool best = !result.shared_state;
    const std::size_t rate_slices = best ? kRateSlices : kTailSlices;
    metrics = {
        {"setup_s", {quantile(setup_s, 0.5), "s"}},
        {"verdicts_per_s",
         {over_slices(result.items, result.pass_length, rate_slices, best,
                      true,
                      [](const auto& c) {
                        return slice_rate(c, &ItemResult::verdicts);
                      }),
          "1/s"}},
        {"latency_p50_ms",
         {over_slices(result.items, result.pass_length, rate_slices, best,
                      false,
                      [](const auto& c) { return slice_quantile(c, 0.50); }),
          "ms"}},
        {"latency_p99_ms",
         {over_slices(result.items, result.pass_length, kTailSlices, best,
                      false,
                      [](const auto& c) { return slice_quantile(c, 0.99); }),
          "ms"}},
        {"ok_ratio", {1.0 - failed_ratio, "ratio"}},
        {"peak_rss_mb", {peak_rss_mb, "MiB"}},
        {"records_per_s",
         {over_slices(result.items, result.pass_length, rate_slices, best,
                      true,
                      [](const auto& c) {
                        return slice_rate(c, &ItemResult::records);
                      }),
          "1/s"}},
    };
  } else {
    for (const char* name : kPerLayer) {
      const auto it = result.layer.find(name);
      metrics.push_back({name,
                         {it == result.layer.end() ? 0.0 : it->second,
                          unit_of(name)}});
    }
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool optimised =
      build_type == "Release" || build_type == "RelWithDebInfo";
  std::cout << "workload " << args.workload << " seed " << args.seed
            << (args.traced ? " (traced)" : "") << "\n"
            << "  env: nproc " << std::thread::hardware_concurrency()
            << ", compiler " << PERFBENCH_COMPILER << ", build "
            << build_type
            << (optimised ? "" : " (NOT COMPARABLE: unoptimised build)")
            << "\n"
            << "  input digest   " << input_digest << "\n"
            << "  verdict digest " << result.verdict_digest << "\n"
            << "  items " << attempted << " (latency samples), verdicts "
            << verdicts << ", failed " << failed << " (wrong " << wrong
            << "), failed_ratio " << number(failed_ratio) << " ratio\n"
            << "  setup repetitions (s):";
  for (const double s : setup_s) std::cout << " " << number(s);
  std::cout << "\n";
  for (const auto& [name, value] : metrics) {
    std::cout << "  " << name << " = " << number(value.first) << " "
              << value.second << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << json_metrics(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args;
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: gtdl_perfbench --workload W --work DIR [...]\n";
      return 2;
    }
    if (args.phase == "measure") {
      const Workload* workload = find_workload(args.workload);
      if (workload == nullptr || workload->measure == nullptr) return 2;
      const Manifest manifest = Manifest::load(args.work + "/manifest.tsv");
      workload->measure(manifest, args.part, args.traced)
          .save(args.work + "/result.tsv");
      return 0;
    }
    return orchestrate(argv[0], args);
  } catch (const std::exception& e) {
    std::cerr << "gtdl_perfbench: " << e.what() << "\n";
    return 2;
  }
}
