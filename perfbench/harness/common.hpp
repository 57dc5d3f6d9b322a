// Shared pieces of the benchmark harness: seeded randomness, timing,
// digests, the manifest/result file formats, and the span recorder used
// by traced runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

// ---------------------------------------------------------------- random

// splitmix64: the same reference generator the repo's fuzz layer uses,
// so a seed reproduces the same inputs on every toolchain.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(static_cast<unsigned>(i))]);
    }
  }
};

// A child seed for sub-stream `tag` of workload seed `seed`.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (0x2545f4914f6cdd1dull * (tag + 1)));
  return r.next();
}

// ---------------------------------------------------------------- timing

inline double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------- digests

// FNV-1a 64 over everything fed to it; rendered as 16 hex digits.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  // Adds `bytes` and a separator, so ("ab","c") and ("a","bc") differ.
  void add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;
    h *= 0x100000001b3ull;
  }
  [[nodiscard]] std::string hex() const;
};

// ---------------------------------------------------------------- files

std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view text);
std::size_t count_lines(std::string_view text);
std::vector<std::string> split(const std::string& s, char sep);

// ---------------------------------------------------------------- outcomes

// Expected outcome of one input, each from a source other than the
// program under test (construction, the paper, or the interpreter).
//   'A' accepted (exit 0)          'R' rejected (exit 1)
//   'E' compile error (exit 2)     'N' must not be accepted (exit 1):
//                                      some interpreter run deadlocked
//   '*' either definite verdict (exit 0 or 1)
bool outcome_ok(char expected, int exit_code);
// An expectation no outcome satisfying `expected` can meet (the
// self-test that a wrong expectation fails the run).
char flipped(char expected);

// ---------------------------------------------------------------- manifest

// The set-up phase writes one manifest per workload; the measure phase
// (a fresh process) reads it back. One record per line, tab-separated,
// the first field naming the record kind.
struct Manifest {
  std::vector<std::vector<std::string>> rows;
  void add(std::vector<std::string> row) { rows.push_back(std::move(row)); }
  void save(const std::string& path) const;
  static Manifest load(const std::string& path);
};

// ---------------------------------------------------------------- results

// What a measure phase hands back to the orchestrating process.
struct ItemResult {
  double wall_ms = 0;
  bool ok = true;      // every verdict as expected, none unknown
  bool wrong = false;  // some verdict contradicts its expectation
  std::uint64_t verdicts = 0;  // inputs that received a verdict
  std::uint64_t records = 0;   // input lines covered by those verdicts
  std::uint64_t unknowns = 0;  // inputs whose analysis gave up (exit 3)
  std::string detail;          // mismatch description (with seeds)

  // One tab-separated "I" record, as both the item reports of the forked
  // passes and the measure phase's result file carry it.
  [[nodiscard]] std::string row() const;
  // Reads the fields of a row() record back; false if too few.
  bool read(const std::vector<std::string>& fields);
};

struct RunResult {
  std::vector<ItemResult> items;
  std::map<std::string, double> layer;  // per-layer metrics (traced runs)
  std::string verdict_digest;
  double peak_rss_mb = 0;  // largest peak RSS of any item's process
  // Items per whole pass over the workload's pool; 1 when the script is
  // not made of passes.
  std::size_t pass_length = 1;
  // The items ran in time order against shared, growing state (one
  // daemon), so a later item is no repeat of an earlier one: rates and
  // percentiles come from the median slice of the run, not its best.
  bool shared_state = false;
  // Traced items whose parts did not add up to their wall time.
  std::vector<std::string> problems;
  void save(const std::string& path) const;
  static RunResult load(const std::string& path);
};

// ---------------------------------------------------------------- tracing

// Layers the traced runs attribute time to. Names follow the repo's
// modules (src/gtdl/<module>).
enum Layer : unsigned {
  kFrontendParse,
  kFrontendTypecheck,
  kFrontendInfer,
  kMmlCompile,
  kGtypeParse,
  kGtypeWellformed,
  kGtypeUnroll,
  kGtypeEnumerate,
  kDetectNewPush,
  kDetectDf,
  kGraphScan,
  kIngestMerge,
  kTjValidate,
  kLayerCount
};
extern const std::array<const char*, kLayerCount> kLayerNames;

// Self time per layer for one unit of work (a file, a graph type, a dump
// set). Spans nest on one thread: a span's self time is its duration
// minus the time of the spans it encloses.
struct LayerTimes {
  std::array<double, kLayerCount> self_ms{};
  [[nodiscard]] double sum() const;
  void add(const LayerTimes& other);
};

// Makes `times` the recording target of Spans on this thread until the
// scope ends.
class Recording {
 public:
  explicit Recording(LayerTimes& times);
  ~Recording();
  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;

 private:
  LayerTimes* previous_;
};

// Times the enclosing scope as one call into `layer`.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  double start_;
  double child_ms_ = 0;
  Span* parent_;
};

// One traced item: its wall time split into layer self times plus an
// explicit remainder no span covers. `capacity_ms` is the wall time the
// parts must add up to (for a parallel batch: jobs x wall).
struct ItemTrace {
  double wall_ms = 0;
  double capacity_ms = 0;
  LayerTimes layers;
  double idle_ms = 0;  // parallel batches: worker time with no file to run
  double unattributed_ms = 0;
};

// Accumulates traced items and checks that each one adds up.
class TraceLedger {
 public:
  // Records one item; unattributed = capacity - layers - idle. Returns
  // false (and remembers why) when a part is negative beyond clock noise.
  bool add(ItemTrace item);
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }
  // Mean per item of each layer's self time, the idle and unattributed
  // parts, plus traced wall; written as "<layer>_ms" metrics.
  void export_to(std::map<std::string, double>& metrics) const;
  [[nodiscard]] double total_wall_ms() const { return wall_ms_; }

 private:
  std::size_t items_ = 0;
  double wall_ms_ = 0;
  double idle_ms_ = 0;
  double unattributed_ms_ = 0;
  LayerTimes layers_;
  std::vector<std::string> problems_;
};

// ---------------------------------------------------------------- items

// What one pass over one item reports back from its process.
struct ItemReport {
  ItemResult item;
  std::string verdicts;             // this item's verdicts, for the digest
  std::vector<ItemTrace> traces;    // traced passes
  std::map<std::string, double> counters;  // summed; "*peak*" ones: max
};

// The part of a workload's script one measure phase runs: items
// [first, last), with the verdict digest going on from `digest`, the
// state after the items before `first`. Parts let the set-up repetitions
// fall between them (see kSetupReps).
struct ScriptPart {
  std::size_t first = 0;
  std::size_t last = static_cast<std::size_t>(-1);
  std::uint64_t digest = Digest{}.h;
  double budget_ms = 0;  // stop issuing items after this much measured time
};

// A measure phase's items, aggregated.
struct Aggregate {
  std::vector<ItemResult> items;
  Digest verdicts;
  TraceLedger ledger;
  std::map<std::string, double> counters;
  double untraced_ms = 0;  // traced runs: the items' untraced wall time
  double peak_rss_mb = 0;
};

// Runs every item of a script, each pass in its own forked copy of this
// single-threaded process — a fresh interner, memo pools and arenas, as
// one fdlc invocation has. The untraced pass gives the item's wall time,
// verdicts and peak RSS; with `traced`, a second process runs the traced
// pass, whose verdicts must agree too. Runs the items of `part` among
// the script's `count`, and stops issuing them once the measured time
// passes the part's budget. A pass whose process crashes or fails makes
// its item failed and wrong, described by `describe(i)`, and the run
// goes on.
Aggregate run_items(const ScriptPart& part, std::size_t count, bool traced,
                    const std::function<ItemReport(std::size_t, bool)>& pass,
                    const std::function<std::string(std::size_t)>& describe);

// Turns an aggregate into a run result: items, digest, per-layer means
// from the ledger, counters, and the tracing overhead.
RunResult finish(Aggregate& aggregate, bool traced);

double ratio(double hits, double misses);

// ---------------------------------------------------------------- workloads

struct SetupContext {
  std::string work_dir;    // fresh directory for this workload's inputs
  std::string inputs_dir;  // perfbench/inputs (pinned example programs)
  std::uint64_t seed = 0;
  double seconds = 10;
  bool smoke = false;      // tiny sizes for the benchmark's own tests
  bool flip = false;       // test hook: invert one expected verdict
  // Where io() adds up the time spent writing generated inputs to disk,
  // which setup_s leaves out: the shared disk's file creation latency
  // swings several-fold for seconds at a time, far more than the
  // generators' own cost varies.
  double* io_ms = nullptr;

  // Runs `fn`, which only writes or reads back generated files, outside
  // setup_s.
  template <typename F>
  void io(F&& fn) const {
    const double t0 = now_ms();
    fn();
    if (io_ms != nullptr) *io_ms += now_ms() - t0;
  }
  void write(const std::string& path, std::string_view text) const {
    io([&] { write_file(path, text); });
  }
};

// The shared rule that sizes a fixed script from --seconds: `rate` items
// per second is this machine's throughput, so the script lasts about
// --seconds here and is the same work on every commit.
std::size_t script_length(double rate, double seconds, bool smoke);

// Appends {"S", i} script rows: whole passes over a pool of `pool`
// entries, each pass in a fresh seeded order, at least `items` rows in
// all. Whole passes give every seed the same mix of entries.
void add_passes(Manifest& m, Rng& rng, std::size_t pool, std::size_t items);

// Safety stop for a run whose program got far slower than the script was
// sized for: stop issuing items after this much measured time.
inline constexpr double kMaxMeasureMs = 100'000;

// Set-up repetitions per untraced run; setup_s is their median. The
// host's slow phases last seconds, so repetitions done back to back
// would all land in one phase: the first one comes before the script and
// the others fall between equal parts of it.
inline constexpr int kSetupReps = 21;

}  // namespace pb
