// The four workloads. Each one generates its inputs from the seed
// (setup, timed as setup_s), attaches expectations that do not come from
// the program under test, and runs a fixed script of items (measure).
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

// Manifest rows shared by the file-based workloads:
//   {"F", path, expected, records, tag, extra...}   one input
//   {"S", i[,j,...]}                                one script item: the
//                                                   inputs it covers
//   {"H", digest}                                   content digest
inline constexpr std::size_t kPath = 1, kExpect = 2, kRecords = 3, kTag = 4;

// check_corpus: fdlc corpus mode (drive_corpus, jobs = 2) over seeded
// batches of FutLang and MiniML files.
Manifest corpus_setup(const SetupContext& ctx);
// Untimed: interpreter ground truth for the generated random programs.
void corpus_oracle(Manifest& manifest);
RunResult corpus_measure(const Manifest& manifest, const ScriptPart& part,
                         bool traced);

// baseline_unroll: fdlc --gtype-file --baseline --unrolls k.
Manifest baseline_setup(const SetupContext& ctx);
RunResult baseline_measure(const Manifest& manifest, const ScriptPart& part,
                           bool traced);

// ingest_sets: fdlc --ingest over seeded trace-dump sets.
Manifest ingest_setup(const SetupContext& ctx);
RunResult ingest_measure(const Manifest& manifest, const ScriptPart& part,
                         bool traced);

// daemon_edits: a real `fdld --socket` process and one closed-loop
// client. Runs in the orchestrating process, which is the client.
struct DaemonOutcome {
  std::vector<double> setup_s;
  RunResult result;
  double peak_rss_mb = 0;
  std::string input_digest;
};
DaemonOutcome daemon_run(const SetupContext& ctx, const std::string& fdld,
                         bool traced);

// ------------------------------------------------------------ generators

// A deadlock-free FutLang program of `stages` chained helpers, each
// spawning one future whose body calls the previous helper, then
// touching it. Accepted by construction: every future is spawned before
// its only touch and no future waits on itself.
std::string chain_program(unsigned stages);
// The same chain with the innermost helper touching its future before
// spawning it: a touch of a never-spawned future, so every execution
// deadlocks and the program must be rejected.
std::string chain_program_deadlock(unsigned stages);

// Seeded log-uniform size in [lo, hi] for stratum i of n: stratum i
// draws from the i-th equal slice of the log range, so every seed covers
// the whole range.
unsigned stratified_size(Rng& rng, unsigned lo, unsigned hi, unsigned i,
                         unsigned n);

}  // namespace pb
