// daemon_edits — a real `fdld --socket` process serving one closed-loop
// client over a seeded 64-file project. Reads replay unchanged files from
// the warm cache; writes rewrite one file to its opposite-verdict variant
// first, which costs dirty-cone invalidation plus a recompile.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "gtdl/gtype/intern.hpp"
#include "gtdl/service/service.hpp"
#include "workloads.hpp"

extern char** environ;

namespace pb {

namespace {

constexpr unsigned kProjectFiles = 64;
constexpr unsigned kJobs = 1;  // fdld --jobs; the client is the second thread
// Requests per second of --seconds on the reference machine.
constexpr double kRequestsPerSecond = 1800;
// One request in kWriteEvery rewrites a file first. fdld's peak RSS grows
// faster than linearly with the number of edits it has served (README.md,
// "Findings"), so the edit count per run is what bounds its memory.
constexpr unsigned kWriteEvery = 16;

// The example pairs a project slot may toggle between: accepted program
// first, its deadlocking counterpart second (Table 1 and E12).
constexpr const char* kPairs[][2] = {
    {"fibonacci.fut", "fib_dl.fut"},
    {"webserver.fut", "webserver_dl.fut"},
    {"vec_reduce.fut", "vec_skip_dl.fut"},
    {"pipeline.fut", "pipeline_dl.fut"},
};

struct Slot {
  std::string path;
  std::string variant[2];  // [0] accepted, [1] rejected, by construction
  unsigned current = 0;
  std::string tag;
};

// A running fdld and one connection to it.
class Daemon {
 public:
  Daemon(const std::string& fdld, const std::string& socket_path,
         const std::string& log_path) {
    std::filesystem::remove(socket_path);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const std::string jobs = std::to_string(kJobs);
    std::vector<char*> argv{const_cast<char*>(fdld.c_str()),
                            const_cast<char*>("--socket"),
                            const_cast<char*>(socket_path.c_str()),
                            const_cast<char*>("--jobs"),
                            const_cast<char*>(jobs.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, fdld.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + fdld);
    connect_to(socket_path);
  }

  ~Daemon() {
    if (fd_ >= 0) ::close(fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Sends one request line and returns the response line.
  std::string request(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::write(fd_, out.data() + sent, out.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("fdld connection lost (write)");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return response;
      }
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("fdld connection lost (read)");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Asks the daemon to exit, reaps it, and returns its peak RSS in MiB.
  double shutdown() {
    request(R"({"op":"shutdown"})");
    ::close(fd_);
    fd_ = -1;
    int status = 0;
    rusage usage{};
    ::wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  void connect_to(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    const double deadline = now_ms() + 30'000;
    while (now_ms() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("fdld exited during start-up");
      }
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      // Polled finely: the wait is part of setup_s.
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
    throw std::runtime_error("fdld did not accept connections");
  }

  pid_t pid_ = -1;
  int fd_ = -1;
  std::string buffer_;
};

std::vector<Slot> make_project(const SetupContext& ctx, Rng& rng,
                               Digest& content) {
  std::vector<Slot> slots;
  const unsigned files = ctx.smoke ? 8 : kProjectFiles;
  const unsigned chains = files * 3 / 4;
  for (unsigned i = 0; i < files; ++i) {
    Slot slot;
    slot.path = ctx.work_dir + "/p" + std::to_string(i) + ".fut";
    const std::string header = "# project file " + std::to_string(i) + "\n";
    if (i < chains) {
      const unsigned n = stratified_size(rng, 4, 48, i, chains);
      slot.variant[0] = header + chain_program(n);
      slot.variant[1] = header + chain_program_deadlock(n);
      slot.tag = "chain:stages=" + std::to_string(n);
    } else {
      const auto& pair = kPairs[(i - chains) % std::size(kPairs)];
      slot.variant[0] = header + read_file(ctx.inputs_dir + "/" + pair[0]);
      slot.variant[1] = header + read_file(ctx.inputs_dir + "/" + pair[1]);
      slot.tag = std::string("pair:") + pair[0];
    }
    slot.current = rng.below(2);
    ctx.write(slot.path, slot.variant[slot.current]);
    content.add(slot.variant[0]);
    content.add(slot.variant[1]);
    content.add(std::to_string(slot.current));
    slots.push_back(std::move(slot));
  }
  return slots;
}

std::string submit_line(const std::vector<Slot>& slots,
                        const std::vector<unsigned>& which, std::size_t id) {
  std::string line = R"({"op":"submit","id":")" + std::to_string(id) + "\"";
  for (const unsigned s : which) line += R"(,"file":")" + slots[s].path + "\"";
  return line + "}";
}

// Per-file exit codes of a submit response, in request order; empty when
// the response is an error.
std::vector<int> file_codes(const std::string& response) {
  std::vector<int> codes;
  if (response.rfind(R"({"ok":true)", 0) != 0) return codes;
  std::size_t pos = response.find(R"("files":[)");
  const std::string key = R"("exit_code":)";
  while (pos != std::string::npos) {
    pos = response.find(key, pos);
    if (pos == std::string::npos) break;
    pos += key.size();
    codes.push_back(response[pos] - '0');
  }
  return codes;
}

// The counter value `key` of a stats response.
double stat(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = response.find(needle);
  if (pos == std::string::npos) return 0;
  return std::stod(response.substr(pos + needle.size()));
}

// Checks a submit response against the slots' current variants.
// `flip` inverts the first file's expectation (the test hook).
void judge(const std::vector<Slot>& slots, const std::vector<unsigned>& which,
           const std::string& response, ItemResult& item, Digest* verdicts,
           const char* pass, std::size_t index, bool flip = false) {
  const std::vector<int> codes = file_codes(response);
  if (codes.size() != which.size()) {
    item.ok = false;
    item.wrong = true;
    item.detail += std::string(pass) + " request " + std::to_string(index) +
                   ": bad response; ";
    return;
  }
  for (std::size_t i = 0; i < which.size(); ++i) {
    const Slot& slot = slots[which[i]];
    if (verdicts != nullptr) verdicts->add(std::to_string(codes[i]));
    const bool accepted = (slot.current == 0) != (flip && i == 0);
    const char expected = accepted ? 'A' : 'R';
    if (codes[i] == 3) {
      ++item.unknowns;
      item.ok = false;
    } else if (!outcome_ok(expected, codes[i])) {
      item.ok = false;
      item.wrong = true;
      item.detail += std::string(pass) + " request " + std::to_string(index) +
                     " " + slot.path + " (" + slot.tag + ") expected " +
                     expected + " got exit " + std::to_string(codes[i]) +
                     "; ";
    }
  }
}

}  // namespace

DaemonOutcome daemon_run(const SetupContext& ctx, const std::string& fdld,
                         bool traced) {
  DaemonOutcome outcome;
  // Set-up: generate the project in `dir`, start fdld on it, and warm its
  // cache with one cold submit of every file; timed as one repetition.
  const auto set_up = [&](const std::string& dir, std::vector<Slot>& slots) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SetupContext in_dir = ctx;
    in_dir.work_dir = dir;
    double io_ms = 0;
    in_dir.io_ms = &io_ms;
    const double t0 = now_ms();
    Rng rng(derive(ctx.seed, 3));
    Digest content;
    slots = make_project(in_dir, rng, content);
    outcome.input_digest = content.hex();
    auto daemon = std::make_unique<Daemon>(fdld, dir + "/fdld.sock",
                                           dir + "/fdld.log");
    std::vector<unsigned> everything;
    for (unsigned i = 0; i < slots.size(); ++i) everything.push_back(i);
    const std::string response =
        daemon->request(submit_line(slots, everything, 0));
    outcome.setup_s.push_back((now_ms() - t0 - io_ms) / 1000.0);
    ItemResult check;
    judge(slots, everything, response, check, nullptr, "setup", 0);
    if (!check.ok) throw std::runtime_error(check.detail);
    return daemon;
  };
  // The first repetition's daemon serves the requests. The others run
  // between equal parts of the request script (kSetupReps), each on its
  // own copy of the project with its own fdld, while the serving daemon
  // waits; a traced run reports no setup_s and does none.
  std::vector<Slot> slots;
  std::unique_ptr<Daemon> daemon = set_up(ctx.work_dir + "/serve", slots);
  std::vector<unsigned> everything;
  for (unsigned i = 0; i < slots.size(); ++i) everything.push_back(i);
  const int reps = traced ? 1 : kSetupReps;
  int reps_done = 1;
  const auto another_rep = [&] {
    std::vector<Slot> copy;
    set_up(ctx.work_dir + "/rep", copy)->shutdown();
    ++reps_done;
  };

  // The request script, drawn after set-up from its own stream.
  Rng rng(derive(ctx.seed, 30));
  Digest script_digest;
  script_digest.add(outcome.input_digest);
  const std::size_t requests =
      script_length(kRequestsPerSecond, ctx.seconds, ctx.smoke);

  std::unique_ptr<gtdl::service::Service> replica;
  if (traced) {
    // The in-process replica the traced run times handle_line on, warmed
    // like the daemon.
    gtdl::service::ServiceOptions options;
    options.jobs = kJobs;
    replica = std::make_unique<gtdl::service::Service>(options);
    bool stop = false;
    (void)replica->handle_line(submit_line(slots, everything, 0), &stop);
  }
  const std::string stats_before =
      traced ? daemon->request(R"({"op":"stats"})") : std::string();
  auto& interner = gtdl::GTypeInterner::instance();
  const auto intern_before = interner.stats();

  RunResult& result = outcome.result;
  result.shared_state = true;  // every request ages the same fdld
  Digest verdicts;
  double replay_ms = 0, edit_ms = 0, transport_ms = 0, wall_ms = 0,
         measured = 0;
  std::size_t reads = 0, writes = 0;
  std::uint64_t files_requested = 0;
  std::vector<unsigned> edit_order;
  for (std::size_t r = 0; r < requests && measured < kMaxMeasureMs; ++r) {
    if (reps_done < reps &&
        r >= static_cast<std::size_t>(reps_done) * requests / reps) {
      another_rep();
    }
    // Every request resubmits the whole project, as an editor integration
    // re-checking on save does; every kWriteEvery-th one first rewrites a
    // seeded file to its other variant.
    const bool write = r % kWriteEvery == kWriteEvery - 1;
    std::vector<unsigned> which = everything;
    if (write) {
      // Edits visit the files round-robin in a seeded order, so every
      // seed edits each file equally often.
      if (edit_order.empty()) {
        for (unsigned i = 0; i < slots.size(); ++i) edit_order.push_back(i);
        rng.shuffle(edit_order);
      }
      const unsigned s = edit_order.back();
      edit_order.pop_back();
      slots[s].current ^= 1u;
      write_file(slots[s].path, slots[s].variant[slots[s].current]);
      std::swap(which[0], which[s]);
    }
    script_digest.add(std::to_string(write) + ":" +
                      std::to_string(which.size()) + ":" +
                      std::to_string(which.front()));
    const std::string line = submit_line(slots, which, r + 1);
    files_requested += which.size();

    ItemResult item;
    item.verdicts = which.size();
    for (const unsigned s : which) {
      item.records += count_lines(slots[s].variant[slots[s].current]);
    }
    const auto over_socket = [&] {
      const double t0 = now_ms();
      const std::string response = daemon->request(line);
      item.wall_ms = now_ms() - t0;
      judge(slots, which, response, item, &verdicts, "fdld", r,
            ctx.flip && r == 0);
    };
    if (!traced) {
      over_socket();
    } else {
      double handle = 0;
      const auto in_process = [&] {
        bool stop = false;
        const double t0 = now_ms();
        const std::string response = replica->handle_line(line, &stop);
        handle = now_ms() - t0;
        judge(slots, which, response, item, nullptr, "replica", r);
      };
      if (r % 2 == 0) {
        over_socket();
        in_process();
      } else {
        in_process();
        over_socket();
      }
      (write ? edit_ms : replay_ms) += handle;
      (write ? writes : reads) += 1;
      transport_ms += item.wall_ms - handle;
      wall_ms += item.wall_ms;
    }
    measured += item.wall_ms;
    result.items.push_back(std::move(item));
  }
  while (reps_done < reps) another_rep();  // a run the safety stop cut
  result.verdict_digest = verdicts.hex();
  outcome.input_digest = script_digest.hex();

  if (traced) {
    const std::string stats_after = daemon->request(R"({"op":"stats"})");
    const auto intern_after = interner.stats();
    const double hits =
        stat(stats_after, "cache_hits") - stat(stats_before, "cache_hits");
    auto& out = result.layer;
    const double n = result.items.empty() ? 1.0 : result.items.size();
    out["service.replay_ms"] = reads == 0 ? 0 : replay_ms / reads;
    out["service.edit_ms"] = writes == 0 ? 0 : edit_ms / writes;
    out["daemon.transport_ms"] = transport_ms / n;
    // Each request's socket time is exactly handle + transport, so no
    // part of it is unattributed; the socket path carries no spans, so
    // tracing adds nothing to it.
    out["trace.wall_ms"] = wall_ms / n;
    out["trace.unattributed_ms"] = 0;
    out["trace.overhead_ratio"] = 1;
    out["service.cache.hit_ratio"] =
        files_requested == 0 ? 0 : hits / static_cast<double>(files_requested);
    out["service.cache.invalidated"] = stat(stats_after, "cache_invalidated") -
                                       stat(stats_before, "cache_invalidated");
    out["service.cache.evictions"] = stat(stats_after, "cache_evictions") -
                                     stat(stats_before, "cache_evictions");
    out["gtype.intern.nodes"] = stat(stats_after, "interned_nodes");
    const double ih = static_cast<double>(intern_after.intern_hits -
                                          intern_before.intern_hits);
    const double im = static_cast<double>(intern_after.intern_misses -
                                          intern_before.intern_misses);
    out["gtype.intern.misses"] = im;
    out["gtype.intern.hit_ratio"] = ih + im == 0 ? 0 : ih / (ih + im);
  }
  outcome.peak_rss_mb = daemon->shutdown();
  daemon.reset();
  return outcome;
}

}  // namespace pb
