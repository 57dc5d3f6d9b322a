#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::size_t count_lines(std::string_view text) {
  std::size_t lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
  if (!text.empty() && text.back() != '\n') ++lines;
  return lines;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = s.find(sep, start);
    parts.push_back(s.substr(start, end - start));
    if (end == std::string::npos) return parts;
    start = end + 1;
  }
}

bool outcome_ok(char expected, int exit_code) {
  switch (expected) {
    case 'A': return exit_code == 0;
    case 'R': return exit_code == 1;
    case 'E': return exit_code == 2;
    case 'N': return exit_code == 1;
    case '*': return exit_code == 0 || exit_code == 1;
    default: return false;
  }
}

char flipped(char expected) {
  switch (expected) {
    case 'A': return 'R';
    case '*': return 'E';
    default: return 'A';  // 'R', 'N', 'E'
  }
}

void Manifest::save(const std::string& path) const {
  std::string text;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) text += '\t';
      text += row[i];
    }
    text += '\n';
  }
  write_file(path, text);
}

Manifest Manifest::load(const std::string& path) {
  Manifest m;
  for (const std::string& line : split(read_file(path), '\n')) {
    if (!line.empty()) m.rows.push_back(split(line, '\t'));
  }
  return m;
}

namespace {
// Record fields may not contain the manifest's separators.
std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\t' || c == '\n') c = ' ';
  }
  return text;
}
}  // namespace

std::string ItemResult::row() const {
  std::ostringstream out;
  out.precision(17);
  out << "I\t" << wall_ms << '\t' << ok << '\t' << wrong << '\t' << verdicts
      << '\t' << records << '\t' << unknowns << '\t' << one_line(detail)
      << '\n';
  return out.str();
}

bool ItemResult::read(const std::vector<std::string>& f) {
  if (f.size() < 8) return false;
  wall_ms = std::stod(f[1]);
  ok = f[2] == "1";
  wrong = f[3] == "1";
  verdicts = std::stoull(f[4]);
  records = std::stoull(f[5]);
  unknowns = std::stoull(f[6]);
  detail = f[7];
  return true;
}

void RunResult::save(const std::string& path) const {
  std::ostringstream out;
  out.precision(17);
  out << "V\t" << verdict_digest << '\n';
  out << "R\t" << peak_rss_mb << '\n';
  out << "L\t" << pass_length << '\n';
  for (const ItemResult& item : items) out << item.row();
  for (const auto& [name, value] : layer) {
    out << "M\t" << name << '\t' << value << '\n';
  }
  for (const std::string& problem : problems) out << "P\t" << problem << '\n';
  write_file(path, out.str());
}

RunResult RunResult::load(const std::string& path) {
  RunResult r;
  for (const auto& row : Manifest::load(path).rows) {
    if (row[0] == "V" && row.size() >= 2) {
      r.verdict_digest = row[1];
    } else if (row[0] == "R" && row.size() >= 2) {
      r.peak_rss_mb = std::stod(row[1]);
    } else if (row[0] == "L" && row.size() >= 2) {
      r.pass_length = std::stoul(row[1]);
    } else if (ItemResult item; row[0] == "I" && item.read(row)) {
      r.items.push_back(std::move(item));
    } else if (row[0] == "M" && row.size() >= 3) {
      r.layer[row[1]] = std::stod(row[2]);
    } else if (row[0] == "P" && row.size() >= 2) {
      r.problems.push_back(row[1]);
    }
  }
  return r;
}

const std::array<const char*, kLayerCount> kLayerNames = {
    "frontend.parse",  "frontend.typecheck", "frontend.infer",
    "mml.compile",     "gtype.parse",        "gtype.wellformed",
    "gtype.unroll",    "gtype.enumerate",    "detect.new_push",
    "detect.df",       "graph.scan",         "ingest.merge",
    "tj.validate"};

double LayerTimes::sum() const {
  double total = 0;
  for (const double ms : self_ms) total += ms;
  return total;
}

void LayerTimes::add(const LayerTimes& other) {
  for (unsigned i = 0; i < kLayerCount; ++i) self_ms[i] += other.self_ms[i];
}

namespace {
thread_local LayerTimes* t_target = nullptr;
thread_local Span* t_open = nullptr;
}  // namespace

Recording::Recording(LayerTimes& times) : previous_(t_target) {
  t_target = &times;
}
Recording::~Recording() { t_target = previous_; }

Span::Span(Layer layer) : layer_(layer), start_(now_ms()), parent_(t_open) {
  t_open = this;
}

Span::~Span() {
  const double duration = now_ms() - start_;
  t_open = parent_;
  if (parent_ != nullptr) parent_->child_ms_ += duration;
  if (t_target != nullptr) t_target->self_ms[layer_] += duration - child_ms_;
}

bool TraceLedger::add(ItemTrace item) {
  item.unattributed_ms =
      item.capacity_ms - item.layers.sum() - item.idle_ms;
  // Spans are nested inside the item's window on their own threads, so
  // no part can be negative; allow only timer rounding.
  constexpr double kClockNoiseMs = 0.01;
  bool ok = item.unattributed_ms >= -kClockNoiseMs &&
            item.idle_ms >= -kClockNoiseMs;
  for (const double ms : item.layers.self_ms) ok = ok && ms >= -kClockNoiseMs;
  if (!ok && problems_.size() < 5) {
    problems_.push_back("item " + std::to_string(items_) +
                        ": parts do not add up (unattributed " +
                        std::to_string(item.unattributed_ms) + " ms, idle " +
                        std::to_string(item.idle_ms) + " ms)");
  }
  ++items_;
  wall_ms_ += item.wall_ms;
  idle_ms_ += item.idle_ms;
  unattributed_ms_ += item.unattributed_ms;
  layers_.add(item.layers);
  return ok;
}

void TraceLedger::export_to(std::map<std::string, double>& metrics) const {
  const double n = items_ == 0 ? 1.0 : static_cast<double>(items_);
  for (unsigned i = 0; i < kLayerCount; ++i) {
    metrics[std::string(kLayerNames[i]) + "_ms"] = layers_.self_ms[i] / n;
  }
  metrics["par.idle_ms"] = idle_ms_ / n;
  metrics["trace.unattributed_ms"] = unattributed_ms_ / n;
  metrics["trace.wall_ms"] = wall_ms_ / n;
}

double ratio(double hits, double misses) {
  return hits + misses == 0 ? 0 : hits / (hits + misses);
}

namespace {

std::string serialize(const ItemReport& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.item.row();
  out << "V\t" << r.verdicts << '\n';
  for (const ItemTrace& t : r.traces) {
    out << "T\t" << t.wall_ms << '\t' << t.capacity_ms << '\t' << t.idle_ms;
    for (const double ms : t.layers.self_ms) out << '\t' << ms;
    out << '\n';
  }
  for (const auto& [name, value] : r.counters) {
    out << "C\t" << name << '\t' << value << '\n';
  }
  return out.str();
}

ItemReport deserialize(const std::string& text) {
  ItemReport r;
  for (const std::string& line : split(text, '\n')) {
    const std::vector<std::string> f = split(line, '\t');
    if (f[0] == "I") {
      r.item.read(f);
    } else if (f[0] == "V" && f.size() >= 2) {
      r.verdicts = f[1];
    } else if (f[0] == "T" && f.size() >= 4 + kLayerCount) {
      ItemTrace t;
      t.wall_ms = std::stod(f[1]);
      t.capacity_ms = std::stod(f[2]);
      t.idle_ms = std::stod(f[3]);
      for (unsigned l = 0; l < kLayerCount; ++l) {
        t.layers.self_ms[l] = std::stod(f[4 + l]);
      }
      r.traces.push_back(t);
    } else if (f[0] == "C" && f.size() >= 3) {
      r.counters[f[1]] = std::stod(f[2]);
    }
  }
  return r;
}

// Runs `fn` in a forked child and returns its report and peak RSS (MiB).
ItemReport run_forked(const std::function<ItemReport()>& fn,
                      double* peak_rss_mb) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    std::string text;
    try {
      text = serialize(fn());
    } catch (const std::exception& e) {
      text = std::string("E\t") + e.what() + "\n";
      code = 1;
    }
    for (std::size_t sent = 0; sent < text.size();) {
      const ssize_t n = ::write(fds[1], text.data() + sent, text.size() - sent);
      if (n <= 0) ::_exit(2);
      sent += static_cast<std::size_t>(n);
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char chunk[1 << 14];
  for (;;) {
    const ssize_t n = ::read(fds[0], chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  ::wait4(pid, &status, 0, &usage);
  if (WIFSIGNALED(status)) {
    throw std::runtime_error("item process killed by signal " +
                             std::to_string(WTERMSIG(status)));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("item process failed: " + one_line(text));
  }
  *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return deserialize(text);
}

}  // namespace

Aggregate run_items(const ScriptPart& part, std::size_t count, bool traced,
                    const std::function<ItemReport(std::size_t, bool)>& pass,
                    const std::function<std::string(std::size_t)>& describe) {
  Aggregate agg;
  agg.verdicts.h = part.digest;
  double measured = 0;
  // One pass of item i in its own process. A process that crashes or
  // fails yields a failed, wrong item timed from here, so the run still
  // ends and names the item.
  const auto forked = [&](std::size_t i, bool traced_pass, double* rss) {
    const double t0 = now_ms();
    try {
      return run_forked([&] { return pass(i, traced_pass); }, rss);
    } catch (const std::exception& e) {
      ItemReport failed;
      failed.item.wall_ms = now_ms() - t0;
      failed.item.ok = false;
      failed.item.wrong = true;
      failed.item.detail = "item " + std::to_string(i) + " " + describe(i) +
                           (traced_pass ? ": traced pass: " : ": ") + e.what();
      failed.verdicts = "failed";
      return failed;
    }
  };
  const std::size_t last = std::min(count, part.last);
  for (std::size_t i = part.first; i < last && measured < part.budget_ms;
       ++i) {
    double rss = 0;
    ItemReport report = forked(i, false, &rss);
    agg.peak_rss_mb = std::max(agg.peak_rss_mb, rss);
    if (traced) {
      double ignored = 0;
      const ItemReport t = forked(i, true, &ignored);
      report.item.ok = report.item.ok && t.item.ok;
      report.item.wrong = report.item.wrong || t.item.wrong;
      report.item.unknowns += t.item.unknowns;
      if (!t.item.detail.empty()) {
        report.item.detail += "traced: " + t.item.detail;
      }
      for (const ItemTrace& trace : t.traces) agg.ledger.add(trace);
      for (const auto& [name, value] : t.counters) {
        double& slot = agg.counters[name];
        slot = name.find("peak") != std::string::npos ? std::max(slot, value)
                                                      : slot + value;
      }
      agg.untraced_ms += report.item.wall_ms;
    }
    agg.verdicts.add(report.verdicts);
    measured += report.item.wall_ms;
    agg.items.push_back(std::move(report.item));
  }
  return agg;
}

RunResult finish(Aggregate& agg, bool traced) {
  RunResult r;
  r.items = std::move(agg.items);
  r.verdict_digest = agg.verdicts.hex();
  r.peak_rss_mb = agg.peak_rss_mb;
  if (traced) {
    agg.ledger.export_to(r.layer);
    for (const auto& [name, value] : agg.counters) r.layer[name] = value;
    r.layer["trace.overhead_ratio"] =
        agg.untraced_ms > 0 ? agg.ledger.total_wall_ms() / agg.untraced_ms : 0;
    r.problems = agg.ledger.problems();
  }
  return r;
}

void add_passes(Manifest& m, Rng& rng, std::size_t pool, std::size_t items) {
  std::vector<std::size_t> order;
  for (std::size_t done = 0; done < items || !order.empty(); ++done) {
    if (order.empty()) {
      for (std::size_t j = 0; j < pool; ++j) order.push_back(j);
      rng.shuffle(order);
    }
    m.add({"S", std::to_string(order.back())});
    order.pop_back();
  }
}

std::size_t script_length(double rate, double seconds, bool smoke) {
  if (smoke) return 6;
  const double n = std::ceil(rate * seconds);
  return static_cast<std::size_t>(std::max(4.0, n));
}

}  // namespace pb
