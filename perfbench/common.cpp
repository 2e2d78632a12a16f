#include "common.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1000.0; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string with_revision(std::string source, uint64_t revision) {
  const size_t at = source.find("@REV@");
  if (at == std::string::npos) {
    throw std::runtime_error("generated source without @REV@");
  }
  return source.replace(at, 5, std::to_string(revision));
}

Json load_manifest(const Options& opts) {
  auto parsed = Json::parse(read_file(opts.inputs + "/manifest.json"));
  if (!parsed || !parsed->is_object()) {
    throw std::runtime_error("malformed manifest in " + opts.inputs);
  }
  return std::move(*parsed);
}

namespace {

/// Rules whose findings name two parties (docs/rules.md); other findings
/// may carry an `other` detail, but their identity is rule and subject.
bool pairwise(const std::string& rule) {
  return rule == "address-overlap" || rule == "interrupt-collision" ||
         rule == "clock-collision";
}

std::string make_key(const std::string& rule, const std::string& subject,
                     const std::string& other) {
  if (!pairwise(rule)) return rule + "|" + subject;
  return rule + "|" + std::min(subject, other) + "|" +
         std::max(subject, other);
}

}  // namespace

FindingKeys expected_keys(const Json& expected) {
  FindingKeys keys;
  for (const Json& f : expected.items()) {
    const auto& parts = f.items();
    keys.push_back(make_key(parts.at(0).as_string(), parts.at(1).as_string(),
                            parts.size() > 2 ? parts[2].as_string() : ""));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool report_keys(std::string_view report_json, FindingKeys& out) {
  out.clear();
  auto doc = Json::parse(report_json);
  if (!doc || !doc->has("findings")) return false;
  for (const Json& f : doc->at("findings").items()) {
    out.push_back(make_key(f.at("rule").as_string(),
                           f.at("subject").as_string(),
                           f.has("other") ? f.at("other").as_string() : ""));
  }
  std::sort(out.begin(), out.end());
  return true;
}

FindingKeys text_report_keys(const std::string& report) {
  // "<file:line: >severity: [rule] subject...: message [other: path]";
  // flow lines ("    via ...") carry no finding of their own.
  static const std::regex head(
      R"((?:error|warning): \[([^\]]+)\] (\S+?)(?::| \(property))");
  static const std::regex other(R"(\[other: (\S+)\])");
  FindingKeys keys;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("    via ", 0) == 0) continue;
    std::smatch m;
    if (!std::regex_search(line, m, head)) continue;
    std::smatch o;
    const std::string other_subject =
        std::regex_search(line, o, other) ? o[1].str() : "";
    keys.push_back(make_key(m[1].str(), m[2].str(), other_subject));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool has_semantic_rule(const FindingKeys& keys) {
  static const char* kRules[] = {"address-overlap|",   "reg-width|",
                                 "size-overflow|",     "zero-size-region|",
                                 "interrupt-collision|", "clock-collision|",
                                 "ranges-violation|"};
  for (const std::string& k : keys) {
    for (const char* r : kRules) {
      if (k.rfind(r, 0) == 0) return true;
    }
  }
  return false;
}

double Samples::percentile(double p) const {
  if (values.empty()) return 0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::tail_percentile() const {
  double best = 50;
  const double n = static_cast<double>(values.size());
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (n - std::ceil(p / 100.0 * n) >= 10) best = p;
  }
  return best;
}

double Samples::sum() const {
  double s = 0;
  for (double v : values) s += v;
  return s;
}

double Samples::mean() const {
  return values.empty() ? 0 : sum() / static_cast<double>(values.size());
}

int SpanLog::open(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch_)
          .count());
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch_)
          .count());
  Span& s = spans_[static_cast<size_t>(index)];
  s.dur_us = now - s.start_us;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  Json events = Json::array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json e = Json::object();
    e.set("name", Json::string(s.name));
    e.set("ph", Json::string("X"));
    e.set("ts", Json::unsigned_integer(s.start_us));
    e.set("dur", Json::unsigned_integer(s.dur_us));
    e.set("pid", Json::integer(1));
    e.set("tid", Json::integer(1));
    Json args = Json::object();
    args.set("id", Json::unsigned_integer(i));
    args.set("parent", Json::integer(s.parent));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump() << "\n";
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Result::self_check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "perfbench: self-check failed: " << what << "\n";
}

void Result::print() const {
  std::cout << Json::object().set("detail", detail).dump() << "\n";
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

namespace {

double status_kb(const std::string& path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0;
}

}  // namespace

double self_peak_rss_mb() {
  return status_kb("/proc/self/status", "VmHWM") / 1024.0;
}

double peak_rss_mb(int pid) {
  return status_kb("/proc/" + std::to_string(pid) + "/status", "VmHWM") /
         1024.0;
}

double cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

unsigned cpu_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double probe_setup_s(const Options& opts, int runs) {
  Samples samples;
  for (int i = 0; i < runs; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    std::vector<std::string> args = {opts.self,         "--setup-probe",
                                     "--workload",      opts.workload,
                                     "--inputs",        opts.inputs};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const Clock::time_point t0 = Clock::now();
    const int rc = posix_spawn(&pid, opts.self.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      throw std::runtime_error("cannot spawn set-up probe");
    }
    std::string got;
    char buf[64];
    while (got.find('\n') == std::string::npos) {
      const ssize_t n = read(fds[0], buf, sizeof buf);
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
    }
    const double elapsed = seconds_since(t0);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got.rfind("ready", 0) != 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up probe failed");
    }
    samples.add(elapsed);
  }
  return samples.median();
}

Json host_context() {
  Json host = Json::object();
  host.set("nproc", Json::unsigned_integer(cpu_count()));
  host.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  host.set("cxx_flags", Json::string(PERFBENCH_CXX_FLAGS));
  host.set("compiler", Json::string(PERFBENCH_COMPILER));
  host.set("z3", Json::string(PERFBENCH_Z3_VERSION));
  return host;
}

}  // namespace perfbench
