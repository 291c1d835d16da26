// perfbench_runner: runs one workload and prints one JSON line.
//
//   perfbench_runner --workload lint|simplify|wave|heartbeat --seed N
//                    --seconds S [--trace 0|1] [--corrupt 0|1]
//
// Untraced (--trace 0): set up nine times (setup_s is the median), then
// time whole rounds of operations for S seconds and at least 3 passes, and
// report the end-to-end metrics.
//
// Traced (--trace 1): set up, time half of S untraced, then the other
// half with the benchmark's spans around every library call (at least one
// pass each); report the per-layer metrics and the tracing overhead, print
// the per-layer table to stderr and write
// .bench_build/traces/<workload>.trace.json (Chrome trace events).
//
// --corrupt 1 damages the first operation's output before its check, so
// the run must report a failed operation.
#include <sched.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// --- tracer -------------------------------------------------------------------

void tracer::begin(const char* name, const char* category) {
  stack_.push_back({name, category, now_ns(), 0});
}

void tracer::end() {
  const std::int64_t stop = now_ns();
  const open_span s = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = stop - s.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  aggregate& a = agg_[s.name];
  a.category = s.category;
  a.count += 1;
  a.total_ns += dur;
  a.self_ns += dur - s.child_ns;
  if (events_.size() < kMaxKeptEvents)
    events_.push_back({s.name, s.category, s.start_ns, dur});
  else
    ++dropped_;
}

double tracer::total_ms(const std::string& name) const {
  const auto it = agg_.find(name);
  return it == agg_.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e6;
}

bool tracer::write_chrome_trace(const std::string& path,
                                const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = events_.empty() ? 0 : events_.front().start_ns;
  for (const event& e : events_) origin = std::min(origin, e.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"%s\","
                  "\"dropped_events\":%llu},\"traceEvents\":[\n",
               workload.c_str(), static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                  "\"args\":{\"name\":\"perfbench %s\"}}",
               workload.c_str());
  for (const event& e : events_)
    std::fprintf(f, ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 e.name, e.category,
                 static_cast<double>(e.start_ns - origin) / 1e3,
                 static_cast<double>(e.dur_ns) / 1e3);
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void tracer::print_table(std::FILE* out) const {
  std::fprintf(out, "%-34s %-12s %10s %12s %12s %12s\n", "span", "layer",
               "count", "total_ms", "self_ms", "self_us/call");
  std::vector<std::pair<std::string, aggregate>> rows(agg_.begin(), agg_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  for (const auto& [name, a] : rows)
    std::fprintf(out, "%-34s %-12s %10llu %12.3f %12.3f %12.3f\n", name.c_str(),
                 a.category.c_str(), static_cast<unsigned long long>(a.count),
                 static_cast<double>(a.total_ns) / 1e6,
                 static_cast<double>(a.self_ns) / 1e6,
                 static_cast<double>(a.self_ns) / 1e3 /
                     static_cast<double>(std::max<std::uint64_t>(1, a.count)));
}

namespace {

// --- run loop ---------------------------------------------------------------

/// Moves the calling thread to the next allowed CPU at every step, and
/// restores its CPU mask at the end.  The slowdowns described below are
/// per CPU and can last tens of seconds; visiting every CPU in turn lets
/// an operation's repetitions meet undisturbed ones.  Every workload's
/// operations run on the calling thread alone, so one CPU suffices.
class cpu_rotation {
 public:
  cpu_rotation() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    if (cpus_.size() < 2) cpus_.clear();
  }
  ~cpu_rotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  cpu_rotation(const cpu_rotation&) = delete;
  cpu_rotation& operator=(const cpu_rotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Runs whole passes over the round's operations until `seconds` of wall
/// time have passed and at least `min_passes` passes ran, keeping each
/// operation's fastest latency.
///
/// A shared virtual machine can slow every CPU by up to 2x in phases of
/// seconds, from load outside the process: the same operation takes 12 ms
/// in one second and 25 ms in the next.  A percentile of raw samples then
/// measures the neighbours.  Passes spread each operation's
/// repetitions over the whole run, and the fastest of them estimates what
/// the operation costs on an undisturbed CPU; the percentiles across
/// operations then describe the inputs, not the noise.
phase_result run_phase(workload& w, double seconds, std::uint64_t min_passes,
                       tracer* tr, bool corrupt) {
  phase_result r;
  const std::size_t n = w.ops_per_round();
  r.best_ns.assign(n, 0);
  r.items.assign(n, 0);
  cpu_rotation rotate;
  const std::int64_t start = now_ns();
  const auto limit = static_cast<std::int64_t>(seconds * 1e9);
  do {
    rotate.next();
    w.begin_round();
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t t0 = now_ns();
      w.run_op(i, tr);
      const auto ns = static_cast<double>(now_ns() - t0);
      if (r.passes == 0 || ns < r.best_ns[i]) r.best_ns[i] = ns;
      r.items[i] = w.items(i);
      r.attempted += 1;
      const bool damage = corrupt && r.attempted == 1;
      if (!w.check_op(i, damage)) r.failed += 1;
    }
    w.end_round(tr);
    r.passes += 1;
  } while (now_ns() - start < limit || r.passes < min_passes);
  return r;
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

double mean(const std::vector<double>& v) {
  return sum(v) / static_cast<double>(v.size());
}

/// This process's peak resident set (VmHWM).  getrusage's ru_maxrss is not
/// used: Linux carries the forking parent's peak across exec into it.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

std::unique_ptr<workload> make_workload(const std::string& name) {
  if (name == "lint") return make_lint_workload();
  if (name == "simplify") return make_simplify_workload();
  if (name == "wave") return make_wave_workload();
  if (name == "heartbeat") return make_heartbeat_workload();
  return nullptr;
}

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
};

/// Where the traced run writes <workload>.trace.json, relative to the
/// checkout root run.py runs from.
constexpr const char* kTraceDir = ".bench_build/traces";

bool parse_args(int argc, char** argv, args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--corrupt") a.corrupt = std::strcmp(v, "0") != 0;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

int run(const args& a) {
  std::unique_ptr<workload> w = make_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  w->generate(a.seed);

  // setup_s is the median of several set-ups, each on the next CPU; the
  // first of them is the cold one from the workload's start.
  constexpr int kSetups = 9;
  bool correct = true;
  std::vector<double> setup_s;
  {
    cpu_rotation rotate;
    for (int k = 0; k < kSetups; ++k) {
      rotate.next();
      const std::int64_t t0 = now_ns();
      correct = w->setup() && correct;
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  }
  if (!correct) std::fprintf(stderr, "%s: warm-up output wrong\n", a.workload.c_str());

  std::map<std::string, double> m;
  if (!a.trace) {
    const phase_result r = run_phase(*w, a.seconds, 3, nullptr, a.corrupt);
    m["setup_s"] = median(setup_s);
    m["items_per_s"] = sum(r.items) / (sum(r.best_ns) / 1e9);
    m["op_p50_ms"] = percentile(r.best_ns, 0.5) / 1e6;
    m["op_p90_ms"] = percentile(r.best_ns, 0.9) / 1e6;
    m["peak_rss_mb"] = peak_rss_mb();
    m["mean_op_ns"] = mean(r.best_ns);
    print_result(correct, r.attempted, r.failed, m);
    return 0;
  }

  // Traced run: an untraced half, then a traced half over the same rounds.
  const phase_result plain = run_phase(*w, a.seconds / 2, 1, nullptr, a.corrupt);
  tracer tr;
  w->start_trace(&tr);
  const phase_result traced = run_phase(*w, a.seconds / 2, 1, &tr, false);
  correct = w->finish_trace(tr, traced, m) && correct;
  const double plain_mean = mean(plain.best_ns);
  const double traced_mean = mean(traced.best_ns);
  m["bench.trace_overhead"] = traced_mean / plain_mean;
  m["mean_op_ns"] = plain_mean;

  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  const std::string path = std::string(kTraceDir) + "/" + a.workload + ".trace.json";
  if (!tr.write_chrome_trace(path, a.workload)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    correct = false;
  }
  std::fprintf(stderr, "per-layer spans, workload %s (trace: %s)\n",
               a.workload.c_str(), path.c_str());
  tr.print_table(stderr);
  std::fprintf(stderr, "tracing overhead: %.3fx per operation (%.1f us traced vs "
                       "%.1f us untraced)\n",
               traced_mean / plain_mean, traced_mean / 1e3, plain_mean / 1e3);
  print_result(correct, plain.attempted + traced.attempted,
               plain.failed + traced.failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fix this process's address-space layout: with randomization on, the
  // same binary and inputs differ by up to 10% from process to process,
  // which would drown the differences the benchmark is there to show.
  // The flag only affects this process; re-exec once so it takes effect.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1)
    execv("/proc/self/exe", argv);  // on failure, run with the layout we have
  perfbench::args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload lint|simplify|wave|heartbeat --seed N "
                 "--seconds S [--trace 0|1] [--corrupt 0|1]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
