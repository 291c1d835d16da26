// Shared pieces of the end-to-end benchmark runner: the seeded input
// generator, the workload interface the run loop drives, and the
// benchmark's own span recorder for the traced run.
//
// The runner only calls the libraries' public functions.  Every span is
// recorded here, around such a call, never inside the program.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_type::now().time_since_epoch())
      .count();
}

/// splitmix64: the whole input corpus of a run derives from `--seed`
/// through this generator, so one seed always yields one input set.
class rng {
 public:
  explicit rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  bool chance(unsigned percent) { return below(100) < percent; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// Records spans at the boundaries of calls into the libraries, keeps
/// them in memory, and aggregates per-name total and self time (self =
/// duration minus the time covered by child spans).  Single-threaded: the
/// runner only records on the calling thread.
class tracer {
 public:
  struct aggregate {
    std::string category;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// RAII span; a null tracer makes it a no-op, so the timed code path is
  /// the same function in traced and untraced runs.
  class scope {
   public:
    scope(tracer* t, const char* name, const char* category)
        : t_(t) {
      if (t_ != nullptr) t_->begin(name, category);
    }
    ~scope() {
      if (t_ != nullptr) t_->end();
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer* t_;
  };

  void begin(const char* name, const char* category);
  void end();

  /// Total duration of the spans named `name`, in milliseconds.
  [[nodiscard]] double total_ms(const std::string& name) const;

  /// Writes the kept spans as a Chrome trace-event document (complete
  /// "X" events, microsecond timestamps) that Perfetto opens directly.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& workload) const;

  /// Prints the per-span-name table of counts, total and self time.
  void print_table(std::FILE* out) const;

 private:
  struct open_span {
    const char* name;
    const char* category;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct event {
    const char* name;
    const char* category;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  static constexpr std::size_t kMaxKeptEvents = 200000;

  std::vector<open_span> stack_;
  std::vector<event> events_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, aggregate> agg_;
};

/// Result of one timed phase: each operation's fastest latency over the
/// passes, and the work and check counts.
struct phase_result {
  std::vector<double> best_ns;  ///< per operation of the round
  std::vector<double> items;    ///< work items per operation
  std::uint64_t passes = 0;
  std::uint64_t attempted = 0;  ///< operations run, over all passes
  std::uint64_t failed = 0;
};

/// One workload.  The run loop (main.cpp) owns timing: it calls `run_op`
/// between two clock reads and `check_op` outside them.
class workload {
 public:
  virtual ~workload() = default;
  /// Builds the benchmark's own inputs from the seed (not part of setup).
  virtual void generate(std::uint64_t seed) = 0;
  /// Program set-up: long-lived objects, conversion of inputs into the
  /// program's own form, one untimed warm-up pass.  Called several times;
  /// each call replaces the previous state.  Returns false if the warm-up
  /// pass produced a wrong output.
  virtual bool setup() = 0;
  /// Operations in one round; every run attempts whole rounds.
  [[nodiscard]] virtual std::size_t ops_per_round() const = 0;
  /// Untimed per-round preparation.
  virtual void begin_round() {}
  /// The timed operation `i` of the round.
  virtual void run_op(std::size_t i, tracer* tr) = 0;
  /// Work items (units, expressions, messages) operation `i` completed.
  [[nodiscard]] virtual double items(std::size_t i) const = 0;
  /// Untimed check of operation `i`'s output; `corrupt` damages the output
  /// first (the self-test uses it to show the check can fail).
  [[nodiscard]] virtual bool check_op(std::size_t i, bool corrupt) = 0;
  /// Untimed end-of-round work (traced runs: decomposition passes).
  virtual void end_round(tracer* tr) { (void)tr; }
  /// Traced run only: called before and after the traced phase, to take
  /// counter deltas; `finish_trace` adds per-layer metrics and returns
  /// false if a cross-check failed.
  virtual void start_trace(tracer* tr) { (void)tr; }
  virtual bool finish_trace(tracer& tr, const phase_result& traced,
                            std::map<std::string, double>& metrics) = 0;
};

// The four workloads (one translation unit each).
[[nodiscard]] std::unique_ptr<workload> make_lint_workload();
[[nodiscard]] std::unique_ptr<workload> make_simplify_workload();
[[nodiscard]] std::unique_ptr<workload> make_wave_workload();
[[nodiscard]] std::unique_ptr<workload> make_heartbeat_workload();

/// Per-layer metric helpers shared by the workloads.
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

}  // namespace perfbench
