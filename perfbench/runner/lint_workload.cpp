// `lint`: a build daemon re-linting MiniCpp translation units through one
// `stllint::lint_service` on the calling thread.
//
// Corpus (per seed): 480 distinct units, 30 of each size from 1 to 16
// functions, half of them clean and half with exactly one planted defect.
// The function templates are drawn from a fixed multiset, so every seed
// has the same make-up and only the arrangement and constants change.
// 160 extra requests repeat an earlier unit (a quarter of all requests),
// giving 640 requests per round.  Each round starts a fresh service, so
// the first lint of a unit is an analysis miss and its repeats are cache
// hits.
//
// Check: each unit's warnings and advisories (kind and line) must equal
// its planted answer, errors never appear, and a repeat must return the
// very summary object its first lint cached.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stllint/lexer.hpp"
#include "stllint/parser.hpp"
#include "stllint/service.hpp"
#include "stllint/stllint.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

using cgp::stllint::severity;

// Diagnostic kinds, as stable fragments of the analyzer's messages.
constexpr const char* kSingular = "attempt to dereference a singular iterator";
constexpr const char* kPastEnd =
    "attempt to dereference a past-the-end iterator";
constexpr const char* kUnsorted =
    "requires the range [first, last) to be sorted";
constexpr const char* kRandomAccess =
    "'sort' requires a model of RandomAccessIterator";
constexpr const char* kSecondPass = "second traversal of single-pass sequence";
constexpr const char* kLinearSearch = "the incoming sequence [first, last) is sorted";

const char* const kKinds[] = {kSingular,      kPastEnd,   kUnsorted,
                              kRandomAccess,  kSecondPass, kLinearSearch};

/// One function template.  `@` is replaced by the function's suffix, which
/// names its unit, and `#` by a seeded constant in [2, 9].  A defect template names the one
/// diagnostic it must produce, on a line relative to its first line.
struct fn_template {
  const char* text;
  int defect_line;  // 0: clean
  severity sev;
  const char* kind;
};

const fn_template kClean[] = {
    {R"(int sum_@(vector<int>& v) {
  int total = 0;
  vector<int>::iterator it = v.begin();
  while (it != v.end()) {
    total = total + deref(*it);
    ++it;
  }
  return total;
})",
     0, severity::warning, nullptr},
    {R"(vector<student_info> extract_@(vector<student_info>& students) {
  vector<student_info> fail;
  vector<student_info>::iterator iter = students.begin();
  while (iter != students.end()) {
    if (fgrade(*iter)) {
      fail.push_back(*iter);
      iter = students.erase(iter);
    } else
      ++iter;
  }
  return fail;
})",
     0, severity::warning, nullptr},
    {R"(void fill_@(vector<int>& v, int n) {
  for (int i = 0; i < n; ++i) v.push_back(i * #);
  sort(v.begin(), v.end());
  bool found = binary_search(v.begin(), v.end(), #);
})",
     0, severity::warning, nullptr},
    {R"(void look_@(list<int>& l) {
  list<int>::iterator i = find(l.begin(), l.end(), #);
  if (i != l.end()) {
    use(*i);
  }
})",
     0, severity::warning, nullptr},
    {R"(void lower_@(vector<int>& v) {
  sort(v.begin(), v.end());
  vector<int>::iterator i = lower_bound(v.begin(), v.end(), #);
})",
     0, severity::warning, nullptr},
    {R"(void walk_@(list<double>& l) {
  for (list<double>::iterator it = l.begin(); it != l.end(); ++it) {
    use(*it);
  }
})",
     0, severity::warning, nullptr},
};

const fn_template kDefect[] = {
    {R"(vector<student_info> extract_@(vector<student_info>& students) {
  vector<student_info> fail;
  vector<student_info>::iterator iter = students.begin();
  while (iter != students.end()) {
    if (fgrade(*iter)) {
      fail.push_back(*iter);
      students.erase(iter);
    } else
      ++iter;
  }
  return fail;
})",
     5, severity::warning, kSingular},
    {R"(void grow_@(vector<int>& v) {
  vector<int>::iterator it = v.begin();
  v.push_back(#);
  use(*it);
})",
     4, severity::warning, kSingular},
    {R"(void lookup_@(vector<int>& v) {
  sort(v.begin(), v.end());
  vector<int>::iterator i = find(v.begin(), v.end(), #);
})",
     3, severity::advice, kLinearSearch},
    {R"(void probe_@() {
  vector<int> v;
  v.push_back(#);
  v.push_back(1);
  bool found = binary_search(v.begin(), v.end(), 2);
})",
     5, severity::warning, kUnsorted},
    {R"(void order_@(list<double>& l) {
  sort(l.begin(), l.end());
})",
     2, severity::warning, kRandomAccess},
    {R"(void scan_@(input_stream<int>& s) {
  find(s.begin(), s.end(), #);
  find(s.begin(), s.end(), 1);
})",
     3, severity::warning, kSecondPass},
    {R"(void tail_@(vector<int>& v) {
  use(*v.end());
})",
     2, severity::warning, kPastEnd},
};

constexpr std::size_t kCleanCount = std::size(kClean);
constexpr std::size_t kDefectCount = std::size(kDefect);

struct expected_diag {
  severity sev;
  const char* kind;
  int line;
};

struct unit {
  std::string source;
  std::vector<expected_diag> expected;  // empty for a clean unit
};

std::string instantiate(const char* text, const std::string& suffix, rng& r) {
  std::string out;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '@')
      out += suffix;
    else if (*p == '#')
      out += std::to_string(2 + r.below(8));
    else
      out += *p;
  }
  return out;
}

int line_count(const std::string& s) {
  return static_cast<int>(std::count(s.begin(), s.end(), '\n'));
}

/// Builds `per_size` units of every size 1..16, half clean, from a fixed
/// multiset of templates shuffled by `r`.  Function `f` of unit `k` is
/// named `<template>_<prefix><k>_<f>`, so no two units share a source text
/// and every first lint is an analysis miss.
std::vector<unit> make_units(std::size_t per_size, const char* prefix, rng& r) {
  constexpr std::size_t kMaxSize = 16;
  std::size_t functions = 0;
  for (std::size_t s = 1; s <= kMaxSize; ++s) functions += s * per_size;
  const std::size_t defects = kMaxSize * (per_size / 2);
  std::vector<std::size_t> clean_pick, defect_pick;
  for (std::size_t k = 0; k < functions - defects; ++k)
    clean_pick.push_back(k % kCleanCount);
  for (std::size_t k = 0; k < defects; ++k) defect_pick.push_back(k % kDefectCount);
  r.shuffle(clean_pick);
  r.shuffle(defect_pick);

  std::vector<unit> units;
  for (std::size_t size = 1; size <= kMaxSize; ++size) {
    for (std::size_t u = 0; u < per_size; ++u) {
      const bool defective = u < per_size / 2;
      const std::size_t defect_at = defective ? r.below(size) : size;
      unit out;
      const std::string name = prefix + std::to_string(units.size()) + "_";
      for (std::size_t f = 0; f < size; ++f) {
        const int first_line = line_count(out.source) + 1;
        const std::string suffix = name + std::to_string(f);
        if (f == defect_at) {
          const fn_template& t = kDefect[defect_pick.back()];
          defect_pick.pop_back();
          out.source += instantiate(t.text, suffix, r);
          out.expected.push_back({t.sev, t.kind, first_line + t.defect_line - 1});
        } else {
          out.source += instantiate(kClean[clean_pick.back()].text, suffix, r);
          clean_pick.pop_back();
        }
        out.source += "\n\n";
      }
      units.push_back(std::move(out));
    }
  }
  r.shuffle(units);
  return units;
}

/// True when `diags` holds exactly the expected warnings and advisories
/// and no error.
bool matches(const cgp::stllint::diagnostics& diags,
             const std::vector<expected_diag>& expected) {
  std::vector<bool> used(expected.size(), false);
  for (const auto& d : diags) {
    if (d.sev == severity::error) return false;
    if (d.sev != severity::warning && d.sev != severity::advice) continue;
    const char* kind = nullptr;
    for (const char* k : kKinds)
      if (d.message.find(k) != std::string::npos) kind = k;
    bool found = false;
    for (std::size_t e = 0; e < expected.size() && !found; ++e) {
      if (!used[e] && expected[e].sev == d.sev && expected[e].kind == kind &&
          expected[e].line == d.line) {
        used[e] = true;
        found = true;
      }
    }
    if (!found) return false;
  }
  return std::all_of(used.begin(), used.end(), [](bool b) { return b; });
}

std::uint64_t counter_value(const char* name) {
  return cgp::telemetry::registry::global().get_counter(name).value();
}

class lint_workload final : public workload {
 public:
  void generate(std::uint64_t seed) override {
    rng r(seed);
    units_ = make_units(30, "u", r);
    rng warm(seed ^ 0xA5A5A5A5DEADBEEFull);
    warmup_ = make_units(2, "w", warm);
    // 160 repeats among 640 requests; a repeat names a unit already sent.
    std::vector<int> slots(units_.size(), 1);
    slots.resize(units_.size() + units_.size() / 3, 0);
    r.shuffle(slots);
    if (slots.front() == 0)
      std::swap(slots.front(), *std::find(slots.begin(), slots.end(), 1));
    std::size_t next_new = 0;
    requests_.clear();
    for (const int fresh : slots)
      requests_.push_back(fresh != 0 ? next_new++ : r.below(next_new));
    first_of_.assign(units_.size(), requests_.size());
    for (std::size_t i = 0; i < requests_.size(); ++i)
      if (first_of_[requests_[i]] == requests_.size()) first_of_[requests_[i]] = i;
    results_.assign(requests_.size(), nullptr);
  }

  bool setup() override {
    service_.emplace();
    bool ok = true;
    for (const unit& u : warmup_)
      ok = matches(service_->lint(u.source).diags, u.expected) && ok;
    return ok;
  }

  [[nodiscard]] std::size_t ops_per_round() const override {
    return requests_.size();
  }

  void begin_round() override { service_.emplace(); }

  void run_op(std::size_t i, tracer* tr) override {
    tracer::scope s(tr, "stllint.lint_service.lint", "stllint");
    results_[i] = &service_->lint(units_[requests_[i]].source);
  }

  [[nodiscard]] double items(std::size_t) const override { return 1; }

  [[nodiscard]] bool check_op(std::size_t i, bool corrupt) override {
    const cgp::stllint::lint_result* got = results_[i];
    const unit& u = units_[requests_[i]];
    if (first_of_[requests_[i]] != i && got != results_[first_of_[requests_[i]]])
      return false;
    if (!corrupt) return matches(got->diags, u.expected);
    cgp::stllint::diagnostics damaged = got->diags;
    damaged.push_back({severity::warning, 1, 1, kPastEnd, "", 0, {}});
    return matches(damaged, u.expected);
  }

  void start_trace(tracer*) override {
    hits0_ = counter_value("stllint.service.cache_hits");
    misses0_ = counter_value("stllint.service.cache_misses");
  }

  // The traced run splits lint_source into its public stages over the
  // round's distinct units: the service is a black box, so the per-stage
  // times come from calling the stages themselves.
  void end_round(tracer* tr) override {
    if (tr == nullptr) return;
    for (std::size_t u = 0; u < units_.size(); ++u) {
      tracer::scope whole(tr, "stllint.lint_source", "bench");
      const std::string& src = units_[u].source;
      cgp::stllint::diagnostics diags;
      std::vector<cgp::stllint::token> toks;
      {
        tracer::scope s(tr, "stllint.tokenize", "stllint");
        toks = cgp::stllint::tokenize(src, diags);
      }
      cgp::stllint::ast_program program;
      {
        tracer::scope s(tr, "stllint.parse", "stllint");
        program = cgp::stllint::parse(toks, diags);
      }
      std::vector<std::string> lines;
      {
        tracer::scope s(tr, "stllint.source_lines", "stllint");
        lines = cgp::stllint::source_lines(src);
      }
      cgp::stllint::analyzer a;
      {
        tracer::scope s(tr, "stllint.analyzer.run", "stllint");
        a.run(program, lines);
      }
      for (const auto& d : a.diags()) diags.push_back(d);
      staged_agree_ =
          staged_agree_ && diags == results_[first_of_[u]]->diags;
      tokens_ += static_cast<double>(toks.size());
      statements_ += static_cast<double>(a.statistics().statements);
      loop_passes_ += static_cast<double>(a.statistics().loop_passes);
      ++staged_units_;
    }
  }

  bool finish_trace(tracer& tr, const phase_result&,
                    std::map<std::string, double>& m) override {
    const double hits =
        static_cast<double>(counter_value("stllint.service.cache_hits") - hits0_);
    const double misses = static_cast<double>(
        counter_value("stllint.service.cache_misses") - misses0_);
    const double n = staged_units_;
    m["stllint.lex_ms"] = ratio(tr.total_ms("stllint.tokenize"), n);
    m["stllint.parse_ms"] = ratio(tr.total_ms("stllint.parse"), n);
    m["stllint.analyze_ms"] = ratio(tr.total_ms("stllint.analyzer.run"), n);
    m["stllint.tokens"] = ratio(tokens_, n);
    m["stllint.statements"] = ratio(statements_, n);
    m["stllint.loop_passes"] = ratio(loop_passes_, n);
    m["stllint.cache_hit_ratio"] = ratio(hits, hits + misses);
    if (!staged_agree_)
      std::fprintf(stderr, "lint: staged pipeline disagrees with lint_service\n");
    return staged_agree_;
  }

 private:
  std::vector<unit> units_;
  std::vector<unit> warmup_;
  std::vector<std::size_t> requests_;  // unit index per request
  std::vector<std::size_t> first_of_;  // first request of each unit
  std::vector<const cgp::stllint::lint_result*> results_;
  std::optional<cgp::stllint::lint_service> service_;

  std::uint64_t hits0_ = 0, misses0_ = 0;
  double tokens_ = 0, statements_ = 0, loop_passes_ = 0, staged_units_ = 0;
  bool staged_agree_ = true;
};

}  // namespace

std::unique_ptr<workload> make_lint_workload() {
  return std::make_unique<lint_workload>();
}

}  // namespace perfbench
