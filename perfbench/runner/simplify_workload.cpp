// `simplify`: one `rewrite::simplifier` (the default concept rules, the
// derived-theorem rules for `x * 0` and `-(-x)`, and constant folding)
// simplifies seeded expression trees on the calling thread.
//
// Corpus (per seed): 512 expressions, 128 each of core depth 8, 16, 32 and
// 64, half over `int` and half over `double` variables.  A core tree is in
// normal form by construction: operators + - *, literals that are no
// identity or annihilator, and a variable under every operator, so no rule
// and no constant fold applies.  A quarter of the core nodes are then
// wrapped in a planted identity: `s + 0`, `0 + s`, `s * 1`, `1 * s`,
// `-(-s)` or `s + (t * 0)` with a throwaway subtree `t`.  The expected
// result is therefore the core, whose size is known.
//
// Check: the benchmark's own evaluator gives the same value for input and
// output at three seeded environments whose magnitudes keep every
// intermediate below 2^41 (the generator tracks the bound); the output is
// no larger than the core; simplifying the output again changes nothing.
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/parser.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

using cgp::rewrite::expr;

constexpr int kEnvs = 3;
const char* const kVars[] = {"a", "b", "c", "d"};
constexpr double kMaxBound = 1099511627776.0;  // 2^40

/// A generated subtree: its text, node count and a bound on |value| when
/// every variable is at most 2 in magnitude.
struct gen_node {
  std::string text;
  std::size_t size = 1;
  double bound = 0;
  bool has_var = false;
};

struct sample {
  std::string text;
  bool is_int = true;
  std::size_t core_size = 0;
  std::map<std::string, double> env[kEnvs];
};

class generator {
 public:
  generator(rng& r, bool is_int) : r_(r), int_(is_int) {}

  gen_node leaf(bool want_var) {
    gen_node n;
    if (want_var || r_.chance(50)) {
      n.text = kVars[r_.below(std::size(kVars))];
      n.bound = 2;
      n.has_var = true;
    } else if (int_) {
      const int v = 2 + static_cast<int>(r_.below(8));
      n.text = std::to_string(v);
      n.bound = v;
    } else {
      static const char* const kLits[] = {"2.0", "3.0", "0.5", "1.5", "2.5"};
      static const double kVals[] = {2.0, 3.0, 0.5, 1.5, 2.5};
      const std::size_t k = r_.below(5);
      n.text = kLits[k];
      n.bound = kVals[k];
    }
    return n;
  }

  /// A core tree of height `depth`: one deep child and one shallow child
  /// per level, a variable under every operator.
  gen_node core(int depth, bool plant) {
    if (depth == 0) return maybe_plant(leaf(false), plant);
    gen_node deep = core(depth - 1, plant);
    gen_node shallow =
        depth > 1 && r_.chance(30) ? core(1, plant) : leaf(!deep.has_var);
    if (!deep.has_var && !shallow.has_var) shallow = leaf(true);
    const bool deep_left = r_.chance(50);
    gen_node& lhs = deep_left ? deep : shallow;
    gen_node& rhs = deep_left ? shallow : deep;
    static const char* const kOps[] = {"+", "-", "*"};
    const char* op = kOps[r_.below(3)];
    if (op[0] == '*' && lhs.bound * rhs.bound > kMaxBound) op = "+";
    gen_node n;
    n.text = "(" + lhs.text + " " + op + " " + rhs.text + ")";
    n.size = 1 + lhs.size + rhs.size;
    n.bound = op[0] == '*' ? lhs.bound * rhs.bound : lhs.bound + rhs.bound;
    n.has_var = true;
    return maybe_plant(std::move(n), plant);
  }

 private:
  gen_node maybe_plant(gen_node s, bool plant) {
    if (!plant || !r_.chance(25)) return s;
    const std::string zero = int_ ? "0" : "0.0";
    const std::string one = int_ ? "1" : "1.0";
    gen_node out = s;  // size and bound of the reduced form are unchanged
    switch (r_.below(6)) {
      case 0: out.text = "(" + s.text + " + " + zero + ")"; break;
      case 1: out.text = "(" + zero + " + " + s.text + ")"; break;
      case 2: out.text = "(" + s.text + " * " + one + ")"; break;
      case 3: out.text = "(" + one + " * " + s.text + ")"; break;
      case 4: out.text = "-(-(" + s.text + "))"; break;
      default: {
        const gen_node t = core(1 + static_cast<int>(r_.below(2)), false);
        out.text = "(" + s.text + " + (" + t.text + " * " + zero + "))";
      }
    }
    return out;
  }

  rng& r_;
  bool int_;
};

std::vector<sample> make_samples(std::size_t per_depth, rng& r) {
  std::vector<sample> out;
  for (const int depth : {8, 16, 32, 64}) {
    for (std::size_t k = 0; k < per_depth; ++k) {
      sample s;
      s.is_int = k % 2 == 0;
      generator g(r, s.is_int);
      const gen_node n = g.core(depth, true);
      s.text = n.text;
      s.core_size = n.size;
      for (auto& env : s.env) {
        for (const char* v : kVars) {
          if (s.is_int) {
            static const double kInts[] = {-2, -1, 1, 2};
            env[v] = kInts[r.below(4)];
          } else {
            env[v] = (static_cast<double>(r.below(8)) - 4.0) / 2.0;
            if (env[v] == 0.0) env[v] = 2.0;
          }
        }
      }
      out.push_back(std::move(s));
    }
  }
  r.shuffle(out);
  return out;
}

/// The benchmark's own evaluator: int64 arithmetic with overflow checks,
/// or double arithmetic.  Returns nullopt on anything it does not know.
std::optional<double> evaluate(const expr& e,
                               const std::map<std::string, double>& env,
                               bool is_int) {
  using K = expr::kind;
  switch (e.node_kind()) {
    case K::variable: {
      const auto it = env.find(e.symbol());
      if (it == env.end()) return std::nullopt;
      return it->second;
    }
    case K::literal: {
      const auto& v = e.literal_value();
      if (const auto* i = std::get_if<std::int64_t>(&v))
        return static_cast<double>(*i);
      if (const auto* d = std::get_if<double>(&v)) return *d;
      return std::nullopt;
    }
    case K::unary: {
      if (e.symbol() != "-" || e.children().size() != 1) return std::nullopt;
      const auto x = evaluate(e.children()[0], env, is_int);
      if (!x) return std::nullopt;
      return -*x;
    }
    case K::binary: {
      const auto x = evaluate(e.children()[0], env, is_int);
      const auto y = evaluate(e.children()[1], env, is_int);
      if (!x || !y) return std::nullopt;
      if (is_int) {
        const auto a = static_cast<std::int64_t>(*x);
        const auto b = static_cast<std::int64_t>(*y);
        std::int64_t out = 0;
        bool overflow = true;
        if (e.symbol() == "+") overflow = __builtin_add_overflow(a, b, &out);
        if (e.symbol() == "-") overflow = __builtin_sub_overflow(a, b, &out);
        if (e.symbol() == "*") overflow = __builtin_mul_overflow(a, b, &out);
        if (overflow || std::abs(out) > (std::int64_t{1} << 52))
          return std::nullopt;
        return static_cast<double>(out);
      }
      if (e.symbol() == "+") return *x + *y;
      if (e.symbol() == "-") return *x - *y;
      if (e.symbol() == "*") return *x * *y;
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

cgp::rewrite::simplifier make_simplifier() {
  cgp::rewrite::simplifier s;
  s.add_default_concept_rules();
  for (auto& rule : cgp::rewrite::derived_theorem_rules())
    s.add_expr_rule(std::move(rule));
  s.enable_constant_folding();
  return s;
}

const std::map<std::string, std::string>& types_for(bool is_int) {
  static const std::map<std::string, std::string> kInt = {
      {"a", "int"}, {"b", "int"}, {"c", "int"}, {"d", "int"}};
  static const std::map<std::string, std::string> kDouble = {
      {"a", "double"}, {"b", "double"}, {"c", "double"}, {"d", "double"}};
  return is_int ? kInt : kDouble;
}

class simplify_workload final : public workload {
 public:
  void generate(std::uint64_t seed) override {
    rng r(seed);
    samples_ = make_samples(128, r);
    rng warm(seed ^ 0x5EEDF00DCAFEBABEull);
    warmup_ = make_samples(8, warm);
  }

  bool setup() override {
    simp_.emplace(make_simplifier());
    inputs_.clear();
    for (const sample& s : samples_)
      inputs_.push_back(cgp::rewrite::parse_expr(s.text, types_for(s.is_int)));
    outputs_ = inputs_;
    bool ok = true;
    for (const sample& s : warmup_) {
      const expr in = cgp::rewrite::parse_expr(s.text, types_for(s.is_int));
      ok = verify(s, in, simp_->simplify(in)) && ok;
    }
    return ok;
  }

  [[nodiscard]] std::size_t ops_per_round() const override {
    return samples_.size();
  }

  void run_op(std::size_t i, tracer* tr) override {
    tracer::scope s(tr, "rewrite.simplifier.simplify", "rewrite");
    outputs_[i] = simp_->simplify(inputs_[i]);
  }

  [[nodiscard]] double items(std::size_t) const override { return 1; }

  [[nodiscard]] bool check_op(std::size_t i, bool corrupt) override {
    const sample& s = samples_[i];
    expr out = outputs_[i];
    if (corrupt)
      out = expr::binary_op("+", out,
                            s.is_int ? expr::int_lit(1) : expr::double_lit(1.0));
    // The idempotence re-simplify is not part of the operation: keep its
    // counter increments out of the traced per-expression figures.
    const std::uint64_t passes0 = passes_.value();
    const std::uint64_t hits0 = memo_hits_.value();
    const std::uint64_t misses0 = memo_misses_.value();
    const bool ok = verify(s, inputs_[i], out);
    check_passes_ += passes_.value() - passes0;
    check_hits_ += memo_hits_.value() - hits0;
    check_misses_ += memo_misses_.value() - misses0;
    return ok;
  }

  void start_trace(tracer* tr) override {
    // rewrite.parse_ms: the conversion of the whole corpus, call by call.
    tracer::scope whole(tr, "rewrite.parse_corpus", "bench");
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      tracer::scope s(tr, "rewrite.parse_expr", "rewrite");
      const expr e =
          cgp::rewrite::parse_expr(samples_[i].text, types_for(samples_[i].is_int));
      reparse_agrees_ = reparse_agrees_ && e == inputs_[i];
    }
    passes0_ = passes_.value();
    hits0_ = memo_hits_.value();
    misses0_ = memo_misses_.value();
    rule_hits0_ = rule_hits();
    check_passes_ = check_hits_ = check_misses_ = 0;
  }

  bool finish_trace(tracer& tr, const phase_result& traced,
                    std::map<std::string, double>& m) override {
    const double ops = static_cast<double>(traced.attempted);
    const double passes =
        static_cast<double>(passes_.value() - passes0_ - check_passes_);
    const double hits =
        static_cast<double>(memo_hits_.value() - hits0_ - check_hits_);
    const double misses =
        static_cast<double>(memo_misses_.value() - misses0_ - check_misses_);
    m["rewrite.parse_ms"] = tr.total_ms("rewrite.parse_expr");
    m["rewrite.simplify_ms"] =
        ratio(tr.total_ms("rewrite.simplifier.simplify"), ops);
    m["rewrite.passes"] = ratio(passes, ops);
    m["rewrite.rule_hits"] =
        ratio(static_cast<double>(rule_hits() - rule_hits0_), ops);
    m["rewrite.memo_hit_ratio"] = ratio(hits, hits + misses);
    if (!reparse_agrees_)
      std::fprintf(stderr, "simplify: re-parsed corpus differs from setup's\n");
    return reparse_agrees_;
  }

 private:
  bool verify(const sample& s, const expr& in, const expr& out) const {
    if (out.size() > s.core_size) return false;
    for (const auto& env : s.env) {
      const auto want = evaluate(in, env, s.is_int);
      const auto got = evaluate(out, env, s.is_int);
      if (!want || !got || *want != *got) return false;
    }
    return simp_->simplify(out) == out;
  }

  static std::uint64_t rule_hits() {
    return cgp::telemetry::registry::global().counter_sum(
        "rewrite.simplifier.rule.");
  }

  std::vector<sample> samples_;
  std::vector<sample> warmup_;
  std::vector<expr> inputs_;
  std::vector<expr> outputs_;
  std::optional<cgp::rewrite::simplifier> simp_;

  cgp::telemetry::counter& passes_ =
      cgp::telemetry::registry::global().get_counter("rewrite.simplifier.passes");
  cgp::telemetry::counter& memo_hits_ =
      cgp::telemetry::registry::global().get_counter(
          "rewrite.simplifier.instantiation_cache_hits");
  cgp::telemetry::counter& memo_misses_ =
      cgp::telemetry::registry::global().get_counter(
          "rewrite.simplifier.instantiation_cache_misses");
  std::uint64_t passes0_ = 0, hits0_ = 0, misses0_ = 0, rule_hits0_ = 0;
  std::uint64_t check_passes_ = 0, check_hits_ = 0, check_misses_ = 0;
  bool reparse_agrees_ = true;
};

}  // namespace

std::unique_ptr<workload> make_simplify_workload() {
  return std::make_unique<simplify_workload>();
}

}  // namespace perfbench
