// `wave` and `heartbeat`: one operation is a complete simulation through
// the distributed runtime's public API — construct the transport, spawn
// the algorithm, run it.
//
// wave: `echo_wave(root)` on a 256-node ring on `sim_transport`.  At most
// two nodes are active per round, so the time goes to supersteps over idle
// nodes.  A round is 100 simulations from seeded roots and network seeds.
// Check: messages_total is exactly 2 x the ring's edge count, the root
// decides `done`, and every other node's `parent` is its ring neighbour one
// hop closer to the root (the benchmark's own ring distance).
//
// heartbeat: `heartbeat_detector(3)` for 3 rounds on a 24 x 24 torus
// (576 nodes, 6,912 beats) on `sim_transport`.  Every node beats to
// every neighbour each round, so the time goes to the message path: tags,
// payloads, arenas, routing.  A round is 100 simulations with seeded
// network seeds.  The traced run also runs the simulation on every
// backend (sim, parallel and stealing with 2 workers, inproc) and
// requires identical statistics and decisions.
// Check: messages_total is rounds x the sum of the torus degrees the
// benchmark derives itself; each node received (rounds - 1) x its degree
// beats (the last round's beats are still in flight when the run stops)
// and sent rounds x its degree; nobody decides `suspects:`.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "distributed/algorithms.hpp"
#include "distributed/inproc_transport.hpp"
#include "distributed/network.hpp"
#include "distributed/parallel_transport.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

namespace dist = cgp::distributed;

/// Span names of one simulation: the timed operations' spans, and the
/// traced heartbeat's backend sweep, whose spans are kept apart so that
/// they do not enter the per-simulation figures.
struct span_names {
  const char* simulation;
  const char* construct;
  const char* spawn;
  const char* run;
};
constexpr span_names kOpSpans{"bench.simulation", "distributed.construct",
                              "distributed.spawn", "distributed.run"};
constexpr span_names kSweepSpans{"bench.sweep.simulation",
                                 "distributed.sweep.construct",
                                 "distributed.sweep.spawn", "distributed.sweep.run"};

/// Common run loop of one simulation with spans around each public call.
template <class Transport>
std::unique_ptr<Transport> simulate(const dist::net_options& opts,
                                    const dist::process_factory& algo,
                                    std::size_t max_rounds, tracer* tr,
                                    const span_names& names = kOpSpans) {
  tracer::scope op(tr, names.simulation, "bench");
  std::unique_ptr<Transport> net;
  {
    tracer::scope s(tr, names.construct, "distributed");
    net = std::make_unique<Transport>(opts);
  }
  {
    tracer::scope s(tr, names.spawn, "distributed");
    net->spawn(algo);
  }
  {
    tracer::scope s(tr, names.run, "distributed");
    (void)net->run(max_rounds);
  }
  return net;
}

double delivered(const dist::run_stats& st) {
  const auto rec = st.received_span();
  return static_cast<double>(std::accumulate(rec.begin(), rec.end(), std::size_t{0}));
}

/// Simulations in one set-up's warm-up pass.  One simulation is about a
/// millisecond, too little work for a set-up time that repeats.
constexpr std::size_t kWarmups = 8;

/// Shared traced-run bookkeeping of the two simulation workloads.
class sim_workload : public workload {
 protected:
  void note_run(const dist::run_stats& st, std::size_t nodes) {
    sims_ += 1;
    rounds_ += static_cast<double>(st.rounds);
    messages_ += static_cast<double>(st.messages_total);
    node_rounds_ += static_cast<double>(st.rounds) * static_cast<double>(nodes);
  }

  void distributed_metrics(tracer& tr, std::map<std::string, double>& m) const {
    const double run_ms = tr.total_ms("distributed.run");
    m["distributed.construct_ms"] = ratio(tr.total_ms("distributed.construct"), sims_);
    m["distributed.spawn_ms"] = ratio(tr.total_ms("distributed.spawn"), sims_);
    m["distributed.run_ms"] = ratio(run_ms, sims_);
    m["distributed.ns_per_message"] = ratio(run_ms * 1e6, messages_);
    m["distributed.ns_per_node_round"] = ratio(run_ms * 1e6, node_rounds_);
    m["distributed.rounds"] = ratio(rounds_, sims_);
    m["distributed.messages"] = ratio(messages_, sims_);
  }

  bool tracing_ = false;
  double sims_ = 0, rounds_ = 0, messages_ = 0, node_rounds_ = 0;
};

// --- wave -----------------------------------------------------------------

class wave_workload final : public sim_workload {
 public:
  static constexpr std::size_t kNodes = 256;
  static constexpr std::size_t kOps = 100;

  void generate(std::uint64_t seed) override {
    rng r(seed);
    for (auto& op : ops_) {
      op.root = static_cast<int>(r.below(kNodes));
      op.seed = static_cast<std::uint32_t>(r.next());
    }
    warm_seed_ = static_cast<std::uint32_t>(r.next());
  }

  bool setup() override {
    bool ok = true;
    for (std::size_t k = 0; k < kWarmups; ++k) {
      const auto root = static_cast<int>(k * kNodes / kWarmups);
      auto net = simulate<dist::sim_transport>(
          options(warm_seed_ + static_cast<std::uint32_t>(k)),
          dist::echo_wave(root), kMaxRounds, nullptr);
      ok = verify(*net, root, false) && ok;
    }
    return ok;
  }

  [[nodiscard]] std::size_t ops_per_round() const override { return kOps; }

  void run_op(std::size_t i, tracer* tr) override {
    nets_[i] = simulate<dist::sim_transport>(
        options(ops_[i].seed), dist::echo_wave(ops_[i].root), kMaxRounds, tr);
  }

  [[nodiscard]] double items(std::size_t i) const override {
    return delivered(nets_[i]->stats());
  }

  [[nodiscard]] bool check_op(std::size_t i, bool corrupt) override {
    const bool ok = verify(*nets_[i], ops_[i].root, corrupt);
    if (tracing_) note_run(nets_[i]->stats(), kNodes);
    nets_[i].reset();
    return ok;
  }

  void start_trace(tracer*) override { tracing_ = true; }

  bool finish_trace(tracer& tr, const phase_result&,
                    std::map<std::string, double>& m) override {
    tracing_ = false;
    distributed_metrics(tr, m);
    return true;
  }

 private:
  static constexpr std::size_t kMaxRounds = 100000;

  static dist::net_options options(std::uint32_t seed) {
    return {.nodes = kNodes, .topo = dist::topology::ring, .seed = seed};
  }

  static std::size_t ring_distance(std::size_t a, std::size_t b) {
    const std::size_t d = a > b ? a - b : b - a;
    return std::min(d, kNodes - d);
  }

  static bool verify(const dist::sim_transport& net, int root, bool corrupt) {
    const std::size_t ring_edges = kNodes;  // a cycle has n edges
    if (net.stats().messages_total != 2 * ring_edges) return false;
    if (net.decision(root, "done") != std::optional<long>(1)) return false;
    for (std::size_t v = 0; v < kNodes; ++v) {
      if (static_cast<int>(v) == root) continue;
      const auto parent = net.decision(static_cast<int>(v), "parent");
      if (!parent || *parent < 0 || static_cast<std::size_t>(*parent) >= kNodes)
        return false;
      auto p = static_cast<std::size_t>(*parent);
      if (corrupt && v == (static_cast<std::size_t>(root) + 1) % kNodes)
        p = (v + 1) % kNodes;  // points away from the root
      const auto r = static_cast<std::size_t>(root);
      if (ring_distance(p, v) != 1) return false;
      if (ring_distance(p, r) + 1 != ring_distance(v, r)) return false;
    }
    return true;
  }

  struct op_input {
    int root = 0;
    std::uint32_t seed = 0;
  };
  op_input ops_[kOps];
  std::uint32_t warm_seed_ = 0;
  std::unique_ptr<dist::sim_transport> nets_[kOps];
};

// --- heartbeat --------------------------------------------------------------

class heartbeat_workload final : public sim_workload {
 public:
  static constexpr std::size_t kSide = 24;
  static constexpr std::size_t kNodes = kSide * kSide;
  static constexpr std::size_t kRounds = 3;
  static constexpr std::size_t kTimeout = 3;
  static constexpr unsigned kWorkers = 2;  // threaded backends, traced run
  static constexpr std::size_t kOps = 100;
  static constexpr std::size_t kSweepRuns = 8;

  void generate(std::uint64_t seed) override {
    rng r(seed);
    for (auto& s : seeds_) s = static_cast<std::uint32_t>(r.next());
    warm_seed_ = static_cast<std::uint32_t>(r.next());
    // The torus as the benchmark builds it: node (row, col) links to its
    // four wrap-around neighbours, all distinct for a side of 3 or more.
    degree_.assign(kNodes, 0);
    for (std::size_t v = 0; v < kNodes; ++v) {
      const std::size_t row = v / kSide, col = v % kSide;
      const std::size_t nb[] = {row * kSide + (col + 1) % kSide,
                                row * kSide + (col + kSide - 1) % kSide,
                                ((row + 1) % kSide) * kSide + col,
                                ((row + kSide - 1) % kSide) * kSide + col};
      std::vector<std::size_t> distinct(std::begin(nb), std::end(nb));
      std::sort(distinct.begin(), distinct.end());
      degree_[v] = static_cast<std::size_t>(
          std::unique(distinct.begin(), distinct.end()) - distinct.begin());
    }
    degree_sum_ = std::accumulate(degree_.begin(), degree_.end(), std::size_t{0});
  }

  bool setup() override {
    bool ok = true;
    for (std::size_t k = 0; k < kWarmups; ++k) {
      auto net = simulate<dist::sim_transport>(
          options(warm_seed_ + static_cast<std::uint32_t>(k)),
          dist::heartbeat_detector(kTimeout), kRounds, nullptr);
      ok = verify(*net, false) && ok;
    }
    return ok;
  }

  [[nodiscard]] std::size_t ops_per_round() const override { return kOps; }

  void run_op(std::size_t i, tracer* tr) override {
    nets_[i] = simulate<dist::sim_transport>(
        options(seeds_[i]), dist::heartbeat_detector(kTimeout), kRounds, tr);
  }

  [[nodiscard]] double items(std::size_t i) const override {
    return delivered(nets_[i]->stats());
  }

  [[nodiscard]] bool check_op(std::size_t i, bool corrupt) override {
    const bool ok = verify(*nets_[i], corrupt);
    if (tracing_) note_run(nets_[i]->stats(), kNodes);
    nets_[i].reset();
    return ok;
  }

  void start_trace(tracer*) override { tracing_ = true; }

  bool finish_trace(tracer& tr, const phase_result&,
                    std::map<std::string, double>& m) override {
    tracing_ = false;
    distributed_metrics(tr, m);
    return backend_sweep(tr, m);
  }

 private:
  static dist::net_options options(std::uint32_t seed) {
    return {.nodes = kNodes,
            .topo = dist::topology::torus,
            .seed = seed,
            .workers = kWorkers};
  }

  bool verify(const dist::net_base& net, bool corrupt) const {
    const dist::run_stats& st = net.stats();
    if (st.messages_total != kRounds * degree_sum_) return false;
    const auto sent = st.sent_span();
    const auto rec = st.received_span();
    if (sent.size() != kNodes || rec.size() != kNodes) return false;
    for (std::size_t v = 0; v < kNodes; ++v) {
      std::size_t got = rec[v];
      if (corrupt && v == 0) ++got;
      if (got != (kRounds - 1) * degree_[v]) return false;
      if (sent[v] != kRounds * degree_[v]) return false;
    }
    for (const auto& [key, value] : net.all_decisions())
      if (key.second.rfind("suspects:", 0) == 0) return false;
    return true;
  }

  /// Traced run only: the same simulations on every backend, timed, with
  /// identical statistics and decisions required.  The parallel layer's
  /// metrics come from the parallel_transport runs (2 workers).
  bool backend_sweep(tracer& tr, std::map<std::string, double>& m) {
    struct outcome {
      dist::run_stats stats;
      std::map<std::pair<int, std::string>, long> decisions;
    };
    std::vector<outcome> outcomes;
    const auto algo = dist::heartbeat_detector(kTimeout);
    bool ok = true;
    const auto measure = [&](auto tag, const char* name) {
      using T = typename decltype(tag)::type;
      tracer::scope sweep(&tr, "bench.backend_sweep", "bench");
      const double run_ms0 = tr.total_ms(kSweepSpans.run);
      double messages = 0, rounds = 0;
      for (std::size_t k = 0; k < kSweepRuns; ++k) {
        const auto net = simulate<T>(options(seeds_[k]), algo, kRounds, &tr,
                                     kSweepSpans);
        messages += static_cast<double>(net->stats().messages_total);
        rounds += static_cast<double>(net->stats().rounds);
        ok = verify(*net, false) && ok;
        if (k == 0) outcomes.push_back({net->stats(), net->all_decisions()});
      }
      const double run_ns = (tr.total_ms(kSweepSpans.run) - run_ms0) * 1e6;
      m[std::string("distributed.") + name + ".ns_per_message"] =
          ratio(run_ns, messages);
      return std::pair(run_ns, rounds);
    };
    template_tag<dist::sim_transport> sim;
    template_tag<dist::parallel_transport> par;
    template_tag<dist::stealing_transport> steal;
    template_tag<dist::inproc_transport> inproc;
    (void)measure(sim, "sim");
    const std::uint64_t tasks0 = tasks_.value();
    const std::uint64_t busy0 = busy_us_.value();
    const std::uint64_t idle0 = idle_us_.value();
    const auto [par_ns, par_rounds] = measure(par, "parallel");
    m["parallel.tasks_per_round"] =
        ratio(static_cast<double>(tasks_.value() - tasks0), par_rounds);
    m["parallel.busy_share"] = ratio(static_cast<double>(busy_us_.value() - busy0),
                                     kWorkers * par_ns / 1e3);
    m["parallel.idle_us_per_round"] =
        ratio(static_cast<double>(idle_us_.value() - idle0), par_rounds);
    (void)measure(steal, "stealing");
    (void)measure(inproc, "inproc");
    for (const outcome& o : outcomes) {
      const outcome& ref = outcomes.front();
      ok = ok && o.stats.messages_total == ref.stats.messages_total &&
           o.stats.rounds == ref.stats.rounds &&
           o.stats.messages_by_tag == ref.stats.messages_by_tag &&
           o.stats.messages_sent_per_node == ref.stats.messages_sent_per_node &&
           o.stats.messages_received_per_node ==
               ref.stats.messages_received_per_node &&
           o.decisions == ref.decisions;
    }
    if (!ok) std::fprintf(stderr, "heartbeat: backends disagree\n");
    return ok;
  }

  template <class T>
  struct template_tag {
    using type = T;
  };

  std::uint32_t seeds_[kOps] = {};
  std::uint32_t warm_seed_ = 0;
  std::vector<std::size_t> degree_;
  std::size_t degree_sum_ = 0;
  std::unique_ptr<dist::sim_transport> nets_[kOps];

  cgp::telemetry::counter& tasks_ = cgp::telemetry::registry::global().get_counter(
      "parallel.thread_pool.tasks_submitted");
  cgp::telemetry::counter& busy_us_ =
      cgp::telemetry::registry::global().get_counter("parallel.thread_pool.busy_us");
  cgp::telemetry::counter& idle_us_ =
      cgp::telemetry::registry::global().get_counter("parallel.thread_pool.idle_us");
};

}  // namespace

std::unique_ptr<workload> make_wave_workload() {
  return std::make_unique<wave_workload>();
}

std::unique_ptr<workload> make_heartbeat_workload() {
  return std::make_unique<heartbeat_workload>();
}

}  // namespace perfbench
