#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/warmstart.hpp"
#include "core/system.hpp"
#include "core/workflow.hpp"
#include "data/catalog.hpp"
#include "exec/policy.hpp"
#include "fed/site.hpp"
#include "market/agents.hpp"
#include "market/exchange.hpp"
#include "net/flowsim.hpp"
#include "net/maxmin.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "snap/snapshot.hpp"

/// \file bench_perf_e2e.cpp
/// End-to-end benchmark: one workload per process, timed from outside
/// through the public API of sim, net, core, campaign, exec and snap.
///
///   bench_perf_e2e --workload W [--seed S] [--seconds T | --ops N] [--trace 0|1]
///
/// Load model: a closed loop with one client.  Ops run back to back until T
/// seconds have passed, or N ops have run.  Set-up (fresh inputs plus one
/// untimed warm-up op) runs kSetups times, spread over the run.  Every op's
/// outputs must equal the first warm-up op's bit for bit, and at the default
/// seed they must also equal the pins in expected.txt; a mismatch is a
/// failed op.
///
/// --trace 1 alternates untraced and traced ops and reports per-layer
/// metrics instead of end-to-end ones; a layer a workload does not exercise
/// reads 0.  Output is one `name value unit` line per metric, then one JSON
/// object as the last line.  README.md has the metric table.

namespace {

using hpc::campaign::CampaignResult;
using hpc::campaign::ReplicaResult;
using hpc::campaign::ReplicaSpec;
using hpc::net::CongestionControl;
using hpc::net::FlowSpec;
using hpc::net::Network;
using hpc::sim::TimeNs;

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 11;
/// Repetitions of each layer probe that times a single call.
constexpr int kProbeReps = 20;

double now_s() {
  // archlint: allow(ambient-rng): host time is what this benchmark measures
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this program image.  getrusage's ru_maxrss would
/// also count the parent's image before exec (a Python launcher's, say).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key && key != "VmHWM:") status.ignore(4096, '\n');
  status >> kib;
  return kib / 1024.0;
}

/// What one op produced.  Two ops of one run must agree bit for bit.
struct OpResult {
  std::uint64_t digest = 0;  ///< kernel digest, or the campaign's digest fold
  std::uint64_t events = 0;  ///< kernel events simulated (summed over replicas)
  double makespan_ns = 0.0;  ///< simulated makespan (summed over replicas)
  bool complete = false;     ///< every flow, replica or branch finished
};

bool same(const OpResult& a, const OpResult& b) {
  return a.complete && b.complete && a.digest == b.digest && a.events == b.events &&
         std::bit_cast<std::uint64_t>(a.makespan_ns) ==
             std::bit_cast<std::uint64_t>(b.makespan_ns);
}

/// Per-layer samples of a traced run; a metric reports its samples' median.
class Layers {
 public:
  void add(std::string_view name, double value) {
    samples_[std::string(name)].push_back(value);
  }
  [[nodiscard]] double value(std::string_view name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>, std::less<>> samples_;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order (BENCHMARK.json lists the same).
constexpr MetricDef kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.queue_depth_max", "count"},
    {"sim.handler_ms", "ms"},
    {"sim.kernel_self_ms", "ms"},
    {"net.flowsim.solves", "count"},
    {"net.flowsim.recompute_skips", "count"},
    {"net.flowsim.skip_ratio", "ratio"},
    {"net.flowsim.backpressure_events", "count"},
    {"net.route.ns_per_flow", "ns"},
    {"net.route.links", "count"},
    {"net.maxmin.us_per_solve", "us"},
    {"net.maxmin.links_touched", "count"},
    {"campaign.replica_ms_p50", "ms"},
    {"campaign.replica_ms_max", "ms"},
    {"campaign.aggregate_ms", "ms"},
    {"campaign.replicas_failed", "count"},
    {"exec.busy_frac", "ratio"},
    {"exec.speedup_vs_serial", "ratio"},
    {"core.tasks_placed", "count"},
    {"core.prefix_run_ms", "ms"},
    {"core.session_build_ms", "ms"},
    {"core.branch_finish_ms", "ms"},
    {"snap.save_us", "us"},
    {"snap.restore_us", "us"},
    {"snap.blob_bytes", "bytes"},
    {"snap.warm_speedup", "ratio"},
    {"market.trades_matched", "count"},
    {"trace.overhead_pct", "%"},
};

/// Kernel work seen by a TimingProbe, plus the host time of the calls that
/// drove the kernel, so that kernel self time = engine_s - handler_s.
struct KernelTally {
  std::uint64_t events = 0;
  std::size_t depth_max = 0;
  double handler_s = 0.0;
  double engine_s = 0.0;

  void merge(const KernelTally& other) {
    events += other.events;
    depth_max = std::max(depth_max, other.depth_max);
    handler_s += other.handler_s;
    engine_s += other.engine_s;
  }

  void report(Layers& layers) const {
    layers.add("sim.events", static_cast<double>(events));
    layers.add("sim.queue_depth_max", static_cast<double>(depth_max));
    layers.add("sim.handler_ms", handler_s * 1e3);
    layers.add("sim.kernel_self_ms", (engine_s - handler_s) * 1e3);
  }
};

/// Kernel probe that times every event handler from outside the kernel.
class TimingProbe final : public hpc::sim::SimProbe {
 public:
  void on_event(TimeNs, std::uint64_t, std::size_t pending) override {
    ++tally_.events;
    tally_.depth_max = std::max(tally_.depth_max, pending);
    started_s_ = now_s();
  }
  void on_event_done(TimeNs, std::uint64_t) override {
    tally_.handler_s += now_s() - started_s_;
  }
  void on_checkpoint(TimeNs, std::uint64_t, std::uint64_t) override {}

  [[nodiscard]] KernelTally& tally() noexcept { return tally_; }

 private:
  KernelTally tally_;
  double started_s_ = 0.0;
};

void report_flowsim(Layers& layers, hpc::obs::MetricRegistry& metrics) {
  const auto solves =
      static_cast<double>(metrics.counter("net.flowsim.solver_invocations").value());
  const auto skips = static_cast<double>(metrics.counter("net.flowsim.recompute_skips").value());
  layers.add("net.flowsim.solves", solves);
  layers.add("net.flowsim.recompute_skips", skips);
  layers.add("net.flowsim.skip_ratio", solves + skips > 0.0 ? skips / (solves + skips) : 0.0);
  layers.add("net.flowsim.backpressure_events",
             static_cast<double>(metrics.counter("net.flowsim.backpressure_events").value()));
}

/// One workload: its inputs, built once per set-up, and the op it times.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// The timed op.
  virtual OpResult run_op() = 0;
  /// The same op with layer probes attached; must produce run_op's outputs.
  virtual OpResult run_traced_op(Layers& layers) = 0;
  /// Once per run, after the timed ops: checks the op against a second way
  /// of computing it.  \p op_s is the untraced median op time, for the
  /// layer ratios the check yields as a by-product.
  virtual bool cross_check(const OpResult& ref, double op_s, Layers& layers) = 0;
  /// Once per traced run: layer probes outside the op itself.
  virtual void probe_layers(Layers&) {}
};

// ----------------------------------------------------------------- fabric ---

/// FlowSim seed of both fabric workloads (bench_perf_flowsim uses 42 too).
constexpr std::uint64_t kFlowSimSeed = 42;

/// The bench_perf_flowsim incast + uniform mix: a quarter of the flows
/// converge on eight receivers, the rest are uniform pairs, and arrivals
/// are spread uniformly over n x spacing_ns so the active set churns on
/// every event.  That mix uses spacing_ns = 1e6.
std::vector<FlowSpec> make_flows(const Network& net, int n, double spacing_ns,
                                 std::uint64_t seed) {
  hpc::sim::Rng rng(seed);
  const std::vector<int>& hosts = net.endpoints();
  std::vector<int> receivers;
  for (int r = 0; r < 8; ++r) receivers.push_back(hosts[rng.index(hosts.size())]);
  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FlowSpec f;
    f.src = hosts[rng.index(hosts.size())];
    f.dst = i % 4 == 0 ? receivers[static_cast<std::size_t>(i / 4) % receivers.size()]
                       : hosts[rng.index(hosts.size())];
    if (f.src == f.dst) f.dst = hosts[(rng.index(hosts.size()) + 1) % hosts.size()];
    f.bytes = rng.uniform(1e6, 5e7);
    f.start = static_cast<TimeNs>(rng.uniform(0.0, spacing_ns * n));
    f.tag = i;
    f.weight = (i % 8 == 0) ? 4.0 : 1.0;
    flows.push_back(f);
  }
  return flows;
}

/// A whole FlowSim run over a k=8 fat tree with minimal routing.
class FabricWorkload final : public Workload {
 public:
  FabricWorkload(int flows, double spacing_ns, CongestionControl cc, std::uint64_t seed)
      : net_(hpc::net::make_fat_tree(8)),
        flows_(make_flows(net_, flows, spacing_ns, seed)),
        cc_(cc) {}

  OpResult run_op() override { return simulate(nullptr, nullptr); }

  OpResult run_traced_op(Layers& layers) override {
    hpc::obs::MetricRegistry metrics;
    TimingProbe probe;
    const OpResult r = simulate(&probe, &metrics);
    probe.tally().report(layers);
    report_flowsim(layers, metrics);
    return r;
  }

  /// FlowSim's own batch wrapper must agree with the spelled-out run.
  bool cross_check(const OpResult& ref, double, Layers&) override {
    hpc::net::FlowSim fs(net_, cc_, hpc::net::Routing::kMinimal, kFlowSimSeed);
    for (const FlowSpec& f : flows_) fs.add_flow(f);
    const hpc::net::FlowRunSummary summary = fs.run();
    return summary.flows.size() == flows_.size() &&
           std::bit_cast<std::uint64_t>(summary.makespan_ns) ==
               std::bit_cast<std::uint64_t>(ref.makespan_ns);
  }

  /// Routing and the max-min solve in isolation, on this workload's flows.
  void probe_layers(Layers& layers) override {
    std::vector<int> pool;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      pool.clear();
      const double t0 = now_s();
      for (const FlowSpec& f : flows_) net_.append_route(f.src, f.dst, pool);
      layers.add("net.route.ns_per_flow",
                 (now_s() - t0) * 1e9 / static_cast<double>(flows_.size()));
    }
    layers.add("net.route.links", static_cast<double>(pool.size()));

    // The all-flows-active solve stands in for the largest solve of a run.
    pool.clear();
    std::vector<hpc::net::PathSpan> spans;
    std::vector<double> weights;
    for (const FlowSpec& f : flows_) {
      const auto offset = static_cast<std::uint32_t>(pool.size());
      net_.append_route(f.src, f.dst, pool);
      spans.push_back({offset, static_cast<std::uint32_t>(pool.size() - offset)});
      weights.push_back(std::max(1e-6, f.weight));
    }
    std::vector<double> capacity(net_.link_count());
    for (std::size_t l = 0; l < capacity.size(); ++l)
      capacity[l] = net_.link(static_cast<int>(l)).bandwidth_gbs;
    std::vector<char> touched(capacity.size(), 0);
    for (const int l : pool) touched[static_cast<std::size_t>(l)] = 1;
    layers.add("net.maxmin.links_touched",
               static_cast<double>(std::count(touched.begin(), touched.end(), 1)));

    hpc::net::MaxMinScratch scratch;
    std::vector<double> rates;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      const double t0 = now_s();
      hpc::net::maxmin_rates(spans.data(), spans.size(), pool.data(), capacity, weights.data(),
                             nullptr, scratch, rates);
      layers.add("net.maxmin.us_per_solve", (now_s() - t0) * 1e6);
    }
  }

 private:
  /// Exactly what FlowSim::run() does, spelled out so the kernel is reachable.
  OpResult simulate(TimingProbe* probe, hpc::obs::MetricRegistry* metrics) {
    hpc::net::FlowSim fs(net_, cc_, hpc::net::Routing::kMinimal, kFlowSimSeed);
    if (metrics != nullptr) fs.set_observer(nullptr, metrics);
    for (const FlowSpec& f : flows_) fs.add_flow(f);
    hpc::sim::Engine engine(kFlowSimSeed);
    if (probe != nullptr) engine.kernel().set_probe(probe);
    const double t0 = now_s();
    engine.attach(fs);
    engine.run();
    if (probe != nullptr) probe->tally().engine_s = now_s() - t0;
    engine.detach(fs);
    const hpc::net::FlowRunSummary summary = fs.take_summary();
    return {engine.digest(), engine.events_executed(), summary.makespan_ns,
            summary.flows.size() == flows_.size()};
  }

  Network net_;
  std::vector<FlowSpec> flows_;
  CongestionControl cc_;
};

// ------------------------------------------- federation scenario replica ---
//
// The campaign scenario and the what-if session are library internals.  The
// traced ops rebuild them here from public API so they can time each phase
// and probe each kernel; the digest checks prove the rebuild is exact.

double workload_jitter(std::uint64_t seed, const std::string& label) {
  const std::uint64_t h = hpc::sim::Rng::child_seed(seed, label);
  return 0.9 + 0.2 * static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::vector<hpc::fed::Site> make_sites(const std::string& device_mix) {
  using namespace hpc;
  const bool cloud_heavy = device_mix == "cloud-heavy";
  std::vector<fed::Site> sites;
  sites.push_back(fed::make_onprem_site(0, "campus", cloud_heavy ? 8 : 12, cloud_heavy ? 2 : 4));
  sites.push_back(fed::make_supercomputer_site(1, "center", cloud_heavy ? 24 : 48));
  sites.push_back(fed::make_cloud_site(2, "cloud", cloud_heavy ? 96 : 48));
  for (fed::Site& site : sites) site.admin_domain = 0;
  return sites;
}

hpc::core::Workflow make_workflow(hpc::core::System& system, int shards, std::uint64_t seed) {
  using namespace hpc;
  std::vector<int> shard_ds;
  for (int s = 0; s < shards; ++s)
    shard_ds.push_back(system.catalog().add(
        "shard-" + std::to_string(s),
        60.0 * workload_jitter(seed, "workload/shard-" + std::to_string(s)), 0, 0,
        data::Sensitivity::kInternal, "survey frames, shard " + std::to_string(s)));
  const int reference = system.catalog().add("reference-catalog", 40.0, 0, 0,
                                             data::Sensitivity::kPublic, "calibration reference");
  core::Workflow wf;
  std::vector<int> shard_tasks;
  for (int s = 0; s < shards; ++s) {
    core::Task analyze;
    analyze.name = "analyze-" + std::to_string(s);
    analyze.kind = core::TaskKind::kAnalyze;
    analyze.input_datasets = {shard_ds[static_cast<std::size_t>(s)], reference};
    analyze.output_gb = 8.0;
    analyze.job.nodes = 8;
    analyze.job.total_gflop = 3e5 * workload_jitter(seed, "workload/analyze-" + std::to_string(s));
    shard_tasks.push_back(wf.add(analyze));
  }
  core::Task train;
  train.name = "train-surrogate";
  train.kind = core::TaskKind::kTrain;
  train.deps = shard_tasks;
  train.input_tasks = shard_tasks;
  train.output_gb = 2.0;
  train.job.nodes = 16;
  train.job.total_gflop = 8e5 * workload_jitter(seed, "workload/train");
  const int t_train = wf.add(train);
  core::Task deploy;
  deploy.name = "deploy-inference";
  deploy.kind = core::TaskKind::kInfer;
  deploy.deps = {t_train};
  deploy.input_tasks = {t_train};
  deploy.job.nodes = 1;
  deploy.job.total_gflop = 5e2;
  wf.add(deploy);
  return wf;
}

// ---------------------------------------------------------- coupled_sweep ---

constexpr int kSweepShards = 256;

/// make_federation_scenario's replica, with a probe on its kernel.
ReplicaResult run_federation_replica(const ReplicaSpec& spec, std::uint64_t engine_seed,
                                     KernelTally& tally) {
  using namespace hpc;
  std::vector<fed::Site> sites = make_sites(spec.device_mix);
  for (fed::Site& site : sites) site.wan_bandwidth_gbs = spec.topology == "wan-100g" ? 12.5 : 1.25;
  core::System system(std::move(sites), engine_seed);
  system.pin_silo(core::TaskKind::kAnalyze, 0);
  system.pin_silo(core::TaskKind::kTrain, 1);
  system.pin_silo(core::TaskKind::kInfer, 2);
  obs::MetricRegistry metrics;
  system.set_observer(nullptr, &metrics);
  const core::Workflow wf = make_workflow(system, kSweepShards, engine_seed);
  core::CosimConfig cfg;
  cfg.seed = engine_seed;
  const core::PlacementPolicy placement =
      spec.policy == "siloed"    ? core::PlacementPolicy::kSiloed
      : spec.policy == "gravity" ? core::PlacementPolicy::kGravityAware
                                 : core::PlacementPolicy::kCheapest;
  core::CoupledSession session(system, wf, placement, cfg);
  TimingProbe probe;
  session.engine().kernel().set_probe(&probe);
  const double t0 = now_s();
  const core::CoupledResult coupled = session.finish();
  tally = probe.tally();
  tally.engine_s = now_s() - t0;

  ReplicaResult r;
  r.digest = coupled.engine_digest;
  r.events = coupled.events_executed;
  r.end_time = coupled.end_time;
  r.latency_ns = static_cast<double>(coupled.workflow.makespan);
  r.cost_usd = coupled.workflow.total_cost_usd;
  r.work = static_cast<double>(coupled.workflow.outcomes.size());
  r.metrics = std::move(metrics);
  return r;
}

OpResult summarize(const CampaignResult& c) {
  OpResult r;
  r.digest = c.campaign_digest;
  r.complete = !c.results.empty();
  for (const ReplicaResult& replica : c.results) {
    r.events += replica.events;
    r.makespan_ns += replica.latency_ns;
    r.complete = r.complete && replica.error.empty();
  }
  return r;
}

/// 24 coupled federation replicas (the default matrix, two seeds) run
/// through a one-worker thread pool.  One worker, because on a shared host a
/// multi-worker op follows the neighbours' load: back-to-back runs with two
/// workers took 43 to 63 ms, with one 79 to 84 ms.  The cross-check measures
/// scaling once per run instead.
class CoupledSweep final : public Workload {
 public:
  explicit CoupledSweep(std::uint64_t seed)
      : matrix_(hpc::campaign::default_federation_matrix(2)),
        scenario_(hpc::campaign::make_federation_scenario({.shards = kSweepShards})),
        pool_(1) {
    options_.seed = seed;
  }

  OpResult run_op() override {
    return summarize(hpc::campaign::run_campaign(matrix_, scenario_, pool_, options_));
  }

  OpResult run_traced_op(Layers& layers) override {
    struct ReplicaTrace {
      double start_s = 0.0;
      double end_s = 0.0;
      KernelTally kernel;
    };
    // Each task writes only its own replica's slot.
    std::vector<ReplicaTrace> traces(matrix_.size());
    const hpc::campaign::ScenarioFn traced = [&traces](const ReplicaSpec& spec,
                                                       std::uint64_t engine_seed) {
      ReplicaTrace& t = traces[spec.index];
      t.start_s = now_s();
      ReplicaResult r = run_federation_replica(spec, engine_seed, t.kernel);
      t.end_s = now_s();
      return r;
    };
    const double t0 = now_s();
    CampaignResult c = hpc::campaign::run_campaign(matrix_, traced, pool_, options_);
    const double t1 = now_s();

    KernelTally kernel;
    std::vector<double> replica_ms;
    double busy_s = 0.0;
    double last_end_s = t0;
    for (const ReplicaTrace& t : traces) {
      kernel.merge(t.kernel);
      replica_ms.push_back((t.end_s - t.start_s) * 1e3);
      busy_s += t.end_s - t.start_s;
      last_end_s = std::max(last_end_s, t.end_s);
    }
    kernel.report(layers);
    layers.add("campaign.replica_ms_p50", median(replica_ms));
    layers.add("campaign.replica_ms_max", *std::max_element(replica_ms.begin(), replica_ms.end()));
    layers.add("campaign.aggregate_ms", (t1 - last_end_s) * 1e3);
    layers.add("campaign.replicas_failed",
               static_cast<double>(c.merged.counter("campaign.replicas_failed").value()));
    layers.add("exec.busy_frac", busy_s / (pool_.workers() * (t1 - t0)));
    layers.add("core.tasks_placed",
               static_cast<double>(c.merged.counter("core.tasks_placed").value()));
    report_flowsim(layers, c.merged);
    return summarize(c);
  }

  /// The serial executor and a pool of one worker per core (up to 4) must
  /// both reproduce the op's campaign.
  bool cross_check(const OpResult& ref, double, Layers& layers) override {
    hpc::exec::SerialPolicy serial;
    hpc::exec::ThreadPoolPolicy wide(std::min(4, hpc::exec::hardware_worker_hint()));
    const double t0 = now_s();
    const OpResult a = summarize(hpc::campaign::run_campaign(matrix_, scenario_, serial, options_));
    const double t1 = now_s();
    const OpResult b = summarize(hpc::campaign::run_campaign(matrix_, scenario_, wide, options_));
    layers.add("exec.speedup_vs_serial", (t1 - t0) / (now_s() - t1));
    return same(a, ref) && same(b, ref);
  }

 private:
  hpc::campaign::ScenarioMatrix matrix_;
  hpc::campaign::ScenarioFn scenario_;
  hpc::exec::ThreadPoolPolicy pool_;
  hpc::campaign::CampaignOptions options_;
};

// ---------------------------------------------------------- whatif_fanout ---

constexpr int kWhatIfShards = 64;
constexpr std::size_t kWhatIfBranches = 16;
constexpr TimeNs kBranchAt = 600 * hpc::sim::kSecond;
constexpr TimeNs kClearingPeriod = hpc::sim::kSecond / 2;

/// run_whatif_campaign's fold over branch digests.
std::uint64_t fold_digest(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFoldOffset = 1469598103934665603ULL;

OpResult summarize(const hpc::campaign::WhatIfResult& w) {
  OpResult r;
  r.digest = w.campaign_digest;
  r.complete = w.branches.size() == kWhatIfBranches;
  for (const hpc::campaign::BranchOutcome& b : w.branches) {
    r.events += b.events;
    r.makespan_ns += static_cast<double>(b.makespan);
  }
  return r;
}

double market_draw(const std::string& label, double lo, double hi) {
  const std::uint64_t h = hpc::sim::Rng::child_seed(2026, label);
  return lo + (hi - lo) * static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// One what-if session as run_whatif_campaign builds it (System, Exchange
/// and agents, workflow, CoupledSession), with every sink wired to the
/// replay's registry and probe.
struct WhatIfSession {
  hpc::core::System system;
  hpc::market::Exchange exchange;
  hpc::core::Workflow wf;
  std::unique_ptr<hpc::core::CoupledSession> session;

  WhatIfSession(std::uint64_t seed, hpc::obs::MetricRegistry& metrics, TimingProbe& probe)
      : system(make_sites("baseline"), seed), exchange(2026) {
    using namespace hpc;
    system.set_observer(nullptr, &metrics);
    exchange.set_observer(nullptr, &metrics);
    for (int s = 0; s < 8; ++s)
      exchange.add_agent(std::make_unique<market::ProviderAgent>(
          "site-" + std::to_string(s), market_draw("market/site-" + std::to_string(s), 0.6, 1.4),
          3.0));
    for (int u = 0; u < 12; ++u)
      exchange.add_agent(std::make_unique<market::ConsumerAgent>(
          "user-" + std::to_string(u), market_draw("market/user-" + std::to_string(u), 0.9, 2.4),
          2.0));
    exchange.add_agent(std::make_unique<market::BrokerAgent>("broker"));
    exchange.set_cosim_clearing(kClearingPeriod,
                                static_cast<int>(kBranchAt / kClearingPeriod) + 40);
    wf = make_workflow(system, kWhatIfShards, seed);
    core::CosimConfig cfg;
    cfg.seed = seed;
    cfg.price_fn = [&ex = exchange] { return ex.last_price(); };
    cfg.extra = {&exchange};
    session = std::make_unique<core::CoupledSession>(system, wf,
                                                     core::PlacementPolicy::kGravityAware,
                                                     std::move(cfg));
    session->engine().kernel().set_probe(&probe);
  }
};

/// A warm-started what-if fan-out: one shared prefix, a snapshot, and 16
/// branches restored from it, run serially.
class WhatIfFanout final : public Workload {
 public:
  explicit WhatIfFanout(std::uint64_t seed) {
    options_.seed = seed;
    options_.shards = kWhatIfShards;
    options_.branch_at = kBranchAt;
    for (std::size_t b = 0; b < kWhatIfBranches; ++b) {
      std::string label = "b";
      label += std::to_string(b);
      options_.branches.push_back(label);
    }
  }

  OpResult run_op() override {
    const hpc::campaign::WhatIfResult w = hpc::campaign::run_whatif_campaign(options_, serial_);
    snapshot_digest_ = w.snapshot_digest;
    return summarize(w);
  }

  /// Replays the op phase by phase.
  OpResult run_traced_op(Layers& layers) override {
    hpc::obs::MetricRegistry metrics;
    TimingProbe probe;
    const hpc::snap::Snapshotter snapper;
    double engine_s = 0.0;
    std::string blob;
    {
      const double t0 = now_s();
      WhatIfSession ref(options_.seed, metrics, probe);
      const double t1 = now_s();
      ref.session->run_until(options_.branch_at);
      const double t2 = now_s();
      blob = snapper.save(ref.session->engine());
      layers.add("snap.save_us", (now_s() - t2) * 1e6);
      layers.add("core.prefix_run_ms", (t2 - t0) * 1e3);
      engine_s += t2 - t1;
    }
    layers.add("snap.blob_bytes", static_cast<double>(blob.size()));

    OpResult r;
    r.digest = kFoldOffset;
    r.complete = hpc::snap::blob_digest(blob) == snapshot_digest_;
    for (const std::string& label : options_.branches) {
      const double t0 = now_s();
      WhatIfSession s(options_.seed, metrics, probe);
      const double t1 = now_s();
      hpc::sim::Rng rng = hpc::snap::fork(s.session->engine(), blob, label, snapper);
      const double t2 = now_s();
      const int from = static_cast<int>(rng.index(3));
      const int to = (from + 1 + static_cast<int>(rng.index(2))) % 3;
      s.session->inject_wan_flow(from, to, rng.uniform(20.0, 80.0));
      const hpc::core::CoupledResult done = s.session->finish();
      const double t3 = now_s();
      layers.add("core.session_build_ms", (t1 - t0) * 1e3);
      layers.add("snap.restore_us", (t2 - t1) * 1e6);
      layers.add("core.branch_finish_ms", (t3 - t2) * 1e3);
      engine_s += t3 - t2;
      r.digest = fold_digest(r.digest, done.engine_digest);
      r.events += done.events_executed;
      r.makespan_ns += static_cast<double>(done.workflow.makespan);
    }
    probe.tally().engine_s = engine_s;
    probe.tally().report(layers);
    report_flowsim(layers, metrics);
    layers.add("core.tasks_placed",
               static_cast<double>(metrics.counter("core.tasks_placed").value()));
    layers.add("market.trades_matched",
               static_cast<double>(metrics.counter("market.trades_matched").value()));
    return r;
  }

  /// Cold branches, which re-simulate the prefix, must match warm ones.
  bool cross_check(const OpResult& ref, double op_s, Layers& layers) override {
    hpc::campaign::WhatIfOptions cold = options_;
    cold.warm_start = false;
    const double t0 = now_s();
    const hpc::campaign::WhatIfResult w = hpc::campaign::run_whatif_campaign(cold, serial_);
    layers.add("snap.warm_speedup", (now_s() - t0) / op_s);
    return same(summarize(w), ref) && w.snapshot_digest == snapshot_digest_;
  }

 private:
  hpc::campaign::WhatIfOptions options_;
  hpc::exec::SerialPolicy serial_;
  std::uint64_t snapshot_digest_ = 0;  ///< the last untraced op's branch-point snapshot
};

// -------------------------------------------------------------------- main ---

struct WorkloadDef {
  std::string_view name;
  std::uint64_t default_seed;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

constexpr WorkloadDef kWorkloads[] = {
    {"fabric_flowbased", 1234,
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       return std::make_unique<FabricWorkload>(16384, 1e6, CongestionControl::kFlowBased, seed);
     }},
    {"fabric_congestion_tree", 1234,
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       // Arrivals 50x denser than the standard mix: every flow contends, so
       // every seed builds a congestion tree.  At the standard spacing some
       // seeds never build one and run 20x faster than others.
       return std::make_unique<FabricWorkload>(768, 2e4, CongestionControl::kNone, seed);
     }},
    {"coupled_sweep", 2026,
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       return std::make_unique<CoupledSweep>(seed);
     }},
    {"whatif_fanout", 7,
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       return std::make_unique<WhatIfFanout>(seed);
     }},
};

struct Args {
  const WorkloadDef* workload = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  std::uint64_t ops = 0;  ///< > 0: run exactly this many ops, ignoring seconds
  bool trace = false;
};

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return *text != '\0' && *text != '-' && *end == '\0';
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* arg = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      for (const WorkloadDef& def : kWorkloads)
        if (def.name == arg) args.workload = &def;
      if (args.workload == nullptr) return std::nullopt;
    } else if (flag == "--seed" && parse_u64(arg, n)) {
      args.seed = n;
    } else if (flag == "--seconds" && parse_u64(arg, n) && n > 0) {
      args.seconds = static_cast<double>(n);
    } else if (flag == "--ops" && parse_u64(arg, n) && n > 0) {
      args.ops = n;
    } else if (flag == "--trace" && parse_u64(arg, n) && n <= 1) {
      args.trace = n == 1;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload == nullptr) return std::nullopt;
  return args;
}

/// Checks \p r against the pin for (workload, seed) in expected.txt, whose
/// lines read `workload seed digest-hex events makespan_ns`.
bool matches_pin(std::string_view workload, std::uint64_t seed, const OpResult& r) {
  std::ifstream in(BENCH_E2E_EXPECTED);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t pin_seed = 0;
    std::string digest;
    std::uint64_t events = 0;
    std::string makespan;
    if (!(fields >> name >> pin_seed >> digest >> events >> makespan)) continue;
    if (name != workload || pin_seed != seed) continue;
    return r.complete && std::strtoull(digest.c_str(), nullptr, 16) == r.digest &&
           events == r.events &&
           std::bit_cast<std::uint64_t>(std::strtod(makespan.c_str(), nullptr)) ==
               std::bit_cast<std::uint64_t>(r.makespan_ns);
  }
  std::fprintf(stderr, "bench_perf_e2e: no pin for %.*s seed %llu in %s\n",
               static_cast<int>(workload.size()), workload.data(),
               static_cast<unsigned long long>(seed), BENCH_E2E_EXPECTED);
  return false;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    std::printf("%s %s %s\n", metrics[i].name, num, metrics[i].unit);
    if (i > 0) json += ", ";
    json.append("\"").append(metrics[i].name).append("\": {\"value\": ").append(num);
    json.append(", \"unit\": \"").append(metrics[i].unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: bench_perf_e2e --workload fabric_flowbased|fabric_congestion_tree|"
                 "coupled_sweep|whatif_fanout [--seed S] [--seconds T] [--ops N] "
                 "[--trace 0|1]\n");
    return 2;
  }
  const WorkloadDef& def = *args->workload;
  const std::uint64_t seed = args->seed.value_or(def.default_seed);

  // Set-up builds fresh inputs and runs one untimed warm-up op.  Set-ups
  // are spread evenly over the run, so that setup_s sees the same host load
  // as the timed ops.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  OpResult ref;
  bool setups_agree = true;
  const auto set_up = [&] {
    workload.reset();
    const double t0 = now_s();
    workload = def.make(seed);
    const OpResult warm = workload->run_op();
    setup_s.push_back(now_s() - t0);
    if (setup_s.size() == 1) ref = warm;
    setups_agree = setups_agree && same(warm, ref);
  };
  set_up();
  std::fprintf(stderr, "bench_perf_e2e: %.*s %llu %016llx %llu %.17g\n",
               static_cast<int>(def.name.size()), def.name.data(),
               static_cast<unsigned long long>(seed), static_cast<unsigned long long>(ref.digest),
               static_cast<unsigned long long>(ref.events), ref.makespan_ns);

  // Closed loop, one client; a traced run alternates untraced and traced ops.
  Layers layers;
  std::vector<double> op_s;
  std::vector<double> traced_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const double start_s = now_s();
  while (args->ops > 0 ? op_s.size() < args->ops
                       : op_s.empty() || now_s() - start_s < args->seconds) {
    if (args->ops == 0 && setup_s.size() < kSetups &&
        now_s() - start_s >= args->seconds * static_cast<double>(setup_s.size()) / kSetups)
      set_up();
    double t0 = now_s();
    OpResult r = workload->run_op();
    op_s.push_back(now_s() - t0);
    ++attempted;
    if (!same(r, ref)) ++failed;
    if (!args->trace) continue;
    t0 = now_s();
    r = workload->run_traced_op(layers);
    traced_s.push_back(now_s() - t0);
    ++attempted;
    if (!same(r, ref)) ++failed;
  }
  while (setup_s.size() < kSetups) set_up();

  const double op_p50_s = median(op_s);
  const bool cross_ok = workload->cross_check(ref, op_p50_s, layers);
  const bool pin_ok = seed != def.default_seed || matches_pin(def.name, seed, ref);
  const bool correct = failed == 0 && setups_agree && cross_ok && pin_ok;
  if (!correct)
    std::fprintf(stderr,
                 "bench_perf_e2e: verification failed (failed ops %llu, set-ups agree %d, "
                 "cross-check %d, pin %d)\n",
                 static_cast<unsigned long long>(failed), setups_agree, cross_ok, pin_ok);

  std::vector<Metric> metrics;
  if (args->trace) {
    workload->probe_layers(layers);
    layers.add("trace.overhead_pct", (median(traced_s) / op_p50_s - 1.0) * 100.0);
    for (const MetricDef& m : kLayerMetrics)
      metrics.push_back({m.name, layers.value(m.name), m.unit});
    std::printf("bench.traced_samples %zu count\n", traced_s.size());
  } else {
    metrics = {
        {"run_ms_p50", op_p50_s * 1e3, "ms"},
        {"sim_events_per_s", static_cast<double>(ref.events) / op_p50_s, "events/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("bench.run_ms_p90 %.17g ms\n", quantile(op_s, 0.9) * 1e3);
  }
  std::printf("bench.samples %zu count\n", op_s.size());
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
