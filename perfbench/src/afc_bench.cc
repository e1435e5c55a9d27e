// The repository benchmark: one seeded, closed-loop AFCeph workload against
// core::ClusterSim per process, measured end to end (host cost and simulated
// IOPS/latency) or, with --trace 1, layer by layer from a traced and
// profiled run checked against an untraced run of the same seed.
//
//   afc_bench --workload write_4k|read_4k_8n|mixed_zipf_verify
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Human-readable metrics (every ratio with its base) go to stderr; the last
// stdout line is one JSON object:
//   {"workload", "seed", "trace", "correct", "attempted", "failed",
//    "checks": [{"name", "ok", "detail"}], "metrics": {name: {value, unit}}}
// The exit code is 0 only when every check passed. perfbench/run.py builds
// this binary and turns its output into the benchmark's result line.
//
// Only public APIs are used: the benchmark installs its own trace::Collector,
// enables the event-loop profiler, reads layer counters through ClusterSim's
// accessors, and times its own calls to construction, run() and destruction.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "afceph.h"
#include "metrics.h"

using namespace afc;
namespace pb = perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

// --- workloads ----------------------------------------------------------------

struct Workload {
  std::string name;
  core::ClusterConfig cfg;
  client::WorkloadSpec spec;
  /// Independent seeded runs pooled into one end-to-end result (seed k is
  /// derived from --seed; k = 0 is --seed itself).
  unsigned sub_seeds = 1;
  /// Further runs of --seed itself, each checked to reproduce the first run
  /// exactly; they add host-time samples but no simulated ones.
  unsigned repeats = 1;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t sub_seed(std::uint64_t seed, unsigned k) {
  return k == 0 ? seed : splitmix64(seed + k);
}

/// The three workloads; see perfbench/NOTES.md for why each exists.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.cfg.profile = core::Profile::afceph();
  w.cfg.seed = seed;
  if (name == "write_4k") {
    // 4 nodes x 4 OSDs, rep 2, sustained (pre-filled, SSD GC active,
    // 64 MiB page cache per OSD); 64 VMs x iodepth 2 over 64 x 20 GiB.
    w.cfg.vms = 64;
    w.spec = client::WorkloadSpec::rand_write(4096, 2);
    w.spec.runtime = 1200 * kMillisecond;
    w.sub_seeds = 3;  // its p99 is the most seed-sensitive figure here
    w.repeats = 0;
  } else if (name == "read_4k_8n") {
    // 8 nodes x 4 OSDs, clean devices but populated, pg_num 2048; 40 VMs x 8.
    w.cfg.osd_nodes = 8;
    w.cfg.sustained = false;
    w.cfg.populated = 1;
    w.cfg.pg_num = 2048;
    w.cfg.vms = 40;
    w.spec = client::WorkloadSpec::rand_read(4096, 8);
    w.spec.runtime = 1000 * kMillisecond;
  } else if (name == "mixed_zipf_verify") {
    // 4 x 4 sustained; 32 VMs x 8, 30 % writes, Zipf 0.99, verify on.
    w.cfg.vms = 32;
    w.spec = client::WorkloadSpec::rand_write(4096, 8);
    w.spec.write_fraction = 0.3;
    w.spec.zipf_theta = 0.99;
    w.spec.verify = true;
    w.spec.runtime = 1200 * kMillisecond;
  } else {
    return std::nullopt;
  }
  w.spec.warmup = 300 * kMillisecond;
  return w;
}

// --- the benchmark's own read-back check ---------------------------------------

struct Readback {
  std::uint64_t verified = 0;
  std::uint64_t failures = 0;
  unsigned live = 0;
};

/// Write `n` seeded 4 KiB blocks through one VM and read each back, byte for
/// byte, through the replicated write and read paths.
sim::CoTask<void> readback_vm(client::VmClient& vm, std::uint64_t seed, unsigned n,
                              Readback* out) {
  const std::uint64_t blocks = vm.image().size() / 4096;
  for (unsigned k = 0; k < n; k++) {
    const std::uint64_t h = splitmix64(seed ^ (vm.client_id() << 20) ^ k);
    const std::uint64_t off = (h % blocks) * 4096;
    const Payload data = Payload::pattern(4096, h);
    const bool written = co_await vm.write_once(off, data);
    auto rd = co_await vm.read_once(off, 4096);
    out->verified++;
    if (!written || !rd.ok || !Payload::bytes(std::move(rd.data)).content_equals(data)) {
      out->failures++;
    }
  }
  out->live--;
}

/// Advance the simulation in 1 ms steps until `done()` or `horizon` of
/// simulated time has passed. Returns whether `done()` became true.
template <class Pred>
bool run_until_done(sim::Simulation& sim, Time horizon, Pred done) {
  const Time deadline = sim.now() + horizon;
  while (!done()) {
    if (sim.now() >= deadline) return false;
    sim.run_until(sim.now() + kMillisecond);
  }
  return true;
}

/// The benchmark's own output check, on a fresh cluster of the workload's
/// configuration: every VM writes kPerVm seeded blocks and reads each back.
/// (The workload's own verify count is not exposed by the public API, and
/// the measured cluster cannot be driven further once run() returns.)
struct ReadbackCheck {
  Readback rb;
  bool finished = false;
};
ReadbackCheck readback_check(const Workload& w) {
  constexpr unsigned kPerVm = 4;
  ReadbackCheck out;
  core::ClusterSim cluster(w.cfg);
  out.rb.live = unsigned(cluster.vm_count());
  for (std::size_t i = 0; i < cluster.vm_count(); i++) {
    sim::spawn(readback_vm(cluster.vm(i), w.cfg.seed, kPerVm, &out.rb));
  }
  out.finished =
      run_until_done(cluster.simulation(), 10 * kSecond, [&] { return out.rb.live == 0; });
  return out;
}

// --- one measured run ---------------------------------------------------------

struct RunOutcome {
  double setup_s = 0.0;
  double run_s = 0.0;       // the run() call
  double run_cpu_s = 0.0;   // its thread CPU time
  double teardown_s = 0.0;  // destruction
  core::RunResult r;
  std::uint64_t events = 0;
  std::uint64_t ops_begun = 0;
  std::uint64_t ops_failed = 0;
  /// Counter-derived layer metrics (simulated; identical traced or not).
  pb::MetricSet layer;
  /// Span- and profiler-derived layer metrics (traced run only).
  pb::MetricSet traced;
  std::uint64_t spans = 0;
  std::uint64_t span_mismatches = 0;
  /// Every simulated quantity of the run, printed exactly: two runs of one
  /// seed must produce the same string, traced or not.
  std::string signature;
};

void collect_layers(core::ClusterSim& c, const Workload& w, RunOutcome& o) {
  const core::RunResult& r = o.r;
  std::uint64_t ops = 0, retries = 0;
  std::vector<net::Node*> client_nodes;  // in VM order: sums stay bit-exact
  net::NetStats net;
  for (std::size_t i = 0; i < c.vm_count(); i++) {
    auto& vm = c.vm(i);
    ops += vm.ops_begun();
    retries += vm.op_retries();
    net::Node* node = &vm.messenger().node();
    if (std::find(client_nodes.begin(), client_nodes.end(), node) == client_nodes.end()) {
      client_nodes.push_back(node);
    }
    net.merge(vm.messenger().net_stats());
  }
  std::uint64_t writes = 0, reads = 0, cache_hits = 0, cache_misses = 0;
  std::uint64_t jentries = 0, jbatches = 0, jfull_ns = 0;
  std::uint64_t kv_user = 0, kv_dev = 0, kv_flushes = 0, kv_compactions = 0;
  std::uint64_t kv_hits = 0, kv_misses = 0;
  std::uint64_t ssd_reads = 0, ssd_written = 0, gc_stalls = 0;
  double ssd_util = 0.0;
  Histogram ssd_read_lat;
  for (std::size_t i = 0; i < c.osd_count(); i++) {
    auto& osd = c.osd(i);
    writes += osd.client_writes();
    reads += osd.client_reads();
    cache_hits += osd.meta_cache().hits();
    cache_misses += osd.meta_cache().misses();
    jentries += osd.journal().entries_written();
    jbatches += osd.journal().batches_written();
    jfull_ns += osd.journal().full_stall_ns();
    kv_user += osd.omap_db().user_bytes();
    kv_dev += osd.omap_db().device_write_bytes();
    kv_flushes += osd.omap_db().flushes();
    kv_compactions += osd.omap_db().compactions();
    kv_hits += osd.omap_db().block_cache_hits();
    kv_misses += osd.omap_db().block_cache_misses();
    net.merge(osd.messenger().net_stats());
    auto& ssd = c.osd_ssd(i);
    ssd_reads += ssd.reads();
    ssd_written += ssd.bytes_written();
    gc_stalls += ssd.gc_stalls();
    ssd_util += ssd.utilization();
    ssd_read_lat.merge(ssd.read_latency());
  }
  double osd_cpu = 0.0;
  Time osd_cpu_wait = 0;
  const std::size_t osd_nodes = c.config().osd_nodes;
  for (std::size_t n = 0; n < osd_nodes; n++) {
    osd_cpu += c.osd_node(n).cpu().utilization();
    osd_cpu_wait += c.osd_node(n).cpu().total_queue_wait_ns();
  }
  double client_cpu = 0.0;
  for (net::Node* n : client_nodes) client_cpu += n->cpu().utilization();

  const double ms = double(kMillisecond);
  auto& L = o.layer;
  // sim
  L.add_ratio("sim.events_per_op", double(o.events), double(ops), "count");
  // client
  L.add_ratio("client.node_cpu_util", client_cpu, double(client_nodes.size()), "frac");
  L.add("client.retries", double(retries), "count");
  L.add("client.write_samples", double(r.write_lat.count()), "count");
  L.add("client.read_samples", double(r.read_lat.count()), "count");
  for (const auto& [kind, hist] :
       {std::pair{"write", &r.write_lat}, std::pair{"read", &r.read_lat}}) {
    const auto lat = pb::summarize(*hist);
    const std::string samples = std::to_string(lat.samples) + " samples";
    L.add(std::string("client.") + kind + "_p50_ms", lat.p50_ms, "ms", samples);
    L.add(std::string("client.") + kind + "_p99_ms", lat.p99_ms, "ms", samples);
  }
  // net
  L.add_ratio("net.msgs_per_op", double(net.messages), double(ops), "count");
  L.add_ratio("net.frames_per_op", double(net.frames), double(ops), "count");
  L.add_ratio("net.nagle_stalls_per_op", double(net.nagle_stalls), double(ops), "count");
  // osd
  L.add_ratio("osd.node_cpu_util", osd_cpu, double(osd_nodes), "frac");
  L.add_ratio("osd.cpu_queue_ms_per_op", double(osd_cpu_wait) / ms, double(ops), "ms");
  L.add_ratio("osd.pending_defers_per_op", double(r.pending_defers), double(ops), "count");
  L.add_ratio("osd.meta_cache_hit_ratio", double(cache_hits), double(cache_hits + cache_misses),
              "frac");
  // fs / journal
  L.add_ratio("journal.full_stall_ms_per_op", double(jfull_ns) / ms, double(ops), "ms");
  L.add_ratio("journal.entries_per_batch", double(jentries), double(jbatches), "count");
  L.add_ratio("fs.syscalls_per_write", double(r.syscalls), double(writes), "count");
  L.add_ratio("fs.metadata_reads_per_write", double(r.metadata_device_reads), double(writes),
              "count");
  L.add("fs.writeback_stalls", double(r.fs_writeback_stalls), "count");
  L.add_ratio("fs.device_reads_per_read", double(ssd_reads), double(reads), "count");
  // kv
  L.add_ratio("kv.write_amp", double(kv_dev), double(kv_user), "x");
  L.add("kv.flushes", double(kv_flushes), "count");
  L.add("kv.compactions", double(kv_compactions), "count");
  L.add("kv.stall_slowdowns", double(r.kv_stall_slowdowns), "count");
  L.add_ratio("kv.block_cache_hit_ratio", double(kv_hits), double(kv_hits + kv_misses), "frac");
  // device
  L.add_ratio("dev.ssd_util", ssd_util, double(c.osd_count()), "frac");
  L.add("dev.ssd_read_p99_ms", ssd_read_lat.p99_ms(), "ms",
        std::to_string(ssd_read_lat.count()) + " samples");
  L.add("dev.ssd_gc_stalls", double(gc_stalls), "count");
  L.add_ratio("dev.ssd_write_bytes_per_user_byte", double(ssd_written),
              double(writes) * double(w.spec.block_size), "x");

  if (auto* tr = c.tracer(); tr != nullptr) {
    auto& T = o.traced;
    T.add("client.io_ms", tr->stage_mean_ms(stage::kClientIo), "ms");
    T.add("net.wire_ms", tr->stage_mean_ms(stage::kNetWire), "ms");
    for (unsigned s = 1; s < kWriteStageCount; s++) {
      T.add("osd.fig3.s" + std::to_string(s) + "_ms", tr->stage_mean_ms(kWriteStageNames[s]),
            "ms", kWriteStageNames[s]);
    }
    T.add("osd.dispatch_throttle_ms", tr->stage_mean_ms(stage::kDispatchThrottle), "ms");
    T.add("osd.pg_lock_wait_ms", tr->stage_mean_ms(stage::kPgLockWait), "ms");
    T.add("osd.replication_ms", tr->stage_mean_ms(stage::kReplication), "ms");
    T.add("osd.write_op_ms", tr->stage_mean_ms(stage::kWriteOp), "ms");
    T.add("osd.read_op_ms", tr->stage_mean_ms(stage::kReadOp), "ms");
    T.add("journal.write_ms", tr->stage_mean_ms(stage::kJournalWrite), "ms");
    T.add("journal.throttle_ms", tr->stage_mean_ms(stage::kJournalThrottle), "ms");
    T.add("fs.apply_ms", tr->stage_mean_ms(stage::kFsApply), "ms");
    T.add("kv.write_ms", tr->stage_mean_ms(stage::kKvWrite), "ms");
    T.add_ratio("kv.puts_per_write", double(tr->stage_count(stage::kKvWrite)), double(writes),
                "count");
    o.spans = tr->spans_recorded();
    o.span_mismatches = tr->mismatched();
  }
  if (c.simulation().profiling_enabled()) {
    Counters prof;
    c.simulation().profile_into(prof);
    auto& T = o.traced;
    T.add_ratio("sim.cascades_per_event", double(prof.get("sim.events_cascaded")),
                double(prof.get("sim.events_executed")), "count");
    const struct {
      const char* metric;
      std::vector<const char*> sites;
    } kSites[] = {
        {"sim.site.cpu_grant_per_op", {"sim.site.cpu.grant"}},
        {"sim.site.sync_cv_notify_per_op", {"sim.site.sync.cv_notify"}},
        {"sim.site.net_propagation_per_op", {"sim.site.net.propagation"}},
        {"sim.site.dev_per_op", {"sim.site.dev.latency", "sim.site.dev.bus"}},
        {"sim.site.sync_sem_grant_per_op", {"sim.site.sync.sem_grant"}},
        {"sim.site.sync_mutex_handoff_per_op", {"sim.site.sync.mutex_handoff"}},
    };
    for (const auto& s : kSites) {
      std::uint64_t n = 0;
      for (const char* site : s.sites) n += prof.get(site);
      T.add_ratio(s.metric, double(n), double(ops), "count");
    }
  }
}

RunOutcome run_once(const Workload& w, std::uint64_t seed, bool traced) {
  RunOutcome o;
  core::ClusterConfig cfg = w.cfg;
  cfg.seed = seed;
  std::unique_ptr<trace::Collector> collector;
  if (traced) {
    collector = std::make_unique<trace::Collector>();
    trace::Collector::install(collector.get());
  }
  auto t0 = Clock::now();
  auto cluster = std::make_unique<core::ClusterSim>(cfg);
  o.setup_s = seconds_since(t0);
  if (traced) cluster->simulation().enable_profiling();

  t0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  o.r = cluster->run(w.spec);
  o.run_s = seconds_since(t0);
  o.run_cpu_s = thread_cpu_s() - cpu0;
  std::fprintf(stderr, "run seed=%llu traced=%d: setup %.4f s, run %.3f s (cpu %.3f s)\n",
               static_cast<unsigned long long>(seed), int(traced), o.setup_s, o.run_s,
               o.run_cpu_s);

  // The simulation must not advance after run(): its closed loops still
  // point at run()'s local RunStats. Everything below only reads counters.
  o.events = cluster->simulation().executed_events();
  const Time sim_end = cluster->simulation().now();
  collect_layers(*cluster, w, o);
  for (std::size_t i = 0; i < cluster->vm_count(); i++) {
    o.ops_begun += cluster->vm(i).ops_begun();
    o.ops_failed += cluster->vm(i).ops_failed();
  }

  t0 = Clock::now();
  cluster.reset();
  o.teardown_s = seconds_since(t0);
  if (traced) trace::Collector::install(nullptr);

  std::string& sig = o.signature;
  for (double v : {o.r.write_iops, o.r.read_iops, o.r.write_lat_ms, o.r.read_lat_ms,
                   o.r.write_p99_ms, o.r.read_p99_ms, o.r.write_lat.p50_ms(),
                   o.r.read_lat.p50_ms(), o.r.write_cov, o.r.read_cov, o.r.write_path_total_ms}) {
    sig += pb::json_number(v) + " ";
  }
  sig += "events=" + std::to_string(o.events) + " now=" + std::to_string(sim_end) +
         " verify_failures=" + std::to_string(o.r.verify_failures) +
         " ops_begun=" + std::to_string(o.ops_begun) +
         " ops_failed=" + std::to_string(o.ops_failed) +
         " write_samples=" + std::to_string(o.r.write_lat.count()) +
         " read_samples=" + std::to_string(o.r.read_lat.count()) + "\n";
  sig += o.layer.report();
  return o;
}

// --- host-speed reference ------------------------------------------------------

/// Schedule/run ping-pong chains through sim::Simulation's public API (the
/// hot_chain shape of bench/micro_sim): host ns per event, a reading of the
/// host's speed for the event core alone.
double hot_chain_ns_per_event() {
  struct Chain {
    sim::Simulation* sim;
    std::uint64_t* budget;
    unsigned i = 0;
    void step() {
      static constexpr Time kDeltas[4] = {0, 50, 1 * kMicrosecond, 10 * kMicrosecond};
      if (*budget == 0) return;
      (*budget)--;
      sim->schedule_after(kDeltas[i++ & 3], [this] { step(); });
    }
  };
  std::vector<double> samples;
  for (int rep = 0; rep < 3; rep++) {
    sim::Simulation sim;
    std::uint64_t budget = 2'000'000;
    std::vector<Chain> chains(64, Chain{&sim, &budget});
    const auto t0 = Clock::now();
    for (auto& c : chains) c.step();
    sim.run();
    samples.push_back(seconds_since(t0) * 1e9 / double(sim.executed_events()));
  }
  return pb::median(samples);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- checks & output ----------------------------------------------------------

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

void add_run_checks(const Workload& w, const RunOutcome& o, const std::string& tag,
                    std::vector<Check>& checks) {
  checks.push_back({tag + ".verify_failures", o.r.verify_failures == 0,
                    std::to_string(o.r.verify_failures) + " workload verify failures"});
  if (w.spec.verify) {
    checks.push_back({tag + ".read_samples", o.r.read_lat.count() > 0,
                      std::to_string(o.r.read_lat.count()) + " reads in the verify workload"});
  }
}

/// A same-seed run must reproduce `ref` exactly (simulated metrics, layer
/// counters, executed_events, final simulated time).
void add_identity_check(const std::string& name, const RunOutcome& ref, const RunOutcome& o,
                        std::vector<Check>& checks) {
  const bool same = o.signature == ref.signature;
  checks.push_back({name, same,
                    same ? "simulated metrics and executed_events identical"
                         : "first:\n" + ref.signature + "second:\n" + o.signature});
}

void usage() {
  std::fprintf(stderr,
               "usage: afc_bench --workload write_4k|read_4k_8n|mixed_zipf_verify "
               "[--seed N] [--seconds S] [--trace 0|1]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 42;
  double budget_s = 20.0;
  bool trace_mode = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload_name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      budget_s = std::strtod(v, &end);
    } else if (a == "--trace") {
      trace_mode = std::strcmp(v, "1") == 0;
      if (!trace_mode && std::strcmp(v, "0") != 0) end = const_cast<char*>(v);
    } else {
      usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      usage();
      return 2;
    }
  }
  auto workload = make_workload(workload_name, seed);
  if (!workload) {
    usage();
    return 2;
  }
  const Workload& w = *workload;
  // The workloads are fixed here, not by the environment: drop every
  // override ClusterSim would honour (and the trace export it would write).
  for (const char* env : {"AFC_SIM_TRACE", "AFC_SIM_TRACE_OUT", "AFC_SIM_PROFILE",
                          "AFC_NET_TRANSPORT", "AFC_STORE", "AFC_MEMBERSHIP", "AFC_BENCH_JSON"}) {
    unsetenv(env);
  }

  std::vector<Check> checks;
  pb::MetricSet out;
  const auto start = Clock::now();
  // setup_s: the median of eight constructions timed at the start of the
  // process, after one untimed construction that pays one-time costs.
  // Constructions later in the process are slower and noisier: the first one
  // after a measured run's teardown takes two to four times as long, and each
  // construct-and-destroy cycle leaves memory behind.
  std::vector<double> setups;
  if (!trace_mode) {
    for (int i = 0; i <= 8; i++) {
      const auto t0 = Clock::now();
      auto c = std::make_unique<core::ClusterSim>(w.cfg);
      if (i > 0) setups.push_back(seconds_since(t0));
    }
  }
  const ReadbackCheck rbc = readback_check(w);
  checks.push_back({"readback", rbc.finished && rbc.rb.failures == 0 && rbc.rb.verified > 0,
                    std::to_string(rbc.rb.verified) + " reads verified, " +
                        std::to_string(rbc.rb.failures) + " mismatched"});

  // The measured runs: one per sub-seed (trace 0) or an untraced and a
  // traced run of --seed (trace 1).
  std::vector<RunOutcome> runs;
  if (!trace_mode) {
    for (unsigned k = 0; k < w.sub_seeds; k++) {
      runs.push_back(run_once(w, sub_seed(seed, k), false));
    }
  } else {
    runs.push_back(run_once(w, seed, false));
    runs.push_back(run_once(w, seed, true));
  }
  for (std::size_t i = 0; i < runs.size(); i++) {
    add_run_checks(w, runs[i], trace_mode && i == 1 ? "traced" : "run" + std::to_string(i),
                   checks);
  }
  const RunOutcome& first = runs.front();

  std::uint64_t attempted = rbc.rb.verified;
  std::uint64_t failed = rbc.rb.failures;
  for (const auto& o : runs) {
    attempted += o.ops_begun;
    failed += o.ops_failed + o.r.verify_failures;
    if (trace_mode) break;  // the traced run repeats the untraced one
  }

  if (!trace_mode) {
    // Same-seed repeats: the workload's own, then more while the time budget
    // (--seconds) lasts. Each adds a host sample and must reproduce run 0.
    std::vector<double> run_s;
    for (const auto& o : runs) run_s.push_back(o.run_s + o.teardown_s);
    constexpr unsigned kMaxExtra = 2;
    for (unsigned i = 0;
         i < w.repeats || (i < w.repeats + kMaxExtra && seconds_since(start) < budget_s); i++) {
      const RunOutcome again = run_once(w, seed, false);
      run_s.push_back(again.run_s + again.teardown_s);
      add_identity_check("same_seed_identical." + std::to_string(i), first, again, checks);
    }
    // Simulated results pooled over the sub-seed runs.
    Histogram write_lat, read_lat;
    double iops = 0.0;
    for (const auto& o : runs) {
      write_lat.merge(o.r.write_lat);
      read_lat.merge(o.r.read_lat);
      iops += o.r.write_iops + o.r.read_iops;
    }
    Histogram all_lat = write_lat;
    all_lat.merge(read_lat);
    const auto all = pb::summarize(all_lat);
    const auto wr = pb::summarize(write_lat);
    const auto rd = pb::summarize(read_lat);
    const std::string n_runs = std::to_string(runs.size()) + " seeds";
    std::string samples;
    for (double v : setups) samples += " " + pb::json_number(v);
    out.add("setup_s", pb::median(setups), "s",
            std::to_string(setups.size()) + " set-ups:" + samples);
    out.add("run_s", pb::median(run_s), "s", std::to_string(run_s.size()) + " runs");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("sim_iops", iops / double(runs.size()), "1/s", "mean of " + n_runs);
    out.add("sim_p50_ms", all.p50_ms, "ms", std::to_string(all.samples) + " samples");
    out.add("sim_p99_ms", all.p99_ms, "ms", std::to_string(all.samples) + " samples");
    if (wr.samples > 0) {
      out.add("sim_write_p50_ms", wr.p50_ms, "ms", std::to_string(wr.samples) + " samples");
      out.add("sim_write_p99_ms", wr.p99_ms, "ms", std::to_string(wr.samples) + " samples");
    }
    if (rd.samples > 0) {
      out.add("sim_read_p50_ms", rd.p50_ms, "ms", std::to_string(rd.samples) + " samples");
      out.add("sim_read_p99_ms", rd.p99_ms, "ms", std::to_string(rd.samples) + " samples");
    }
    out.add_ratio("ops_failed_frac", double(failed), double(attempted), "frac");
  } else {
    const RunOutcome& traced = runs[1];
    add_identity_check("traced_equals_untraced", first, traced, checks);
    checks.push_back({"trace.spans_paired", traced.span_mismatches == 0 && traced.spans > 0,
                      std::to_string(traced.spans) + " spans, " +
                          std::to_string(traced.span_mismatches) + " mismatched"});
    for (const auto& m : first.layer.all()) out.add(m.name, m.value, m.unit, m.base);
    for (const auto& m : traced.traced.all()) out.add(m.name, m.value, m.unit, m.base);
    out.add("client.verified_reads", double(rbc.rb.verified), "count");
    out.add_ratio("sim.host_ns_per_event", first.run_s * 1e9, double(first.events), "ns");
    out.add("sim.hot_chain_ns_per_event", hot_chain_ns_per_event(), "ns");
    out.add("host.setup_s", first.setup_s, "s");
    out.add("host.run_s", first.run_s, "s");
    out.add("host.teardown_s", first.teardown_s, "s");
    out.add_ratio("host.trace_overhead_frac",
                  (traced.run_s + traced.teardown_s) - (first.run_s + first.teardown_s),
                  first.run_s + first.teardown_s, "frac");
  }

  bool correct = true;
  std::fprintf(stderr, "== %s seed=%llu trace=%d wall=%.1fs ==\n", w.name.c_str(),
               static_cast<unsigned long long>(seed), int(trace_mode), seconds_since(start));
  std::fprintf(stderr, "%s", out.report().c_str());
  std::string checks_json = "[";
  for (std::size_t i = 0; i < checks.size(); i++) {
    const auto& c = checks[i];
    correct = correct && c.ok;
    std::fprintf(stderr, "check %-28s %s  %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL",
                 c.detail.c_str());
    if (i > 0) checks_json += ", ";
    checks_json += "{\"name\": " + pb::json_string(c.name) +
                   ", \"ok\": " + (c.ok ? "true" : "false") +
                   ", \"detail\": " + pb::json_string(c.detail) + "}";
  }
  checks_json += "]";

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"checks\": %s, \"metrics\": %s}\n",
      pb::json_string(w.name).c_str(), static_cast<unsigned long long>(seed), int(trace_mode),
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), checks_json.c_str(), out.to_json().c_str());
  return correct ? 0 : 1;
}
