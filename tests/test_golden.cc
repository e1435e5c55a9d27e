// Behaviour goldens for the OSD commit pipeline: one short ClusterSim run per
// commit combination — {community, afceph} x {FileStore, FlashStore}
// replicated, afceph EC(4+2), and an afceph crash/restart run that drives
// journal replay and the replication watchdog. Each run reduces to a digest
// (executed events, final sim time, FNV-1a over the headline RunResult
// fields and every OSD counter) compared against tests/golden/commit_paths.txt.
//
// A refactor of the write path must leave this file untouched. When a change
// is *meant* to alter behaviour, the failure message prints the full
// replacement file; commit it together with a CHANGES.md line saying why the
// behaviour changed.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "afceph.h"

#ifndef AFC_GOLDEN_DIR
#error "AFC_GOLDEN_DIR must point at tests/golden"
#endif

namespace afc {
namespace {

struct GoldenCase {
  const char* name;
  core::ClusterConfig cfg;
  fault::FaultPlan plan;
};

core::ClusterConfig small_cluster(core::Profile profile, store::Backend backend) {
  core::ClusterConfig cfg;
  cfg.profile = std::move(profile);
  cfg.osd_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  cfg.vms = 4;
  cfg.pg_num = 64;
  cfg.sustained = false;
  cfg.image_size = 256 * kMiB;
  cfg.store_backend = backend;
  return cfg;
}

std::vector<GoldenCase> golden_cases() {
  using store::Backend;
  std::vector<GoldenCase> cases;
  cases.push_back({"community_file", small_cluster(core::Profile::community(), Backend::kFile), {}});
  cases.push_back({"community_flash", small_cluster(core::Profile::community(), Backend::kFlash), {}});
  cases.push_back({"afceph_file", small_cluster(core::Profile::afceph(), Backend::kFile), {}});
  cases.push_back({"afceph_flash", small_cluster(core::Profile::afceph(), Backend::kFlash), {}});

  core::ClusterConfig ec = small_cluster(core::Profile::afceph(), Backend::kFile);
  ec.osd_nodes = 6;
  ec.osds_per_node = 1;
  ec.pg_num = 32;
  ec.ec_pool = true;
  ec.ec_k = 4;
  ec.ec_m = 2;
  ec.osd.rep_timeout = 20 * kMillisecond;
  ec.osd.rep_retries = 1;
  cases.push_back({"afceph_ec42_file", ec, {}});

  // osd 1 dies mid-persist behind a journal stall (a torn tail, then a
  // replay of the surviving records on restart); osd 2 crashes and restarts
  // plainly. The primaries' watchdog resends to and then abandons the dead
  // replicas (degraded acks at 1 copy).
  core::ClusterConfig crash = small_cluster(core::Profile::afceph(), Backend::kFile);
  crash.osd_nodes = 4;
  crash.osds_per_node = 1;
  crash.min_size = 1;
  crash.osd.rep_timeout = 40 * kMillisecond;
  crash.osd.rep_retries = 2;
  crash.client_op_timeout = 250 * kMillisecond;
  crash.client_op_retries = 4;
  fault::FaultPlan plan;
  plan.journal_stall(120 * kMillisecond, 1, 40 * kMillisecond);
  plan.torn_write(150 * kMillisecond, 1);
  plan.restart(300 * kMillisecond, 1);
  plan.crash_restart(220 * kMillisecond, 2, 100 * kMillisecond);
  cases.push_back({"afceph_file_crash_restart", crash, plan});
  return cases;
}

client::WorkloadSpec golden_workload() {
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.write_fraction = 0.7;  // reads ride the ondisk-read gate behind writes
  spec.verify = true;
  spec.warmup = 50 * kMillisecond;
  spec.runtime = 400 * kMillisecond;
  return spec;
}

/// FNV-1a accumulator, same shape as bench/chaos.cc's collect_digest.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    for (char c : s) mix(std::uint64_t(std::uint8_t(c)));
  }
};

std::string run_digest(const GoldenCase& gc) {
  core::ClusterSim cluster(gc.cfg);
  if (!gc.plan.empty()) cluster.install_faults(gc.plan);
  const core::RunResult r = cluster.run(golden_workload());

  Fnv f;
  for (double v : {r.write_iops, r.read_iops, r.write_lat_ms, r.read_lat_ms, r.write_p99_ms,
                   r.read_p99_ms, r.write_cov, r.read_cov, r.write_path_total_ms}) {
    f.mix(v);
  }
  for (double v : r.stage_ms) f.mix(v);
  f.mix(r.verify_failures);
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    auto& vm = cluster.vm(v);
    f.mix(vm.ops_begun());
    f.mix(vm.ops_resolved());
    f.mix(vm.issued());
    f.mix(vm.completed());
  }
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    auto& osd = cluster.osd(o);
    f.mix(osd.client_writes());
    f.mix(osd.client_reads());
    f.mix(osd.replica_ops());
    for (const auto& [name, value] : osd.counters().all()) {
      f.mix(name);
      f.mix(value);
    }
  }
  const std::uint64_t events = cluster.simulation().executed_events();
  const Time now = cluster.simulation().now();
  f.mix(events);

  char line[160];
  std::snprintf(line, sizeof line, "%s events=%llu now=%llu hash=%016llx", gc.name,
                static_cast<unsigned long long>(events), static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(f.h));

  // Drain the ops still in flight at the window end, then unpark the worker
  // coroutines so the sanitizer leg sees no stranded frames.
  cluster.simulation().run();
  cluster.close_all();
  cluster.simulation().run();
  return line;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Golden, CommitPathsMatchCommittedDigests) {
  const std::string path = std::string(AFC_GOLDEN_DIR) + "/commit_paths.txt";
  std::string actual;
  for (const auto& gc : golden_cases()) actual += run_digest(gc) + "\n";
  const std::string expected = read_file(path);
  EXPECT_EQ(expected, actual) << "behaviour digests differ from " << path
                              << "\n--- replacement file ---\n"
                              << actual << "--- end ---";
}

}  // namespace
}  // namespace afc
