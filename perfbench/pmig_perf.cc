// Two-clock benchmark program: runs one workload's fixed, seeded scenario on the
// simulator and prints the raw measurements as one JSON object on stdout.
// perfbench/run.py turns them into the reported metrics and applies the
// correctness gate; this program only measures and checks simulator state.
//
//   pmig_perf --workload <hog_spread|migrate_churn|cached_remigrate>
//             --seed <n> --seconds <s>
//
// One invocation does, in order:
//   1. set-up samples: the testbed (Cluster boot, InstallMigration, program
//      assembly and install) built repeatedly, bare Cluster boots, and bare
//      assemblies of the workload's program;
//   2. untraced repetitions of the scenario, with all observation off, until
//      the time budget is spent and enough migrate samples exist for a p90;
//   3. one traced repetition with every observation subsystem armed, which
//      supplies the exact counts (instructions, bytes, spans) and must repeat
//      every virtual-clock number of the untraced repetitions bit for bit;
//   4. the isolated interpreter probe: the hog image on a bare vm::Cpu.
//
// Virtual numbers are integers (nanoseconds, bytes, counts) so they compare
// exactly; host numbers are doubles, in milliseconds of process CPU time. The
// benchmark starts no threads of its own: the simulator's native tasks hand
// off one at a time, so a run keeps one core busy.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/load_balancer.h"
#include "src/apps/recovery.h"
#include "src/sim/rng.h"
#include "src/vm/assembler.h"
#include "src/vm/cpu.h"

namespace pmig::perfbench {
namespace {

using bench::Testbed;
using bench::TestbedOptions;
// Host cost is the process's CPU time, not wall time: the simulator keeps one
// core busy (its native tasks hand off one at a time), and CPU time leaves out
// the stretches a shared machine spends running someone else.
double HostMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// ---------------------------------------------------------------------------
// Workload shapes. Sizes are fixed in ops (jobs, legs), never in host time: the
// kernel keeps every proc it ever spawned, so per-migrate host cost grows with
// the leg count and a time-bounded run would measure a moving target.

constexpr int kHogHosts = 32;
constexpr int kHogJobs = 24;
constexpr int64_t kHogMeanIterations = 1500000;  // 2 instructions each
constexpr int kChurnBlocks = 25;                  // x 8 (placement, transport) legs
constexpr int kCachedLaps = 24;                   // x 4 legs
constexpr int kCachedHosts = 4;
constexpr size_t kMinMigrateSamples = 100;       // p90 needs 10 samples beyond it
constexpr double kMaxRunSeconds = 150;           // hard stop for the untraced loop

enum class Workload { kHogSpread, kMigrateChurn, kCachedRemigrate };

// The ~100 KB text + ~100 KB data big job of bench/ablation_incremental.cc.
std::string BigJobSource() {
  return core::WithPadding(core::CounterProgramSource(), /*extra_text_instructions=*/12500,
                           /*extra_data_bytes=*/100000);
}

std::string WorkloadProgramSource(Workload w) {
  switch (w) {
    case Workload::kHogSpread:
      return std::string(core::CpuHogProgramSource());
    case Workload::kMigrateChurn:
      return core::WithPadding(core::CounterProgramSource(), 1400, 5600);  // bigcounter
    case Workload::kCachedRemigrate:
      return BigJobSource();
  }
  return {};
}

// One migrate leg, fully resolved by the generator. Placements are Figure 4's,
// relative to the machine the command is typed on (L = that machine).
struct Leg {
  std::string placement;  // "LL", "LR", "RL" or "RR"
  bool daemon = false;    // --daemon transport (else rsh)
  std::string from;
  std::string to;
  std::string typed_on;
  // Typed after the leg: to the job when it kept its terminal (the restart ran
  // on the machine migrate was typed on), else as the first line of a fresh
  // job started on `next_host` (a restart under rsh or the daemon has no
  // terminal, so the job reads end-of-file and exits 0).
  std::string line;
  std::string next_host;
};

struct Inputs {
  Workload workload = Workload::kHogSpread;
  std::vector<int64_t> hog_iterations;
  std::string first_host;
  std::string first_line;
  std::vector<Leg> legs;
};

std::string RandomLine(sim::Rng& rng) {
  return rng.Ident(static_cast<int>(rng.Range(8, 40))) + "\n";
}

template <typename T>
void Shuffle(std::vector<T>* v, sim::Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
  }
}

// Everything the scenario depends on comes from here; the simulator only ever
// sees the generated sizes, hosts and lines.
Inputs Generate(Workload w, uint64_t seed) {
  Inputs in;
  in.workload = w;
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5851F42D4C957F2DULL);
  if (w == Workload::kHogSpread) {
    // Seeded sizes around a fixed total, so the simulated work (and with it the
    // host time) is the same for every seed while the schedule is not.
    std::vector<double> weight(kHogJobs);
    double sum = 0;
    for (double& x : weight) sum += x = 0.8 + 0.4 * rng.Double();
    for (double x : weight) {
      in.hog_iterations.push_back(
          static_cast<int64_t>(x / sum * kHogJobs * kHogMeanIterations));
    }
    return in;
  }
  if (w == Workload::kMigrateChurn) {
    const std::vector<std::string> hosts = {"brick", "schooner", "brador"};
    const auto others = [&hosts](const std::string& h) {
      std::vector<std::string> o;
      for (const std::string& x : hosts) {
        if (x != h) o.push_back(x);
      }
      return o;
    };
    std::string current = hosts[rng.Below(hosts.size())];
    in.first_host = current;
    in.first_line = RandomLine(rng);
    // Each block of eight legs is a seeded order of every (placement,
    // transport) pair, so the mix is fixed and only the order and hosts vary.
    for (int b = 0; b < kChurnBlocks; ++b) {
      std::vector<std::pair<std::string, bool>> block;
      for (const char* p : {"LL", "LR", "RL", "RR"}) {
        block.push_back({p, false});
        block.push_back({p, true});
      }
      Shuffle(&block, rng);
      for (const auto& [placement, daemon] : block) {
        Leg leg;
        leg.placement = placement;
        leg.daemon = daemon;
        leg.from = current;
        const std::vector<std::string> o = others(current);
        const size_t k = rng.Below(2);
        if (placement == "LL") {
          leg.typed_on = leg.to = current;
        } else if (placement == "LR") {
          leg.typed_on = current;
          leg.to = o[k];
        } else if (placement == "RL") {
          leg.typed_on = leg.to = o[k];
        } else {
          leg.typed_on = o[k];
          leg.to = o[1 - k];
        }
        leg.line = RandomLine(rng);
        if (leg.to == leg.typed_on) {
          current = leg.to;
        } else {
          leg.next_host = hosts[rng.Below(hosts.size())];
          current = leg.next_host;
        }
        in.legs.push_back(std::move(leg));
      }
    }
    return in;
  }
  // cached_remigrate: round robin over a seeded order of the hosts, typed on
  // the destination (so the job keeps its terminal).
  std::vector<std::string> order;
  for (int i = 0; i < kCachedHosts; ++i) order.push_back(testbed::DefaultHostName(i));
  Shuffle(&order, rng);
  in.first_host = order[0];
  in.first_line = RandomLine(rng);
  for (int i = 0; i < kCachedLaps * kCachedHosts; ++i) {
    Leg leg;
    leg.placement = "RL";
    leg.daemon = true;
    leg.from = order[static_cast<size_t>(i % kCachedHosts)];
    leg.to = leg.typed_on = order[static_cast<size_t>((i + 1) % kCachedHosts)];
    leg.line = RandomLine(rng);
    in.legs.push_back(std::move(leg));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Calibration: a fixed CPU-bound task in the benchmark's own code, timed before
// every repetition. run.py scales every host time by the run's median
// calibration, so host metrics follow the simulator's cost rather than how busy
// the shared machine was. No simulator code runs here.

volatile uint64_t g_calibration_sink = 0;

double CalibrationMs() {
  const double t0 = HostMs();
  uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // A small switch-dispatched interpreter, like the simulator's VM loop.
  std::vector<uint8_t> program(4096);
  for (uint8_t& op : program) op = static_cast<uint8_t>(next() & 7);
  uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int pass = 0; pass < 600; ++pass) {
    for (const uint8_t op : program) {
      switch (op) {
        case 0: r[0] += r[1] + 1; break;
        case 1: r[1] ^= r[0] << 1; break;
        case 2: r[2] = r[2] * 3 + r[3]; break;
        case 3: r[3] -= r[2] >> 2; break;
        case 4: r[5] += r[4] & 1; break;
        case 5: r[6] = (r[6] + r[5]) % 1000003; break;
        case 6: r[7] ^= r[6] * 31; break;
        default: r[4] += r[7] & 255; break;
      }
    }
  }
  // Ordered-map churn, like the simulator's proc and metric tables.
  std::map<uint64_t, uint64_t> m;
  for (int i = 0; i < 60000; ++i) {
    m[next() % 200003] += x;
    if (m.size() > 5000) m.erase(m.begin());
  }
  uint64_t sum = 0;
  for (const auto& [key, value] : m) sum += key ^ value;
  for (const uint64_t v : r) sum += v;
  g_calibration_sink = sum;
  return HostMs() - t0;
}

// ---------------------------------------------------------------------------
// Measurement records.

// Host time the benchmark spends inside its own calls into one layer's public
// functions (Cluster::RunFor/RunUntil, Kernel spawns, Tty::Type). Clock reads
// around the call only; no simulator state is touched.
class HostSpans {
 public:
  class Scope {
   public:
    Scope(HostSpans& spans, const char* layer) : spans_(spans), layer_(layer), t0_(HostMs()) {}
    ~Scope() { spans_.ms_[layer_] += HostMs() - t0_; }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostSpans& spans_;
    const char* layer_;
    double t0_;
  };

  const std::map<std::string, double>& ms() const { return ms_; }

 private:
  std::map<std::string, double> ms_;
};

// Exact virtual-clock outputs and counts. The traced run must reproduce every
// field of the untraced runs.
struct Virtual {
  std::vector<int64_t> vmigrate_ns;  // one per migrate, in order
  int64_t vcpu_ns = 0;               // CPU charged to migration, summed over hosts
  int64_t makespan_ns = 0;           // first job start to last op end
  int64_t migrations = 0;            // committed migrations
  int64_t aborted_migrates = 0;      // hog_spread: dumpproc ran, restart never did
  int64_t ops_attempted = 0;
  int64_t ops_failed = 0;
  int64_t syscalls = 0;              // KernelStats, summed over hosts
  int64_t context_switches = 0;
  int64_t procs_spawned = 0;
  int64_t signals_posted = 0;
};

struct ScenarioResult {
  double setup_ms = 0;
  double run_ms = 0;                     // the scenario after set-up
  std::vector<double> migrate_host_ms;   // one per migrate, in order
  HostSpans spans;
  Virtual v;
  std::vector<std::string> failures;     // correctness gate
  // Traced run only.
  std::map<std::string, int64_t> totals;    // whole-scenario counter deltas
  std::map<std::string, int64_t> windowed;  // counter deltas inside migrate windows
  std::map<std::string, int64_t> phase_ns;  // SpanLog::PhaseSelfTimes
  int64_t span_migrate_ns = 0;              // sum of closed "migrate" roots
  int64_t span_migrates = 0;
  std::vector<int64_t> dump_span_ns;
  std::vector<int64_t> restart_span_ns;
  int64_t transfer_ns_p50 = 0;
};

// Counters read from every host's metrics registry (zero unless metrics are on).
// "net.wire_bytes" sums every net.bytes.<a>-><b> counter.
const char* const kCounterNames[] = {
    "kernel.instructions",  "vfs.bytes_written",      "vfs.nfs_bytes_read",
    "vfs.nfs_bytes_written", "vfs.name_bytes_copied", "net.rsh_connections",
    "net.daemon_connections", "net.wire_bytes",       "cache.seg.dump_hits",
    "cache.seg.dump_misses", "migration.bytes_saved", "migrate.retries",
    "migrate.fallback_restarts", "placement.survey_msgs", "balancer.rounds",
    "balancer.idle_rounds",
};

std::map<std::string, int64_t> ReadCounters(Testbed& world) {
  std::map<std::string, int64_t> out;
  for (const char* name : kCounterNames) out[name] = 0;
  out["bytes_moved"] = bench::TotalBytesMoved(world);
  for (const auto& host : world.cluster().hosts()) {
    const sim::MetricsRegistry& m = host->metrics();
    for (const auto& [name, value] : m.counters()) {
      if (name.rfind("net.bytes.", 0) == 0) {
        out["net.wire_bytes"] += value;
      } else if (out.count(name) != 0) {
        out[name] += value;
      }
    }
  }
  return out;
}

void AddDelta(std::map<std::string, int64_t>* acc, const std::map<std::string, int64_t>& after,
              const std::map<std::string, int64_t>& before) {
  for (const auto& [name, value] : after) (*acc)[name] += value - before.at(name);
}

// Cluster::Boot numbers host i's pids from 100 + 1000 * i, one per spawn.
int32_t PidBase(size_t host_index) { return 100 + 1000 * static_cast<int32_t>(host_index); }

size_t HostIndex(Testbed& world, const std::string& name) {
  const auto& hosts = world.cluster().hosts();
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i]->hostname() == name) return i;
  }
  std::fprintf(stderr, "no host %s\n", name.c_str());
  std::abort();
}

// Every process a host ever spawned, reaped ones included.
template <typename Fn>
void ForEachProc(Testbed& world, Fn fn) {
  const auto& hosts = world.cluster().hosts();
  for (size_t i = 0; i < hosts.size(); ++i) {
    kernel::Kernel& k = *hosts[i];
    const int64_t n = k.stats().procs_spawned;
    for (int64_t j = 0; j < n; ++j) {
      kernel::Proc* p = k.FindAnyProc(PidBase(i) + static_cast<int32_t>(j));
      if (p != nullptr) fn(k, *p);
    }
  }
}

// CPU that is not VM user time: kernel work, the migration tools, the
// daemons and the balancer. hog_spread cannot window its migrations in
// virtual time (every host is busy with hogs meanwhile), so this is its
// migration CPU.
int64_t NonVmCpu(Testbed& world) {
  int64_t total = 0;
  ForEachProc(world, [&total](kernel::Kernel&, kernel::Proc& p) {
    total += p.stime + (p.kind == kernel::ProcKind::kVm ? 0 : p.utime);
  });
  return total;
}

// ---------------------------------------------------------------------------
// The correctness gate's checks on simulator state.

struct JobRoot {
  std::string host;
  int32_t pid = 0;
};

// Conservation: following each job through its incarnations (a restarted
// process names its predecessor in old_host/old_pid), every dumped incarnation
// has exactly one successor, no VM process is outside a job, and the last
// incarnation is alive (when `may_stay_alive`) or exited 0. Returns the number
// of jobs that fail, and the count of migrations that landed on another host.
int CheckConservation(Testbed& world, const std::vector<JobRoot>& roots, bool may_stay_alive,
                      std::vector<std::string>* failures, int64_t* moves) {
  std::map<std::pair<std::string, int32_t>, kernel::Proc*> vm;
  std::map<std::pair<std::string, int32_t>, std::vector<kernel::Proc*>> successors;
  ForEachProc(world, [&](kernel::Kernel& k, kernel::Proc& p) {
    if (p.kind != kernel::ProcKind::kVm) return;
    vm[{k.hostname(), p.pid}] = &p;
    if (p.migrated) successors[{p.old_host, p.old_pid}].push_back(&p);
  });
  std::map<kernel::Proc*, std::string> host_of;
  for (const auto& [key, p] : vm) host_of[p] = key.first;

  *moves = 0;
  int bad_jobs = 0;
  size_t reached = 0;
  for (const JobRoot& root : roots) {
    std::string why;
    auto it = vm.find({root.host, root.pid});
    kernel::Proc* p = it == vm.end() ? nullptr : it->second;
    std::string host = root.host;
    if (p == nullptr) why = "never started";
    while (p != nullptr && why.empty()) {
      ++reached;
      if (!p->exit_info.migration_dumped) break;
      const auto succ = successors.find({host, p->pid});
      if (succ == successors.end() || succ->second.empty()) {
        why = "lost after its dump on " + host;
        break;
      }
      if (succ->second.size() > 1) {
        why = "restarted twice from " + host;
        break;
      }
      kernel::Proc* next = succ->second.front();
      if (host_of[next] != host) ++*moves;
      host = host_of[next];
      p = next;
    }
    if (why.empty() && p != nullptr) {
      if (p->Alive()) {
        if (!may_stay_alive) why = "still alive on " + host;
      } else if (p->exit_info.exit_code != 0 || p->exit_info.killed_by_signal != 0) {
        why = "exited with code " + std::to_string(p->exit_info.exit_code) + " signal " +
              std::to_string(p->exit_info.killed_by_signal) + " on " + host;
      }
    }
    if (!why.empty()) {
      ++bad_jobs;
      failures->push_back("job " + root.host + ":" + std::to_string(root.pid) + " " + why);
    }
  }
  if (reached != vm.size()) {
    failures->push_back(std::to_string(vm.size() - reached) +
                        " VM processes belong to no job (duplicated restarts)");
    ++bad_jobs;
  }
  return bad_jobs;
}

// No dump set, ready/claim marker or placement lease may outlive the run.
void CheckNoLeftovers(Testbed& world, std::vector<std::string>* failures) {
  for (const auto& host : world.cluster().hosts()) {
    for (const char* dir : {"/usr/tmp", apps::kLeaseDir}) {
      auto r = host->vfs().Resolve(host->vfs().RootState(), dir, vfs::Follow::kAll, nullptr);
      if (!r.ok() || !r->inode->IsDir()) continue;
      for (const auto& [name, inode] : r->inode->entries) {
        failures->push_back("left over: " + host->hostname() + ":" + dir + "/" + name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scenarios.

class Scenario {
 public:
  Scenario(const Inputs& in, bool traced) : in_(in), traced_(traced) {}

  ScenarioResult Run() {
    const double t0 = HostMs();
    std::unique_ptr<Testbed> world = Setup(in_.workload, traced_);
    out_.setup_ms = HostMs() - t0;
    world_ = world.get();
    if (traced_) before_ = ReadCounters(*world_);
    const double t1 = HostMs();
    if (in_.workload == Workload::kHogSpread) {
      RunHogSpread();
    } else {
      RunLegs();
    }
    out_.run_ms = HostMs() - t1;
    Finish();
    return std::move(out_);
  }

  // Builds the workload's testbed and installs its programs: what setup_s times.
  static std::unique_ptr<Testbed> Setup(Workload w, bool traced) {
    TestbedOptions options;
    options.daemons = true;
    if (w == Workload::kHogSpread) {
      options.num_hosts = kHogHosts;
    } else {
      options.num_hosts = w == Workload::kMigrateChurn ? 3 : kCachedHosts;
      options.file_server_home = true;
      options.dirty_tracking = w == Workload::kCachedRemigrate;
    }
    if (traced) bench::EnableAllInstrumentation(&options);
    // The sampler is the event-driven balancer's wake source, so its period is
    // part of hog_spread's input, traced or not.
    options.sample_period = w == Workload::kHogSpread ? sim::Millis(500)
                                                      : (traced ? options.sample_period : 0);
    auto world = std::make_unique<Testbed>(options);
    if (w == Workload::kMigrateChurn) {
      bench::InstallPaddedCounter(*world);
    } else if (w == Workload::kCachedRemigrate) {
      const std::string source = BigJobSource();
      for (const auto& host : world->cluster().hosts()) {
        core::InstallProgram(*host, "/bin/bigjob", source);
      }
    }
    return world;
  }

 private:
  sim::Nanos Now() { return world_->cluster().clock().now(); }

  bool RunUntilBlocked(const std::string& host, int32_t pid) {
    HostSpans::Scope span(out_.spans, "cluster");
    return world_->RunUntilBlocked(host, pid);
  }
  bool RunUntilExited(const std::string& host, int32_t pid) {
    HostSpans::Scope span(out_.spans, "cluster");
    return world_->RunUntilExited(host, pid);
  }
  void Type(const std::string& host, const std::string& line) {
    HostSpans::Scope span(out_.spans, "kernel");
    world_->console(host)->Type(line);
    typed_ += line;
  }

  // Starts a job blocked at its prompt after consuming `line`.
  int32_t StartJob(const std::string& host, const std::string& line) {
    const std::string path =
        in_.workload == Workload::kMigrateChurn ? "/bin/bigcounter" : "/bin/bigjob";
    int32_t pid = 0;
    {
      HostSpans::Scope span(out_.spans, "kernel");
      pid = world_->StartVm(host, path);
    }
    roots_.push_back({host, pid});
    RunUntilBlocked(host, pid);
    Type(host, line);
    RunUntilBlocked(host, pid);
    return pid;
  }

  // The process `to` restarted from (from, pid) since it had spawned `spawned`.
  kernel::Proc* FindIncarnation(const std::string& to, int64_t spawned,
                                const std::string& from, int32_t pid) {
    const size_t index = HostIndex(*world_, to);
    kernel::Kernel& k = world_->host(to);
    for (int64_t j = spawned; j < k.stats().procs_spawned; ++j) {
      kernel::Proc* p = k.FindAnyProc(PidBase(index) + static_cast<int32_t>(j));
      if (p != nullptr && p->migrated && p->old_pid == pid && p->old_host == from) return p;
    }
    return nullptr;
  }

  // migrate_churn and cached_remigrate: a closed loop of typed migrates, one
  // line typed between legs.
  void RunLegs() {
    const sim::Nanos start = Now();
    int32_t pid = StartJob(in_.first_host, in_.first_line);
    const size_t legs = in_.legs.size();
    out_.v.ops_attempted = static_cast<int64_t>(legs);
    for (size_t i = 0; i < legs; ++i) {
      const Leg& leg = in_.legs[i];
      std::vector<std::string> args = {"-p", std::to_string(pid), "-f", leg.from,
                                       "-t", leg.to,              "--robust"};
      if (leg.daemon) args.push_back("--daemon");
      if (in_.workload == Workload::kCachedRemigrate) args.push_back("--cached");
      const int64_t spawned = world_->host(leg.to).stats().procs_spawned;

      std::map<std::string, int64_t> c0;
      if (traced_) c0 = ReadCounters(*world_);
      const sim::Nanos cpu0 = world_->cluster().TotalCpu();
      const sim::Nanos v0 = Now();
      const double h0 = HostMs();
      int32_t mig = 0;
      {
        HostSpans::Scope span(out_.spans, "kernel");
        mig = world_->StartTool(leg.typed_on, "migrate", args, bench::kUserUid,
                                world_->console(leg.typed_on));
      }
      RunUntilExited(leg.typed_on, mig);
      out_.migrate_host_ms.push_back(HostMs() - h0);
      out_.v.vmigrate_ns.push_back(Now() - v0);
      out_.v.vcpu_ns += world_->cluster().TotalCpu() - cpu0;
      if (traced_) AddDelta(&out_.windowed, ReadCounters(*world_), c0);

      const kernel::ExitInfo info = world_->ExitInfoOf(leg.typed_on, mig);
      kernel::Proc* next = FindIncarnation(leg.to, spawned, leg.from, pid);
      if (info.exit_code != 0 || info.killed_by_signal != 0 || next == nullptr) {
        out_.failures.push_back("leg " + std::to_string(i) + " " + leg.placement + " " +
                                leg.from + "->" + leg.to + ": migrate exit " +
                                std::to_string(info.exit_code) +
                                (next == nullptr ? ", no restarted process" : ""));
        out_.v.ops_failed += static_cast<int64_t>(legs - i);  // the loop cannot go on
        break;
      }
      ++out_.v.migrations;
      pid = next->pid;
      if (leg.to == leg.typed_on) {
        Type(leg.to, leg.line);
        RunUntilBlocked(leg.to, pid);
      } else {
        RunUntilExited(leg.to, pid);  // no terminal: end-of-file, exit 0
        pid = StartJob(leg.next_host, leg.line);
      }
    }
    out_.v.makespan_ns = Now() - start;
  }

  // hog_spread: the event-driven, indexed, fault-aware balancer spreads the
  // hogs until every one has exited.
  void RunHogSpread() {
    // The balancer calls core::Migrate itself, so a migration's window is cut
    // from the tools it runs: it opens when the victim's dumpproc starts and
    // closes when its restart overlays the process (the restart entry unwinds
    // through the wrapper). Clock reads only; the tools run unchanged.
    struct Windows {
      std::map<int32_t, std::pair<double, sim::Nanos>> open;
    };
    auto windows = std::make_shared<Windows>();
    cluster::Cluster& cluster = world_->cluster();
    const kernel::ProgramEntry dumpproc = cluster.programs().at("dumpproc");
    const kernel::ProgramEntry restart = cluster.programs().at("restart");
    const auto victim = [](const std::vector<std::string>& args) {
      return args.size() >= 2 && args[0] == "-p" ? std::atoi(args[1].c_str()) : -1;
    };
    cluster.RegisterProgram("dumpproc", [windows, dumpproc, victim](
                                            kernel::SyscallApi& api,
                                            const std::vector<std::string>& args) {
      windows->open.emplace(victim(args), std::make_pair(HostMs(), api.Now()));
      return dumpproc(api, args);
    });
    ScenarioResult* out = &out_;
    cluster.RegisterProgram("restart", [windows, restart, victim, out](
                                           kernel::SyscallApi& api,
                                           const std::vector<std::string>& args) {
      struct Close {
        kernel::SyscallApi& api;
        int32_t pid;
        Windows& w;
        ScenarioResult* out;
        ~Close() {
          const auto it = w.open.find(pid);
          if (!api.proc().overlaid || it == w.open.end()) return;
          out->migrate_host_ms.push_back(HostMs() - it->second.first);
          out->v.vmigrate_ns.push_back(api.Now() - it->second.second);
          w.open.erase(it);
        }
      } close{api, victim(args), *windows, out};
      return restart(api, args);
    });

    const int64_t cpu0 = NonVmCpu(*world_);
    const sim::Nanos start = Now();
    for (const int64_t n : in_.hog_iterations) {
      HostSpans::Scope span(out_.spans, "kernel");
      roots_.push_back({"brick", world_->StartVm("brick", "/bin/hog", {"hog", std::to_string(n)})});
    }
    out_.v.ops_attempted = static_cast<int64_t>(roots_.size());
    {
      HostSpans::Scope span(out_.spans, "cluster");
      cluster.RunFor(sim::Seconds(1));
    }
    net::Network* net = &cluster.network();
    kernel::SpawnOptions root;
    {
      HostSpans::Scope span(out_.spans, "kernel");
      balancer_ = world_->host("brick").SpawnNative(
          "balancer",
          [net](kernel::SyscallApi& api) {
            apps::LoadBalancerOptions lb;
            lb.poll_interval = sim::Seconds(2);
            lb.min_age = sim::Seconds(1);
            lb.max_rounds = 100000;  // runs until the testbed is torn down
            lb.policy = apps::PlacementPolicy::kFaultAware;
            lb.migrate = core::MigrateOptions::Robust();
            lb.use_index = true;
            lb.index_ttl = sim::Seconds(600);
            lb.batch_per_round = 4;
            lb.event_driven = true;
            lb.max_idle = sim::Seconds(120);
            apps::RunLoadBalancer(api, *net, lb);
            return 0;
          },
          root);
    }
    // Done when no hog is alive and no dump set is in flight (between a
    // victim's death and its restart no VM process exists). Polled every
    // 100 ms of virtual time: a per-quantum predicate would scan every proc
    // table on every step and inflate the host time it measures.
    const auto busy = [&cluster] {
      for (const auto& host : cluster.hosts()) {
        for (kernel::Proc* p : host->ListProcs()) {
          if (p->kind == kernel::ProcKind::kVm) return true;
        }
        auto tmp = host->vfs().Resolve(host->vfs().RootState(), "/usr/tmp",
                                       vfs::Follow::kAll, nullptr);
        if (tmp.ok() && !tmp->inode->entries.empty()) return true;
      }
      return false;
    };
    for (sim::Nanos waited = 0; busy() && waited < sim::Seconds(3600);
         waited += sim::Millis(100)) {
      HostSpans::Scope span(out_.spans, "cluster");
      cluster.RunFor(sim::Millis(100));
    }
    out_.v.makespan_ns = Now() - start;
    out_.v.vcpu_ns = NonVmCpu(*world_) - cpu0;
    // A migration whose restart never ran: the victim finished before its dump
    // (conservation below still requires the job to have exited 0).
    out_.v.aborted_migrates = static_cast<int64_t>(windows->open.size());
  }

  // Untimed: the gate and the traced run's reads.
  void Finish() {
    Testbed& world = *world_;
    if (balancer_ > 0) {
      // Stop the balancer while the cluster is whole: a native task unwound
      // by the Cluster destructor runs after the Network is gone, and the
      // balancer's ClusterIndex unregisters from it on the way out.
      const Status killed = world.host("brick").PostSignal(balancer_, vm::abi::kSigKill, nullptr);
      (void)killed;  // the exit below is what counts
      world.RunUntilExited("brick", balancer_);
    }
    int64_t moves = 0;
    const bool legs = in_.workload != Workload::kHogSpread;
    out_.v.ops_failed += CheckConservation(world, roots_, /*may_stay_alive=*/legs,
                                           &out_.failures, &moves);
    if (!legs) out_.v.migrations = moves;
    const size_t before = out_.failures.size();
    CheckNoLeftovers(world, &out_.failures);
    if (legs) {
      const std::string server = world.cluster().hosts().back()->hostname();
      if (world.FileContents(server, "/u2/user/counter.out") != typed_) {
        out_.failures.push_back("counter.out does not hold exactly the lines typed");
      }
    }
    if (out_.failures.size() > before) ++out_.v.ops_failed;
    out_.v.ops_failed = std::min(out_.v.ops_failed, out_.v.ops_attempted);
    for (const auto& host : world.cluster().hosts()) {
      const kernel::KernelStats& s = host->stats();
      out_.v.syscalls += s.syscalls;
      out_.v.context_switches += s.context_switches;
      out_.v.procs_spawned += s.procs_spawned;
      out_.v.signals_posted += s.signals_posted;
    }
    if (!traced_) return;

    AddDelta(&out_.totals, ReadCounters(world), before_);
    if (!legs) out_.windowed = out_.totals;  // every byte is migration traffic
    const sim::SpanLog& spans = world.cluster().spans();
    for (const auto& [phase, ns] : spans.PhaseSelfTimes()) {
      out_.phase_ns[phase == "migrate" ? "other" : phase] += ns;
    }
    std::map<uint64_t, const sim::SpanRecord*> by_id;
    for (const sim::SpanRecord& s : spans.spans()) by_id[s.id] = &s;
    for (const sim::SpanRecord& s : spans.spans()) {
      if (!s.closed()) continue;
      if (s.phase == "migrate") {
        out_.span_migrate_ns += s.duration();
        ++out_.span_migrates;
        continue;
      }
      const auto parent = by_id.find(s.parent_id);
      if (parent == by_id.end() || parent->second->phase != "migrate") continue;
      if (s.phase == "dump") out_.dump_span_ns.push_back(s.duration());
      if (s.phase == "restart") out_.restart_span_ns.push_back(s.duration());
    }
    const sim::MetricsRegistry all = world.cluster().AggregateMetrics();
    if (const sim::Histogram* h = all.FindHistogram("net.transfer_ns")) {
      out_.transfer_ns_p50 = h->Percentile(50);
    }
  }

  const Inputs& in_;
  const bool traced_;
  Testbed* world_ = nullptr;
  ScenarioResult out_;
  std::vector<JobRoot> roots_;
  int32_t balancer_ = 0;
  std::string typed_;
  std::map<std::string, int64_t> before_;
};

// ---------------------------------------------------------------------------
// Set-up and interpreter probes.

double TimeClusterBoot(Workload w) {
  cluster::ClusterConfig config;
  const int hosts = w == Workload::kHogSpread      ? kHogHosts
                    : w == Workload::kMigrateChurn ? 3
                                                   : kCachedHosts;
  for (int i = 0; i < hosts; ++i) config.hosts.push_back({testbed::DefaultHostName(i)});
  config.start_migration_daemons = true;
  config.kernel.track_dirty_pages = w == Workload::kCachedRemigrate;
  const double t0 = HostMs();
  cluster::Cluster cluster(std::move(config));
  return HostMs() - t0;
}

double TimeAssemble(const std::string& source) {
  const double t0 = HostMs();
  const vm::AsmOutput out = vm::Assemble(source);
  const double ms = HostMs() - t0;
  if (!out.ok) {
    std::fprintf(stderr, "workload program does not assemble\n");
    std::exit(2);
  }
  return ms;
}

// Host ns per instruction of vm::Cpu::Run alone, on the hog image with its
// default 200000 iterations, no kernel around it: the floor that the
// in-cluster cost per instruction is compared against.
double IsolatedNsPerInstr() {
  const vm::AsmOutput hog = vm::Assemble(core::CpuHogProgramSource());
  vm::VmContext ctx;
  vm::Cpu cpu(vm::IsaLevel::kIsa20);
  double run_ns = 0;
  int64_t steps = 0;
  while (steps < 10000000) {
    ctx.LoadImage(hog.image);
    const double t0 = HostMs();
    const vm::StopReason why = cpu.Run(ctx, int64_t{1} << 40);
    run_ns += (HostMs() - t0) * 1e6;
    steps += cpu.steps_executed();  // per Run call
    if (why != vm::StopReason::kSyscall) {
      std::fprintf(stderr, "hog image stopped without its exit syscall\n");
      std::exit(2);
    }
  }
  return run_ns / static_cast<double>(steps);
}

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  void Key(const std::string& k) {
    Sep();
    out_ += "\"" + sim::JsonEscape(k) + "\":";
    fresh_ = true;
  }
  void Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  void Num(double x) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    Raw(buf);
  }
  void Int(int64_t x) { Raw(std::to_string(x)); }
  void Str(const std::string& s) { Raw("\"" + sim::JsonEscape(s) + "\""); }
  template <typename T>
  void Field(const std::string& k, T x) {
    Key(k);
    if constexpr (std::is_floating_point_v<T>) {
      Num(x);
    } else {
      Int(static_cast<int64_t>(x));
    }
  }
  template <typename T>
  void List(const std::string& k, const std::vector<T>& xs) {
    Key(k);
    Open('[');
    for (const T& x : xs) {
      if constexpr (std::is_floating_point_v<T>) {
        Num(x);
      } else if constexpr (std::is_same_v<T, std::string>) {
        Str(x);
      } else {
        Int(x);
      }
    }
    Close(']');
  }
  template <typename T>
  void Map(const std::string& k, const std::map<std::string, T>& m) {
    Key(k);
    Open('{');
    for (const auto& [name, x] : m) Field(name, x);
    Close('}');
  }
  const std::string& str() const { return out_; }

 private:
  void Raw(const std::string& s) {
    Sep();
    out_ += s;
    fresh_ = false;
  }
  void Sep() {
    if (!fresh_ && !out_.empty() && out_.back() != ':') out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

void WriteVirtual(Json& j, const Virtual& v) {
  j.Key("virtual");
  j.Open('{');
  j.List("vmigrate_ns", v.vmigrate_ns);
  j.Field("vcpu_ns", v.vcpu_ns);
  j.Field("makespan_ns", v.makespan_ns);
  j.Field("migrations", v.migrations);
  j.Field("aborted_migrates", v.aborted_migrates);
  j.Field("ops_attempted", v.ops_attempted);
  j.Field("ops_failed", v.ops_failed);
  j.Field("syscalls", v.syscalls);
  j.Field("context_switches", v.context_switches);
  j.Field("procs_spawned", v.procs_spawned);
  j.Field("signals_posted", v.signals_posted);
  j.Close('}');
}

void WriteScenario(Json& j, const ScenarioResult& r) {
  j.Open('{');
  j.Field("setup_ms", r.setup_ms);
  j.Field("run_ms", r.run_ms);
  j.List("migrate_host_ms", r.migrate_host_ms);
  j.Map("span_ms", r.spans.ms());
  WriteVirtual(j, r.v);
  j.List("failures", r.failures);
  j.Close('}');
}

int Main(int argc, char** argv) {
  std::string workload_name;
  long long seed = -1;
  double seconds = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload_name = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::atof(argv[i + 1]);
    }
  }
  const std::map<std::string, Workload> workloads = {
      {"hog_spread", Workload::kHogSpread},
      {"migrate_churn", Workload::kMigrateChurn},
      {"cached_remigrate", Workload::kCachedRemigrate}};
  if (workloads.count(workload_name) == 0 || seed < 0 || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: pmig_perf --workload hog_spread|migrate_churn|cached_remigrate "
                 "--seed N --seconds S\n");
    return 2;
  }
  const Workload w = workloads.at(workload_name);
  // One CPU for the whole run: a native-task handoff is a condition-variable
  // ping-pong between threads, and on one CPU it costs a same-core switch
  // instead of a cross-core wakeup whose price depends on the machine's load.
  if (const int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  const Inputs in = Generate(w, static_cast<uint64_t>(seed));
  // The time budget is wall time; every measurement is CPU time.
  const auto start = std::chrono::steady_clock::now();

  // 1. Set-up samples (each untraced repetition below adds one more).
  std::vector<double> setup_ms;
  std::vector<double> boot_ms;
  std::vector<double> assemble_ms;
  const std::string program = WorkloadProgramSource(w);
  for (int i = 0; i < 7; ++i) {
    const double t0 = HostMs();
    {
      std::unique_ptr<Testbed> world = Scenario::Setup(w, false);
      setup_ms.push_back(HostMs() - t0);
    }
    boot_ms.push_back(TimeClusterBoot(w));
    assemble_ms.push_back(TimeAssemble(program));
  }

  // 2. Untraced repetitions, each after a calibration sample. Peak memory is
  // read after the first: later repetitions only reuse the allocator's pages,
  // and how many fit in the budget depends on the machine.
  std::vector<ScenarioResult> reps;
  std::vector<double> calibration_ms;
  int64_t peak_rss_kb = 0;
  size_t samples = 0;
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  while (reps.size() < 3 || samples < kMinMigrateSamples || elapsed_s() < seconds) {
    calibration_ms.push_back(CalibrationMs());
    reps.push_back(Scenario(in, false).Run());
    setup_ms.push_back(reps.back().setup_ms);
    samples += reps.back().migrate_host_ms.size();
    if (reps.size() == 1) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_kb = usage.ru_maxrss;
    }
    if (elapsed_s() > kMaxRunSeconds) break;
  }

  // 3. The traced repetition, then 4. the interpreter probe.
  const ScenarioResult traced = Scenario(in, true).Run();
  std::vector<double> isolated;
  for (int i = 0; i < 5; ++i) isolated.push_back(IsolatedNsPerInstr());

  Json j;
  j.Open('{');
  j.Key("workload");
  j.Str(workload_name);
  j.Field("seed", seed);
  j.Field("peak_rss_kb", peak_rss_kb);
  j.List("setup_ms", setup_ms);
  j.List("boot_ms", boot_ms);
  j.List("assemble_ms", assemble_ms);
  j.List("isolated_ns_per_instr", isolated);
  j.List("calibration_ms", calibration_ms);
  j.Key("reps");
  j.Open('[');
  for (const ScenarioResult& r : reps) WriteScenario(j, r);
  j.Close(']');
  j.Key("traced");
  WriteScenario(j, traced);
  // The traced-only reads ride alongside the traced scenario's common fields.
  j.Key("traced_detail");
  j.Open('{');
  j.Map("totals", traced.totals);
  j.Map("windowed", traced.windowed);
  j.Map("phase_ns", traced.phase_ns);
  j.Field("span_migrate_ns", traced.span_migrate_ns);
  j.Field("span_migrates", traced.span_migrates);
  j.List("dump_span_ns", traced.dump_span_ns);
  j.List("restart_span_ns", traced.restart_span_ns);
  j.Field("transfer_ns_p50", traced.transfer_ns_p50);
  j.Close('}');
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace pmig::perfbench

int main(int argc, char** argv) { return pmig::perfbench::Main(argc, argv); }
