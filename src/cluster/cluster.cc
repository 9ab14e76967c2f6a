#include "src/cluster/cluster.h"
#include <algorithm>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <utility>

#include "src/core/dump_format.h"
#include "src/sim/hash.h"

namespace pmig::cluster {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      ctx_(config_.recording, config_.faults, config_.health, config_.slos) {
  Boot();
}

Cluster::~Cluster() {
  for (auto& k : hosts_) k->UnwindNativeTasks();
}

void Cluster::Boot() {
  assert(!config_.hosts.empty());
  for (const HostSpec& spec : config_.hosts) {
    kernel::KernelConfig kcfg = config_.kernel;
    kcfg.isa = spec.isa;
    auto k = std::make_unique<kernel::Kernel>(spec.name, ctx_, &config_.costs, kcfg);
    k->set_pid_base(100 + 1000 * static_cast<int32_t>(hosts_.size()));
    k->set_program_registry(&programs_);
    network_.AddHost(k.get());
    hosts_.push_back(std::move(k));
  }

  // Cross-machine file access fails when the owning machine is down or a
  // partition separates us from it — both surface as EHOSTUNREACH, exactly
  // like a real NFS server that stops answering.
  std::map<const vfs::Filesystem*, kernel::Kernel*> owners;
  for (auto& k : hosts_) owners[&k->fs()] = k.get();
  for (auto& k : hosts_) {
    const std::string local = k->hostname();
    sim::MetricsRegistry* local_metrics = &k->metrics();
    const sim::FaultInjector* faults = &ctx_.faults;
    k->vfs().set_unreachable_check(
        [owners, local, local_metrics, faults](const vfs::Filesystem* fs) {
          auto it = owners.find(fs);
          if (it == owners.end()) return false;
          if (it->second->down()) return true;
          return faults->Partitioned(local, it->second->hostname(), local_metrics);
        });
  }

  // The /n/<host> convention: every machine's root appears on every machine
  // (including itself — /n/self is a loopback view of the local disk).
  for (auto& a : hosts_) {
    for (auto& b : hosts_) {
      vfs::InodePtr mount_point = a->vfs().SetupMkdirAll("/n/" + b->hostname());
      if (a.get() != b.get()) {
        a->vfs().AddMount(mount_point, b->fs().root());
      } else {
        a->vfs().AddMount(mount_point, a->fs().root());
      }
    }
  }

  // Scheduled crash/recovery faults become ordinary clock timers. They fire
  // between scheduler quanta, so a crash is atomic with respect to syscalls —
  // exactly like pulling the plug on real hardware between instructions.
  if (config_.faults.enabled) {
    for (const sim::HostCrash& crash : config_.faults.crashes) {
      kernel::Kernel* victim = network_.FindHost(crash.host);
      if (victim == nullptr) continue;
      ctx_.clock.CallAt(crash.at, [victim] { victim->set_down(true); });
      if (crash.recover_at >= 0) {
        ctx_.clock.CallAt(crash.recover_at, [victim] { victim->set_down(false); });
      }
    }
  }

  // Time-series sampler: snapshots are taken from Step() (see below) rather
  // than from a clock timer — a timer would add deadlines to the clock and
  // change how the run loops fast-forward through idle gaps, perturbing
  // virtual times. Piggybacking on Step() is provably timing-neutral.
  if (config_.sample_period > 0) next_sample_at_ = config_.sample_period;

  if (config_.start_migration_daemons) {
    for (auto& k : hosts_) {
      auto service = std::make_unique<net::SpawnService>();
      network_.RegisterSpawnService(k->hostname(), service.get());
      net::SpawnService* raw = service.get();
      spawn_services_.push_back(std::move(service));
      kernel::SpawnOptions opts;  // root, no tty — a daemon
      k->SpawnNative("migrationd",
                     [raw](kernel::SyscallApi& api) {
                       return net::MigrationDaemonMain(api, raw);
                     },
                     opts);
    }
  }
}

kernel::Kernel& Cluster::host(std::string_view name) {
  kernel::Kernel* k = network_.FindHost(name);
  if (k == nullptr) {
    std::fprintf(stderr, "no such host: %.*s\n", static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return *k;
}

void Cluster::SetHostDown(std::string_view name, bool down) {
  host(name).set_down(down);
}

int64_t Cluster::SegcacheBytes(kernel::Kernel& k) {
  auto r = k.vfs().Resolve(k.vfs().RootState(), core::kSegCacheDir, vfs::Follow::kAll, nullptr);
  if (!r.ok() || !r->inode->IsDir()) return 0;
  int64_t total = 0;
  for (const auto& [name, child] : r->inode->entries) {
    if (child != nullptr && child->IsRegular()) total += child->size();
  }
  return total;
}

void Cluster::TakeSample() {
  for (auto& k : hosts_) {
    net::LoadObservation s;
    s.at = ctx_.clock.now();
    s.host = k->hostname();
    s.down = k->down();
    if (!s.down) {
      for (kernel::Proc* p : k->ListProcs()) {
        if (p->kind != kernel::ProcKind::kVm) continue;
        if (p->state == kernel::ProcState::kRunnable) ++s.runnable;
        if (p->Alive()) ++s.alive_vm;
      }
      s.segcache_bytes = SegcacheBytes(*k);
    }
    s.fault_score = ctx_.fault_history.Score(k->hostname());
    if (ctx_.health_monitor.enabled() && !s.down) {
      ctx_.health_monitor.Observe(s.host, "load.runnable", s.runnable);
      ctx_.health_monitor.Observe(s.host, "segcache.bytes",
                              static_cast<double>(s.segcache_bytes));
      ctx_.health_monitor.Observe(s.host, "fault.score", s.fault_score);
    }
    // Fan the same reads out to load observers (cluster indexes): the sampler
    // already paid for this survey, so subscribers get freshness for free.
    network_.load_observers().Publish(s);
    samples_.push_back(std::move(s));
  }
  // Burn windows age out even when no new observation arrives; re-evaluate at
  // the sampler edge (still zero virtual time, zero RNG).
  ctx_.health_monitor.Tick();
}

bool Cluster::Step() {
  bool ran = false;
  for (auto& k : hosts_) {
    ran |= k->RunQuantum();
  }
  ctx_.clock.Advance(config_.costs.quantum);
  // Sampler: reads state only, never the clock's deadline queue, so an armed
  // sampler leaves every virtual time bit-identical. After a long idle
  // fast-forward the catch-up loop takes one sample, not a burst.
  if (next_sample_at_ > 0 && ctx_.clock.now() >= next_sample_at_) {
    TakeSample();
    do {
      next_sample_at_ += config_.sample_period;
    } while (next_sample_at_ <= ctx_.clock.now());
  }
  // A timer firing during the trailing Advance (a sleep expiring, a timeout
  // waking a blocked waiter) can make a process runnable after every kernel
  // already took its quantum. That is still work: reporting false here would
  // let the drivers below consult NextDeadline() — which may name a far-future
  // timeout timer — and fast-forward the clock right past the runnable process.
  // The sampler publish above can likewise satisfy a blocked waiter's
  // condition (an event-driven balancer armed on the observation stream), so
  // wake-check blocked processes here: otherwise the drivers would
  // fast-forward an already-released wait all the way to its heartbeat timer.
  if (!ran) {
    for (auto& k : hosts_) {
      k->WakeBlockedProcs();
    }
    for (auto& k : hosts_) {
      if (k->HasRunnableProc()) return true;
    }
  }
  return ran;
}

bool Cluster::AnyTimedWork() const {
  for (const auto& k : hosts_) {
    // Blocked processes whose condition has become true must count as work.
    const_cast<kernel::Kernel&>(*k).WakeBlockedProcs();
  }
  for (const auto& k : hosts_) {
    if (k->HasTimedWork()) return true;
  }
  return false;
}

void Cluster::RunFor(sim::Nanos duration) {
  const sim::Nanos end = ctx_.clock.now() + duration;
  while (ctx_.clock.now() < end) {
    if (!Step()) {
      const sim::Nanos next = ctx_.clock.NextDeadline();
      if (next < 0 || next >= end) {
        ctx_.clock.Advance(end - ctx_.clock.now());
        return;
      }
      if (next > ctx_.clock.now()) ctx_.clock.Advance(next - ctx_.clock.now());
    }
  }
}

bool Cluster::RunUntilIdle(sim::Nanos limit) {
  const sim::Nanos end = ctx_.clock.now() + limit;
  while (ctx_.clock.now() < end) {
    if (!AnyTimedWork()) return true;
    if (!Step()) {
      const sim::Nanos next = ctx_.clock.NextDeadline();
      if (next < 0) return !AnyTimedWork();
      if (next > ctx_.clock.now()) ctx_.clock.Advance(next - ctx_.clock.now());
    }
  }
  return !AnyTimedWork();
}

bool Cluster::RunUntil(const std::function<bool()>& cond, sim::Nanos limit) {
  const sim::Nanos end = ctx_.clock.now() + limit;
  while (ctx_.clock.now() < end) {
    if (cond()) return true;
    if (!Step()) {
      const sim::Nanos next = ctx_.clock.NextDeadline();
      if (next < 0 && !AnyTimedWork()) return cond();
      if (next > ctx_.clock.now()) {
        ctx_.clock.Advance(std::min(next, end) - ctx_.clock.now());
      }
    }
  }
  return cond();
}

sim::Nanos Cluster::TotalCpu() const {
  sim::Nanos total = 0;
  for (const auto& k : hosts_) total += k->TotalCpu();
  return total;
}

sim::MetricsRegistry Cluster::AggregateMetrics() const {
  sim::MetricsRegistry total;
  for (const auto& k : hosts_) total.MergeFrom(k->metrics());
  return total;
}

namespace {

void WriteMetricsLines(std::ostream& out, const std::string& host,
                       const sim::MetricsRegistry& m) {
  for (const auto& [name, value] : m.counters()) {
    out << "{\"type\":\"counter\",\"host\":\"" << sim::JsonEscape(host) << "\",\"name\":\""
        << sim::JsonEscape(name) << "\",\"value\":" << value << "}\n";
  }
  for (const auto& [name, value] : m.gauges()) {
    out << "{\"type\":\"gauge\",\"host\":\"" << sim::JsonEscape(host) << "\",\"name\":\""
        << sim::JsonEscape(name) << "\",\"value\":" << value << "}\n";
  }
  for (const auto& [name, hist] : m.histograms()) {
    out << "{\"type\":\"histogram\",\"host\":\"" << sim::JsonEscape(host) << "\",\"name\":\""
        << sim::JsonEscape(name) << "\",\"count\":" << hist.count << ",\"sum_ns\":" << hist.sum
        << ",\"min_ns\":" << hist.min << ",\"max_ns\":" << hist.max
        << ",\"p50_ns\":" << hist.Percentile(50) << ",\"p95_ns\":" << hist.Percentile(95)
        << ",\"p99_ns\":" << hist.Percentile(99) << "}\n";
  }
}

// Microseconds with nanosecond precision, the unit Chrome trace "ts" expects.
std::string TraceMicros(sim::Nanos ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

}  // namespace

void Cluster::WriteReport(std::ostream& out) const {
  out << "{\"type\":\"report\",\"virtual_now_ns\":" << ctx_.clock.now() << ",\"hosts\":[";
  for (size_t i = 0; i < hosts_.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << sim::JsonEscape(hosts_[i]->hostname()) << "\"";
  }
  out << "]}\n";

  // Run header: the fault seed, every armed observability flag, and a
  // fingerprint of the configuration that produced this run — so a report (or
  // a replay claiming to reproduce it) can be matched to the exact
  // configuration it came from. The fingerprint hashes a canonical rendering
  // of the fields that shape the timeline: host names/ISAs, the cost model's
  // pacing knobs, the sampler period, and the injection seed.
  std::string canon;
  for (const HostSpec& h : config_.hosts) {
    canon += h.name + ":" + std::to_string(static_cast<int>(h.isa)) + ";";
  }
  canon += "quantum=" + std::to_string(config_.costs.quantum) +
           ";instr=" + std::to_string(config_.costs.instruction) +
           ";rpc=" + std::to_string(config_.costs.nfs_rpc) +
           ";netb=" + std::to_string(config_.costs.net_per_byte) +
           ";sample=" + std::to_string(config_.sample_period) +
           ";seed=" + std::to_string(config_.faults.seed) +
           ";faults=" + (config_.faults.enabled ? "1" : "0") +
           ";daemons=" + (config_.start_migration_daemons ? "1" : "0");
  const uint64_t fp = sim::HashBytes(
      reinterpret_cast<const uint8_t*>(canon.data()), canon.size());
  char fp_hex[24];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                static_cast<unsigned long long>(fp));
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  out << "{\"type\":\"meta\",\"seed\":" << config_.faults.seed
      << ",\"hosts\":" << hosts_.size() << ",\"config_fingerprint\":\"" << fp_hex
      << "\",\"armed\":{\"metrics\":" << flag(config_.recording.metrics)
      << ",\"spans\":" << flag(config_.recording.spans)
      << ",\"flight_recorder\":" << flag(config_.recording.flight_recorder)
      << ",\"sampler\":" << flag(config_.sample_period > 0)
      << ",\"health\":" << flag(ctx_.health_monitor.enabled())
      << ",\"decision_log\":" << flag(ctx_.decision_log.enabled())
      << ",\"faults\":" << flag(config_.faults.enabled) << "}}\n";

  for (const auto& k : hosts_) {
    WriteMetricsLines(out, k->hostname(), k->metrics());
  }

  for (const sim::SpanRecord& s : ctx_.spans.spans()) {
    if (!s.closed()) continue;
    out << "{\"type\":\"span\",\"id\":" << s.id << ",\"phase\":\"" << sim::JsonEscape(s.phase)
        << "\",\"host\":\"" << sim::JsonEscape(s.host) << "\",\"pid\":" << s.pid
        << ",\"begin_ns\":" << s.begin << ",\"end_ns\":" << s.end
        << ",\"dur_ns\":" << s.duration() << ",\"trace_id\":" << s.trace_id
        << ",\"parent_id\":" << s.parent_id << "}\n";
  }

  // Phase summary: self time per phase. The "migrate" root's self time is the
  // part not attributed to any sub-phase, reported as "other"; by construction
  // the phase values sum exactly to total_ns (the sum of the closed roots).
  const std::map<std::string, sim::Nanos> self = ctx_.spans.PhaseSelfTimes();
  sim::Nanos total = 0;
  for (const sim::SpanRecord& s : ctx_.spans.spans()) {
    if (s.closed() && s.phase == "migrate") total += s.duration();
  }
  out << "{\"type\":\"phase_summary\",\"total_ns\":" << total << ",\"phases\":{";
  bool first = true;
  for (const auto& [phase, ns] : self) {
    if (!first) out << ",";
    first = false;
    out << "\"" << sim::JsonEscape(phase == "migrate" ? "other" : phase) << "\":" << ns;
  }
  out << "}}\n";

  // Per-trace summaries: each causal migration gets its end-to-end time, the
  // per-phase self times of its (possibly cross-host) span tree, and the
  // critical path — the chain of largest children from the root down.
  for (const uint64_t trace_id : ctx_.spans.TraceIds()) {
    const sim::SpanRecord* root = ctx_.spans.TraceRoot(trace_id);
    if (root == nullptr) continue;
    out << "{\"type\":\"trace_summary\",\"trace_id\":" << trace_id << ",\"root_phase\":\""
        << sim::JsonEscape(root->phase) << "\",\"root_host\":\"" << sim::JsonEscape(root->host)
        << "\",\"total_ns\":" << root->duration() << ",\"phases\":{";
    bool first_phase = true;
    for (const auto& [phase, ns] : ctx_.spans.TraceSelfTimes(trace_id)) {
      if (!first_phase) out << ",";
      first_phase = false;
      out << "\"" << sim::JsonEscape(phase) << "\":" << ns;
    }
    out << "},\"critical_path\":[";
    const sim::SpanRecord* node = root;
    bool first_hop = true;
    while (node != nullptr) {
      if (!first_hop) out << ",";
      first_hop = false;
      out << "{\"phase\":\"" << sim::JsonEscape(node->phase) << "\",\"host\":\""
          << sim::JsonEscape(node->host) << "\",\"dur_ns\":" << node->duration() << "}";
      const sim::SpanRecord* widest = nullptr;
      for (const sim::SpanRecord& s : ctx_.spans.spans()) {
        if (!s.closed() || s.trace_id != trace_id || s.parent_id != node->id) continue;
        if (widest == nullptr || s.duration() > widest->duration()) widest = &s;
      }
      node = widest;
    }
    out << "]}\n";
  }

  // Time-series samples (present only when the sampler was armed).
  for (const net::LoadObservation& s : samples_) {
    out << "{\"type\":\"sample\",\"t_ns\":" << s.at << ",\"host\":\"" << sim::JsonEscape(s.host)
        << "\",\"down\":" << (s.down ? "true" : "false") << ",\"runnable\":" << s.runnable
        << ",\"segcache_bytes\":" << s.segcache_bytes << ",\"fault_score\":" << s.fault_score
        << "}\n";
  }

  // One summary line per flight-recorder post-mortem (the full ring snapshots
  // live in FlightRecorder::postmortems()).
  for (const sim::FlightRecorder::Postmortem& pm : ctx_.flight_recorder.postmortems()) {
    out << "{\"type\":\"postmortem\",\"t_ns\":" << pm.at << ",\"host\":\""
        << sim::JsonEscape(pm.host) << "\",\"trace_id\":" << pm.trace_id << ",\"reason\":\""
        << sim::JsonEscape(pm.reason) << "\"}\n";
  }

  // Health-monitor alerts and SLO budget status (present only when armed).
  for (const sim::HealthAlert& a : ctx_.health_monitor.alerts()) {
    out << "{\"type\":\"alert\",\"t_ns\":" << a.at << ",\"rule\":\"" << sim::JsonEscape(a.rule)
        << "\",\"host\":\"" << sim::JsonEscape(a.host) << "\",\"value\":" << a.value
        << ",\"detail\":\"" << sim::JsonEscape(a.detail)
        << "\",\"resolved\":" << (a.resolved ? "true" : "false")
        << ",\"resolved_at_ns\":" << a.resolved_at << "}\n";
  }
  for (const sim::HealthMonitor::BudgetStatus& b : ctx_.health_monitor.Budgets()) {
    out << "{\"type\":\"slo\",\"name\":\"" << sim::JsonEscape(b.slo->name) << "\",\"host\":\""
        << sim::JsonEscape(b.host) << "\",\"events\":" << b.events << ",\"bad\":" << b.bad
        << ",\"allowed\":" << b.allowed << ",\"burn_fast\":" << b.burn_fast
        << ",\"burn_slow\":" << b.burn_slow
        << ",\"firing_fast\":" << (b.firing_fast ? "true" : "false")
        << ",\"firing_slow\":" << (b.firing_slow ? "true" : "false") << "}\n";
  }

  // Placement decision audit lines (present only when the log was armed).
  ctx_.decision_log.WriteJsonl(out);
}

bool Cluster::WriteReport(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  WriteReport(out);
  return out.good();
}

void Cluster::WriteChromeTrace(std::ostream& out) const {
  // Host name -> Chrome "process" id. One track per host; each simulated pid is
  // a "thread" on its host's track, so nested phase spans render as a flame.
  std::map<std::string, int> host_pid;
  for (size_t i = 0; i < hosts_.size(); ++i) {
    host_pid[hosts_[i]->hostname()] = static_cast<int>(i);
  }

  std::vector<std::string> events;
  for (const auto& [hostname, idx] : host_pid) {
    events.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(idx) +
                     ",\"tid\":0,\"args\":{\"name\":\"" + sim::JsonEscape(hostname) + "\"}}");
  }

  std::map<std::pair<int, int32_t>, std::vector<const sim::SpanRecord*>> threads;
  for (const sim::SpanRecord& s : ctx_.spans.spans()) {
    if (!s.closed()) continue;
    auto it = host_pid.find(s.host);
    if (it == host_pid.end()) continue;
    threads[{it->second, s.pid}].push_back(&s);
  }

  // B/E duration events per thread. Spans on one pid either nest or are
  // disjoint in virtual time, so sorting parents first (earlier begin, then
  // later end) and keeping a stack of open spans — closing every span that ends
  // at or before the next begin — yields a B/E stream where every End matches
  // the innermost open Begin.
  for (auto& [key, spans] : threads) {
    const int pid = key.first;
    const int32_t tid = key.second;
    std::sort(spans.begin(), spans.end(),
              [](const sim::SpanRecord* a, const sim::SpanRecord* b) {
                if (a->begin != b->begin) return a->begin < b->begin;
                if (a->end != b->end) return a->end > b->end;
                return a->id < b->id;
              });
    std::vector<const sim::SpanRecord*> open;
    auto emit_end = [&events, pid, tid](const sim::SpanRecord* s) {
      events.push_back("{\"ph\":\"E\",\"pid\":" + std::to_string(pid) +
                       ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + TraceMicros(s->end) + "}");
    };
    for (const sim::SpanRecord* s : spans) {
      while (!open.empty() && open.back()->end <= s->begin) {
        emit_end(open.back());
        open.pop_back();
      }
      events.push_back("{\"name\":\"" + sim::JsonEscape(s->phase) + "\",\"ph\":\"B\",\"pid\":" +
                       std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                       ",\"ts\":" + TraceMicros(s->begin) +
                       ",\"args\":{\"span_id\":" + std::to_string(s->id) +
                       ",\"trace_id\":" + std::to_string(s->trace_id) +
                       ",\"parent_id\":" + std::to_string(s->parent_id) + "}}");
      open.push_back(s);
    }
    while (!open.empty()) {
      emit_end(open.back());
      open.pop_back();
    }
  }

  // Flow arrows: a span whose parent closed on a *different* host is the far
  // side of a cross-machine hop (rsh command, daemon spawn, remote restart) —
  // draw source -> target so Perfetto connects the two tracks.
  for (const sim::SpanRecord& s : ctx_.spans.spans()) {
    if (!s.closed() || s.parent_id == 0) continue;
    const sim::SpanRecord* parent = ctx_.spans.Find(s.parent_id);
    if (parent == nullptr || !parent->closed() || parent->host == s.host) continue;
    auto pit = host_pid.find(parent->host);
    auto cit = host_pid.find(s.host);
    if (pit == host_pid.end() || cit == host_pid.end()) continue;
    const std::string id = std::to_string(s.id);
    const std::string ts = TraceMicros(s.begin);
    events.push_back("{\"name\":\"migrate\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" + id +
                     ",\"pid\":" + std::to_string(pit->second) +
                     ",\"tid\":" + std::to_string(parent->pid) + ",\"ts\":" + ts + "}");
    events.push_back("{\"name\":\"migrate\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" +
                     id + ",\"pid\":" + std::to_string(cit->second) +
                     ",\"tid\":" + std::to_string(s.pid) + ",\"ts\":" + ts + "}");
  }

  // One event per line (tests and grep-ability); valid JSON either way.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    out << events[i] << (i + 1 == events.size() ? "\n" : ",\n");
  }
  out << "]}\n";
}

bool Cluster::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  WriteChromeTrace(out);
  return out.good();
}

}  // namespace pmig::cluster
