#include "src/core/shell.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>


namespace pmig::core {

namespace {

// One placement summary line: the survey/balancer counters an operator
// checks when asking "is placement cheap and making progress". Printed even
// when all-zero — absence would read as "not instrumented", which is wrong.
std::string PlacementCountersLine(const sim::MetricsRegistry& m) {
  return "  placement: survey_msgs=" + std::to_string(m.Counter("placement.survey_msgs")) +
         " balancer_rounds=" + std::to_string(m.Counter("balancer.rounds")) +
         " idle_rounds=" + std::to_string(m.Counter("balancer.idle_rounds")) + "\n";
}

void Say(kernel::SyscallApi& api, const std::string& text) {
  const Result<int64_t> n = api.Write(1, text);
  (void)n;
}

// pstat: the kernel's bookkeeping at a glance — KernelStats always, plus the
// metrics registry when the cluster was booted with metrics enabled.
void PstatBuiltin(kernel::SyscallApi& api) {
  kernel::Kernel& k = api.kernel();
  const kernel::KernelStats& st = k.stats();
  char head[192];
  std::snprintf(head, sizeof(head),
                "%s: syscalls=%lld ctxsw=%lld signals=%lld procs=%lld name_bytes=%lld/%lld\n",
                k.hostname().c_str(), static_cast<long long>(st.syscalls),
                static_cast<long long>(st.context_switches),
                static_cast<long long>(st.signals_posted),
                static_cast<long long>(st.procs_spawned),
                static_cast<long long>(st.name_bytes_current),
                static_cast<long long>(st.name_bytes_peak));
  std::string out = head;
  const sim::MetricsRegistry& m = k.metrics();
  if (!m.enabled()) {
    out += "(metrics disabled; boot the cluster with recording.metrics for counters)\n";
  } else {
    for (const auto& [name, value] : m.counters()) {
      out += "  counter " + name + " = " + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : m.gauges()) {
      out += "  gauge " + name + " = " + std::to_string(value) + "\n";
    }
    for (const auto& [name, hist] : m.histograms()) {
      out += "  histogram " + name + ": count=" + std::to_string(hist.count) +
             " p50_ns=" + std::to_string(hist.Percentile(50)) +
             " p95_ns=" + std::to_string(hist.Percentile(95)) +
             " p99_ns=" + std::to_string(hist.Percentile(99)) +
             " max_ns=" + std::to_string(hist.max) + "\n";
    }
    out += PlacementCountersLine(m);
  }
  Say(api, out);
}

// ptop: the processes burning this machine's CPU, busiest first, plus the
// migration latency records — the interactive view an admin deciding "should
// this process move, and where" actually wants.
void PtopBuiltin(kernel::SyscallApi& api) {
  kernel::Kernel& k = api.kernel();
  std::vector<kernel::Proc*> procs = k.ListProcs();
  auto cpu_of = [](const kernel::Proc* p) { return p->utime + p->stime; };
  std::sort(procs.begin(), procs.end(),
            [&cpu_of](const kernel::Proc* a, const kernel::Proc* b) {
              if (cpu_of(a) != cpu_of(b)) return cpu_of(a) > cpu_of(b);
              return a->pid < b->pid;
            });
  std::string out = k.hostname() + ": pid cpu_ms state command\n";
  for (const kernel::Proc* p : procs) {
    if (!p->Alive()) continue;
    const char* state = p->state == kernel::ProcState::kRunnable   ? "run"
                       : p->state == kernel::ProcState::kSleeping  ? "sleep"
                       : p->state == kernel::ProcState::kBlocked   ? "block"
                                                                   : "other";
    char line[160];
    std::snprintf(line, sizeof(line), "  %5d %8lld %-5s %s\n", p->pid,
                  static_cast<long long>((p->utime + p->stime) / 1000000), state,
                  p->command.c_str());
    out += line;
  }
  const sim::MetricsRegistry& m = k.metrics();
  if (m.enabled()) {
    for (const char* name : {"migration.dump_ns", "migration.restart_ns"}) {
      const sim::Histogram* hist = m.FindHistogram(name);
      if (hist == nullptr || hist->count == 0) continue;
      out += std::string("  ") + name + ": count=" + std::to_string(hist->count) +
             " p50_ns=" + std::to_string(hist->Percentile(50)) +
             " p95_ns=" + std::to_string(hist->Percentile(95)) +
             " p99_ns=" + std::to_string(hist->Percentile(99)) + "\n";
    }
    out += PlacementCountersLine(m);
  }
  Say(api, out);
}

// pwhy: why did placement pick (or refuse) what it did? Renders the matching
// decision record — per-factor candidate table, exclusions with reasons,
// runner-up and margin. `pwhy` / `pwhy last` shows the newest decision,
// `pwhy <pid>` the newest decision about that process, `pwhy <host>` the
// newest decision that involved that host (chosen, runner-up, source,
// candidate, or excluded — so a fault-demoted host's pwhy names the factor
// that demoted it).
void PwhyBuiltin(kernel::SyscallApi& api, const std::vector<std::string>& tokens) {
  const sim::DecisionLog& log = api.kernel().context().decision_log;
  if (!log.enabled()) {
    Say(api,
        "decision log disabled; boot the cluster with recording.decision_log for "
        "placement audits\n");
    return;
  }
  const std::string arg = tokens.size() > 1 ? tokens[1] : "last";
  const sim::DecisionRecord* r = nullptr;
  if (arg == "last") {
    r = log.Latest();
  } else if (!arg.empty() &&
             (std::isdigit(static_cast<unsigned char>(arg[0])) || arg[0] == '-')) {
    r = log.LatestForPid(std::atoi(arg.c_str()));
  } else {
    r = log.LatestForHost(arg);
  }
  if (r == nullptr) {
    Say(api, "pwhy: no decision recorded for '" + arg + "'\n");
    return;
  }
  Say(api, sim::DecisionLog::Render(*r));
}

// phealth: the cluster health monitor at a glance — SLO error budgets, firing
// alerts, and per-host anomaly state. The monitor is cluster-wide, so any
// host's shell sees the whole picture.
void PhealthBuiltin(kernel::SyscallApi& api) {
  const sim::HealthMonitor& monitor = api.kernel().context().health_monitor;
  if (!monitor.enabled()) {
    Say(api,
        "health monitor disabled; configure slos or health.anomaly_detection "
        "on the cluster\n");
    return;
  }
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return std::string(buf);
  };
  std::string out = api.GetHostname() + ": health monitor (active alerts=" +
                    std::to_string(monitor.ActiveAlerts()) + ")\n";
  for (const sim::HealthMonitor::BudgetStatus& b : monitor.Budgets()) {
    out += "  slo " + b.slo->name + " host=" + b.host + ": " + std::to_string(b.bad) +
           "/" + std::to_string(b.events) + " bad (budget " + fmt(b.allowed) +
           ") burn fast=" + fmt(b.burn_fast) + "x slow=" + fmt(b.burn_slow) + "x";
    if (b.firing_fast) out += " FIRING-FAST";
    if (b.firing_slow) out += " FIRING-SLOW";
    out += "\n";
  }
  for (const std::string& host : monitor.Hosts()) {
    out += "  host " + host + ": score=" + fmt(monitor.HealthScore(host));
    for (const std::string& metric : monitor.SeriesNames(host)) {
      if (!monitor.Anomalous(host, metric)) continue;
      out += " ANOMALY:" + metric + "(z=" + fmt(monitor.AnomalyZ(host, metric)) + ")";
    }
    out += "\n";
  }
  for (const sim::HealthAlert& a : monitor.alerts()) {
    out += std::string("  alert ") + (a.resolved ? "[resolved] " : "[firing]  ") +
           a.rule + " host=" + a.host + " " + a.detail + "\n";
  }
  Say(api, out);
}

// Reaps any finished background jobs; announces them like sh's "[n] Done".
void ReapBackground(kernel::SyscallApi& api, std::vector<int32_t>* jobs) {
  kernel::Kernel& k = api.kernel();
  for (auto it = jobs->begin(); it != jobs->end();) {
    kernel::Proc* p = k.FindAnyProc(*it);
    const bool finished = p == nullptr || !p->Alive() || p->overlaid;
    if (finished) {
      Say(api, "[done] " + std::to_string(*it) + "\n");
      if (p != nullptr && p->state == kernel::ProcState::kZombie) {
        // Reap via wait(); our wait returns the first ready child, which must be
        // this one or another finished job — either way it gets collected.
        const Result<kernel::WaitResult> wr = api.Wait();
        (void)wr;
      }
      it = jobs->erase(it);
    } else {
      ++it;
    }
  }
}

// Runs one command; returns its exit code (0 for built-ins that succeed).
int RunCommand(kernel::SyscallApi& api, const std::vector<std::string>& tokens,
               bool background, std::vector<int32_t>* jobs) {
  const std::string& cmd = tokens[0];
  std::vector<std::string> args(tokens.begin() + 1, tokens.end());

  // Resolve: registered program, absolute path, or /bin/<name>.
  Result<int32_t> pid = Errno::kNoEnt;
  const kernel::ProgramRegistry* registry = api.kernel().program_registry();
  if (registry != nullptr && registry->find(cmd) != registry->end()) {
    pid = api.SpawnProgram(cmd, args);
  } else {
    std::vector<std::string> argv = tokens;  // argv[0] = program name, as execve
    const std::string path = cmd.front() == '/' ? cmd : "/bin/" + cmd;
    pid = api.SpawnVm(path, argv);
  }
  if (!pid.ok()) {
    Say(api, cmd + ": not found\n");
    return 127;
  }
  if (background) {
    jobs->push_back(*pid);
    Say(api, "[" + std::to_string(*pid) + "]\n");
    return 0;
  }
  // Foreground: wait for *this* child (background jobs may finish meanwhile and
  // be returned first; keep collecting).
  for (;;) {
    const Result<kernel::WaitResult> wr = api.Wait();
    if (!wr.ok()) return 127;
    if (wr->pid == *pid) {
      if (!wr->overlaid) return wr->info.exit_code;
      // The child was overlaid by rest_proc() (e.g. a foreground `restart`): the
      // restored program now owns this terminal. A real shell keeps waiting for
      // its foreground job, so block until the process is truly gone — otherwise
      // the shell's prompt read would steal the program's keystrokes.
      kernel::Kernel& k = api.kernel();
      const int32_t fg = wr->pid;
      api.BlockUntil([&k, fg] {
        const kernel::Proc* p = k.FindAnyProc(fg);
        return p == nullptr || !p->Alive();
      });
      return 0;
    }
    // Some background job finished first; drop it from the table.
    for (auto it = jobs->begin(); it != jobs->end(); ++it) {
      if (*it == wr->pid) {
        jobs->erase(it);
        break;
      }
    }
  }
}

}  // namespace

std::vector<std::string> TokenizeCommandLine(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

int ShellMain(kernel::SyscallApi& api, const std::vector<std::string>& args) {
  (void)args;
  std::vector<int32_t> jobs;
  for (;;) {
    ReapBackground(api, &jobs);
    Say(api, "$ ");
    const Result<std::string> line = api.ReadLine(0);
    if (!line.ok() || line->empty()) {
      Say(api, "\n");
      return 0;  // EOF
    }
    std::vector<std::string> tokens = TokenizeCommandLine(*line);
    if (tokens.empty()) continue;

    bool background = false;
    if (tokens.back() == "&") {
      background = true;
      tokens.pop_back();
      if (tokens.empty()) continue;
    }

    const std::string& cmd = tokens[0];
    if (cmd == "exit") {
      return tokens.size() > 1 ? std::atoi(tokens[1].c_str()) : 0;
    }
    if (cmd == "cd") {
      const std::string target = tokens.size() > 1 ? tokens[1] : "/";
      if (!api.Chdir(target).ok()) Say(api, "cd: " + target + ": no such directory\n");
      continue;
    }
    if (cmd == "pwd") {
      const Result<std::string> cwd = api.GetCwd();
      Say(api, (cwd.ok() ? *cwd : std::string("?")) + "\n");
      continue;
    }
    if (cmd == "jobs") {
      for (const int32_t job : jobs) Say(api, std::to_string(job) + "\n");
      continue;
    }
    if (cmd == "pstat") {
      PstatBuiltin(api);
      continue;
    }
    if (cmd == "ptop") {
      PtopBuiltin(api);
      continue;
    }
    if (cmd == "phealth") {
      PhealthBuiltin(api);
      continue;
    }
    if (cmd == "pwhy") {
      PwhyBuiltin(api, tokens);
      continue;
    }
    if (cmd == "help") {
      Say(api,
          "built-ins: cd pwd jobs pstat ptop phealth pwhy exit help; commands run from "
          "the registry or /bin (migrate, preap, ps, ...)\n");
      continue;
    }
    RunCommand(api, tokens, background, &jobs);
  }
}

}  // namespace pmig::core
