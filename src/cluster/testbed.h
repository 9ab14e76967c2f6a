// Testbed: a booted cluster with the migration mechanism installed, the standard
// programs on every host, and a console terminal per host. The shared fixture for
// tests, benchmarks, and examples — and a convenient facade for library users.

#ifndef PMIG_SRC_CLUSTER_TESTBED_H_
#define PMIG_SRC_CLUSTER_TESTBED_H_

#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/setup.h"
#include "src/core/test_programs.h"
#include "src/kernel/kernel.h"

namespace pmig::testbed {

constexpr int32_t kUserUid = 100;

// The recording switches (metrics, spans, flight_recorder, decision_log) are
// inherited from sim::RecordingOptions.
struct TestbedOptions : sim::RecordingOptions {
  int num_hosts = 2;
  bool track_names = true;
  bool virtualize_identity = false;
  bool daemons = false;
  // Arm the virtual-time load sampler with this period (0 = off).
  sim::Nanos sample_period = 0;
  // Incremental data path: arm dirty-page tracking at exec so dumpproc
  // --incremental / migrate --cached can emit delta dumps.
  bool dirty_tracking = false;
  // The paper's site convention (Section 3 footnote): user home directories live
  // on a file server; /u/user on every machine is a symbolic link to
  // /n/<server>/u2/user. The *last* host acts as the server (with one host the
  // link loops back to the local disk). Off by default for unit-test simplicity;
  // the figure benchmarks turn it on.
  bool file_server_home = false;
  // Per-host ISA; hosts beyond the vector's size get kIsa20.
  std::vector<vm::IsaLevel> isa;
  // Cost-model override (experiments that slow the network, speed the disk, ...).
  sim::CostModel costs;
  // Deterministic fault injection (inert unless faults.enabled).
  sim::FaultConfig faults;
  // Health monitor (armed iff health.anomaly_detection or slos non-empty).
  sim::HealthOptions health;
  std::vector<sim::Slo> slos;
};

// Host names follow the paper's examples: brick, schooner, brador, classic.
inline std::vector<std::string> DefaultHostNames() {
  return {"brick", "schooner", "brador", "classic"};
}

// The name for host i: the paper's four machines, then host4, host5, ... —
// names must be unique (the network and /n mounts key on them), so clusters
// bigger than the paper's get synthetic names instead of colliding.
inline std::string DefaultHostName(int i) {
  const std::vector<std::string> names = DefaultHostNames();
  if (i >= 0 && static_cast<size_t>(i) < names.size()) {
    return names[static_cast<size_t>(i)];
  }
  return "host" + std::to_string(i);
}

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {}) {
    cluster::ClusterConfig config;
    for (int i = 0; i < options.num_hosts; ++i) {
      cluster::HostSpec spec;
      spec.name = DefaultHostName(i);
      if (static_cast<size_t>(i) < options.isa.size()) {
        spec.isa = options.isa[static_cast<size_t>(i)];
      }
      config.hosts.push_back(spec);
    }
    config.costs = options.costs;
    config.kernel.track_names = options.track_names;
    config.kernel.virtualize_identity = options.virtualize_identity;
    config.kernel.track_dirty_pages = options.dirty_tracking;
    config.start_migration_daemons = options.daemons;
    config.recording = options;
    config.sample_period = options.sample_period;
    config.faults = options.faults;
    config.health = options.health;
    config.slos = options.slos;
    cluster_ = std::make_unique<cluster::Cluster>(std::move(config));
    cluster::InstallMigration(*cluster_);
    for (const auto& host : cluster_->hosts()) {
      core::InstallStandardPrograms(*host);
      host->CreateTty("console");
      host->CreateTty("ttyp0");
      if (options.file_server_home) {
        const std::string server = cluster_->hosts().back()->hostname();
        host->vfs().SetupSymlink("/u/user", "/n/" + server + "/u2/user");
      } else {
        vfs::InodePtr home = host->vfs().SetupMkdirAll("/u/user");
        home->uid = kUserUid;  // the test user owns their home directory
      }
    }
    if (options.file_server_home) {
      vfs::InodePtr home = cluster_->hosts().back()->vfs().SetupMkdirAll("/u2/user");
      home->uid = kUserUid;
    }
  }

  cluster::Cluster& cluster() { return *cluster_; }
  kernel::Kernel& host(std::string_view name) { return cluster_->host(name); }
  kernel::Tty* console(std::string_view host_name) {
    return host(host_name).FindTty("console");
  }
  kernel::Tty* tty(std::string_view host_name, std::string_view tty_name) {
    return host(host_name).FindTty(tty_name);
  }

  // Starts a VM program as the test user, attached to the host's console.
  int32_t StartVm(std::string_view host_name, const std::string& path,
                  std::vector<std::string> args = {}, const std::string& cwd = "/u/user",
                  kernel::Tty* on_tty = nullptr) {
    kernel::Kernel& k = host(host_name);
    kernel::SpawnOptions opts;
    opts.creds = {kUserUid, 10, kUserUid, 10};
    opts.tty = on_tty != nullptr ? on_tty : console(host_name);
    opts.cwd = cwd;
    const Result<int32_t> pid = k.SpawnVm(path, std::move(args), opts);
    if (!pid.ok()) return -1;
    return *pid;
  }

  // Starts a registered native tool as the test user on a separate terminal.
  int32_t StartTool(std::string_view host_name, const std::string& program,
                    std::vector<std::string> args, int32_t uid = kUserUid,
                    kernel::Tty* on_tty = nullptr) {
    kernel::Kernel& k = host(host_name);
    kernel::SpawnOptions opts;
    opts.creds = {uid, 10, uid, 10};
    opts.tty = on_tty != nullptr ? on_tty : tty(host_name, "ttyp0");
    opts.cwd = "/";
    const Result<int32_t> pid = k.SpawnProgram(program, std::move(args), opts);
    if (!pid.ok()) return -1;
    return *pid;
  }

  // Runs until `pid` on `host_name` is blocked at its input prompt with no typed
  // input left to consume (so the process has genuinely quiesced — merely "still
  // blocked from before the last Type()" does not count).
  bool RunUntilBlocked(std::string_view host_name, int32_t pid,
                       sim::Nanos limit = sim::Seconds(120)) {
    kernel::Kernel& k = host(host_name);
    return cluster_->RunUntil(
        [&k, pid] {
          const kernel::Proc* p = k.FindProc(pid);
          if (p == nullptr || p->state != kernel::ProcState::kBlocked) return false;
          return p->controlling_tty == nullptr || !p->controlling_tty->InputReady();
        },
        limit);
  }

  // Runs until `pid` on `host_name` has terminated (zombie or reaped).
  bool RunUntilExited(std::string_view host_name, int32_t pid,
                      sim::Nanos limit = sim::Seconds(600)) {
    kernel::Kernel& k = host(host_name);
    return cluster_->RunUntil(
        [&k, pid] {
          const kernel::Proc* p = k.FindAnyProc(pid);
          return p == nullptr || !p->Alive();
        },
        limit);
  }

  // Exit info of a (possibly reaped) process.
  kernel::ExitInfo ExitInfoOf(std::string_view host_name, int32_t pid) {
    kernel::Proc* p = host(host_name).FindAnyProc(pid);
    return p != nullptr ? p->exit_info : kernel::ExitInfo{};
  }

  // The pid of the most recently started process matching `command` on a host.
  int32_t FindPidByCommand(std::string_view host_name, std::string_view needle) {
    int32_t found = -1;
    for (kernel::Proc* p : host(host_name).ListProcs()) {
      if (p->command.find(needle) != std::string::npos) found = p->pid;
    }
    return found;
  }

  // File contents on a host's local disk (no cost accounting).
  std::string FileContents(std::string_view host_name, const std::string& path) {
    kernel::Kernel& k = host(host_name);
    auto r = k.vfs().Resolve(k.vfs().RootState(), path, vfs::Follow::kAll, nullptr);
    if (!r.ok() || !r->inode->IsRegular()) return "<missing>";
    return std::string(r->inode->contents());
  }

  bool FileExists(std::string_view host_name, const std::string& path) {
    kernel::Kernel& k = host(host_name);
    auto r = k.vfs().Resolve(k.vfs().RootState(), path, vfs::Follow::kAll, nullptr);
    return r.ok();
  }

 private:
  std::unique_ptr<cluster::Cluster> cluster_;
};

}  // namespace pmig::testbed

#endif  // PMIG_SRC_CLUSTER_TESTBED_H_
