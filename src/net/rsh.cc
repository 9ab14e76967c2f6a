#include "src/net/rsh.h"

#include <memory>
#include <utility>

namespace pmig::net {

Result<int> Rsh(kernel::SyscallApi& api, Network& net, std::string_view host,
                const std::string& program, std::vector<std::string> args,
                const RemoteExecOptions& opts) {
  kernel::Kernel* remote = net.FindHost(host);
  if (remote == nullptr || remote->down()) return Errno::kHostUnreach;

  kernel::Kernel& local = api.kernel();
  sim::MetricsRegistry& metrics = local.metrics();
  if (metrics.enabled()) {
    metrics.Inc("net.rsh_connections");
    metrics.Inc("net.messages." + local.hostname() + "->" + remote->hostname());
  }

  {
    // Connection establishment: privileged port, reverse lookup, hosts.equiv, rshd
    // fork. Pure real time — the caller's CPU is idle.
    kernel::TraceSpan setup(local, api.proc(), "setup");
    api.Sleep(net.costs().rsh_setup);
  }
  // The host may have crashed while we were connecting, a partition may cut
  // the link (connect timeout, surfaced as EHOSTUNREACH like a dead host), or
  // the request may be lost on the wire (injected transient fault —
  // indistinguishable from a dropped packet, so it reports as a timeout).
  if (remote->down()) return Errno::kHostUnreach;
  if (!net.Reachable(local.hostname(), remote->hostname(), &metrics)) {
    return Errno::kHostUnreach;
  }
  if (net.context().faults.NetSendFails(&metrics)) return Errno::kTimedOut;

  // The remote command gets a network pipe for stdio, not a terminal.
  auto stdin_ch = std::make_shared<kernel::Channel>();
  stdin_ch->write_open = false;  // immediate EOF, like `rsh host cmd < /dev/null`
  auto stdout_ch = std::make_shared<kernel::Channel>();

  kernel::SpawnOptions spawn_opts;
  spawn_opts.creds = kernel::Credentials{api.GetUid(), 0, api.GetEuid(), 0};
  spawn_opts.tty = nullptr;
  spawn_opts.ppid = 0;  // child of the (unmodelled) remote rshd
  // The remote command runs in the caller's distributed-trace context: its
  // spans become children of whatever span the caller is inside right now.
  spawn_opts.trace_id = api.proc().trace_id;
  spawn_opts.trace_parent_span = api.proc().trace_parent_span;
  const Result<int32_t> pid_or = remote->SpawnProgram(program, std::move(args), spawn_opts);
  if (!pid_or.ok()) return pid_or.error();
  const int32_t rpid = *pid_or;

  kernel::Proc* rproc = remote->FindProc(rpid);
  if (rproc != nullptr) {
    remote->InstallFd(*rproc, 0,
                      kernel::Kernel::MakeChannelFile(stdin_ch, /*write_end=*/false,
                                                      kernel::FileKind::kSocket));
    kernel::OpenFilePtr out = kernel::Kernel::MakeChannelFile(
        stdout_ch, /*write_end=*/true, kernel::FileKind::kSocket);
    remote->InstallFd(*rproc, 1, out);
    remote->InstallFd(*rproc, 2, out);
  }

  // Wait for remote completion (exit, or overlay by rest_proc()). The host
  // dying mid-command also ends the wait; so does the timeout — a remote
  // machine wedged forever must not wedge the caller with it. A partition
  // cutting the reply path keeps us waiting even after the remote command
  // finishes: the work stands on the far side, but until the link heals (or
  // the timeout fires, whichever first) no status can come home.
  const std::string lhost = local.hostname();
  const std::string rhost = remote->hostname();
  const bool completed = api.BlockUntilFor(
      [remote, rpid, &net, lhost, rhost] {
        if (remote->down()) return true;
        kernel::Proc* p = remote->FindAnyProc(rpid);
        const bool finished = p == nullptr || !p->Alive() || p->overlaid;
        return finished && net.Reachable(rhost, lhost);
      },
      opts.timeout);
  if (remote->down()) return Errno::kHostUnreach;
  if (!completed) return Errno::kTimedOut;

  int exit_code = 0;
  bool overlaid = false;
  if (kernel::Proc* p = remote->FindAnyProc(rpid); p != nullptr) {
    overlaid = p->overlaid || (p->Alive() && p->kind == kernel::ProcKind::kVm);
    if (!p->Alive()) exit_code = p->exit_info.exit_code;
    if (p->overlaid) {
      p->overlaid = false;
      p->ppid = 0;  // detaches from the rsh session; keeps running remotely
    }
  }
  (void)overlaid;

  // Carry the remote output home and deliver it to the caller's stdout.
  const std::string output = std::move(stdout_ch->buffer);
  stdout_ch->buffer.clear();
  if (!output.empty()) {
    const sim::Nanos wire = net.TransferTime(static_cast<int64_t>(output.size()));
    if (metrics.enabled()) {
      metrics.Inc("net.bytes." + remote->hostname() + "->" + local.hostname(),
                  static_cast<int64_t>(output.size()));
      metrics.Inc("net.messages." + remote->hostname() + "->" + local.hostname());
      metrics.Observe("net.transfer_ns", wire);
    }
    kernel::TraceSpan transfer(local, api.proc(), "transfer");
    api.Sleep(wire);
    const Result<int64_t> written = api.Write(1, output);
    (void)written;  // a closed stdout is the caller's problem, as with real rsh
  }
  return exit_code;
}

}  // namespace pmig::net
