#include "src/net/migration_daemon.h"

#include <utility>

namespace pmig::net {

int MigrationDaemonMain(kernel::SyscallApi& api, SpawnService* service) {
  for (;;) {
    api.BlockUntil([service] { return service->HasPending(); });
    SpawnService::RequestPtr req = service->Pop();
    if (req == nullptr || req->abandoned) continue;

    // The fork/setuid/exec dance a real root daemon performs for the requester.
    kernel::SpawnOptions opts;
    opts.creds = req->creds;
    opts.tty = nullptr;
    opts.cwd = "/";
    opts.ppid = api.GetPid();
    opts.trace_id = req->trace_id;
    opts.trace_parent_span = req->trace_parent_span;
    const Result<int32_t> pid = api.kernel().SpawnProgram(req->program, req->args, opts);
    if (!pid.ok()) {
      req->spawn_failed = true;
      req->done = true;
      continue;
    }
    const Result<kernel::WaitResult> wr = api.Wait();
    req->exit_code = wr.ok() ? (wr->overlaid ? 0 : wr->info.exit_code) : -1;
    req->done = true;
  }
}

Result<int> DaemonExec(kernel::SyscallApi& api, Network& net, std::string_view host,
                       const std::string& program, std::vector<std::string> args,
                       const RemoteExecOptions& opts) {
  SpawnService* service = net.FindSpawnService(host);
  if (service == nullptr) return Errno::kHostUnreach;
  kernel::Kernel* remote = net.FindHost(host);
  if (remote == nullptr || remote->down()) return Errno::kHostUnreach;

  kernel::Kernel& local = api.kernel();
  if (local.metrics().enabled()) {
    local.metrics().Inc("net.daemon_connections");
    local.metrics().Inc("net.messages." + local.hostname() + "->" + std::string(host));
  }

  {
    // TCP connect + request marshalling to the well-known port: cheap, unlike rsh.
    kernel::TraceSpan setup(local, api.proc(), "setup");
    api.Sleep(net.costs().daemon_request);
  }
  // The host may have crashed during connect, a partition may cut the link
  // (EHOSTUNREACH — the request never reaches the daemon, so there is no
  // split-brain risk on this path), or the request may be lost on the wire
  // (injected transient fault).
  if (remote->down()) return Errno::kHostUnreach;
  if (!net.Reachable(local.hostname(), remote->hostname(), &local.metrics())) {
    return Errno::kHostUnreach;
  }
  if (net.context().faults.NetSendFails(&local.metrics())) return Errno::kTimedOut;

  auto req = std::make_shared<SpawnService::Request>();
  req->program = program;
  req->args = std::move(args);
  req->creds = kernel::Credentials{api.GetUid(), 0, api.GetEuid(), 0};
  req->trace_id = api.proc().trace_id;
  req->trace_parent_span = api.proc().trace_parent_span;
  service->Push(req);

  // A host that powers off after accepting the request used to leave the
  // client blocked until the simulation's run limit; now the wait also ends on
  // host-down and on timeout, and the orphaned request is marked abandoned so
  // a recovered daemon won't run it for nobody. A partition cutting the reply
  // path is different: the daemon HAS the request and will run it, so the
  // request must not be abandoned — the caller times out while the remote
  // work stands (deliberate split brain; the claim protocol disambiguates).
  const std::string lhost = local.hostname();
  const std::string rhost = remote->hostname();
  const bool completed = api.BlockUntilFor(
      [req, remote, &net, lhost, rhost] {
        if (remote->down()) return true;
        return req->done && net.Reachable(rhost, lhost);
      },
      opts.timeout);
  if (!req->done) {
    req->abandoned = true;
    return remote->down() ? Errno::kHostUnreach : Errno::kTimedOut;
  }
  if (!completed) return Errno::kTimedOut;  // ran remotely; reply lost to the cut
  if (req->spawn_failed) return Errno::kNoEnt;
  return req->exit_code;
}

}  // namespace pmig::net
