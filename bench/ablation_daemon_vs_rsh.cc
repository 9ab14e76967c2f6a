// Ablation A: the Section 6.4 claim — replacing rsh with a resident migration
// daemon on a well-known port makes remote migration dramatically cheaper.
//
// "...it is always possible to write a better application which, by use of a UNIX
// daemon process and a well known port can achieve more satisfactory results."

#include "bench/bench_util.h"

namespace pmig::bench {
namespace {

struct Placement {
  std::string name;
  std::string from;
  std::string to;
};

const Placement kPlacements[] = {
    {"local -> remote (L->R)", "brick", "schooner"},
    {"remote -> local (R->L)", "schooner", "brick"},
    {"remote -> remote(R->R)", "schooner", "brador"},
};

Measurement MeasureMigrate(const Placement& placement, bool use_daemon) {
  TestbedOptions options;
  options.num_hosts = 3;
  options.file_server_home = true;
  options.daemons = true;  // daemons present in both runs; only the path differs
  Testbed world(options);
  InstallPaddedCounter(world);
  const int32_t pid = StartBlockedCounter(world, placement.from);

  std::vector<std::string> args = {"-p", std::to_string(pid), "-f", placement.from,
                                   "-t", placement.to};
  if (use_daemon) args.push_back("--daemon");
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int32_t mig = world.StartTool("brick", "migrate", args, kUserUid,
                                      world.console("brick"));
  world.RunUntilExited("brick", mig, sim::Seconds(600));
  return Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                     sim::ToMillis(world.cluster().clock().now() - t0)};
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  ParseBenchFlags(argc, argv);
  std::vector<Row> rows;
  for (const Placement& placement : kPlacements) {
    const Measurement rsh = MeasureMigrate(placement, false);
    const Measurement daemon = MeasureMigrate(placement, true);
    rows.push_back({"rsh    " + placement.name, rsh, ""});
    rows.push_back({"daemon " + placement.name, daemon, "Section 6.4: much faster"});
    std::printf("%-26s speedup from daemon: %.1fx\n", placement.name.c_str(),
                rsh.real_ms / daemon.real_ms);
  }
  PrintFigure("Ablation A: migrate via rsh vs via migration daemon (real time)", rows, 0);
  WriteBenchJson("ablation_daemon_vs_rsh", rows);
  return 0;
}
