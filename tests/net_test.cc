// Network-model arithmetic and transport details not covered elsewhere.

#include "src/net/network.h"

#include <gtest/gtest.h>

#include "src/net/rsh.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using test::kUserUid;
using test::World;

TEST(Network, TransferTimeScalesWithBytes) {
  sim::CostModel costs;
  sim::ClusterContext context;
  net::Network net(&costs, context);
  EXPECT_GE(net.TransferTime(0), costs.nfs_rpc / 2);
  EXPECT_EQ(net.TransferTime(1000) - net.TransferTime(0), 1000 * costs.net_per_byte);
  EXPECT_LT(net.TransferTime(100), net.TransferTime(10000));
}

TEST(Network, FindHostByName) {
  World world;
  net::Network& net = world.cluster().network();
  ASSERT_NE(net.FindHost("brick"), nullptr);
  EXPECT_EQ(net.FindHost("brick")->hostname(), "brick");
  EXPECT_EQ(net.FindHost("atlantis"), nullptr);
  EXPECT_EQ(net.hosts().size(), 2u);
}

TEST(Network, SpawnServiceRegistry) {
  sim::CostModel costs;
  sim::ClusterContext context;
  net::Network net(&costs, context);
  net::SpawnService service;
  net.RegisterSpawnService("brick", &service);
  EXPECT_EQ(net.FindSpawnService("brick"), &service);
  EXPECT_EQ(net.FindSpawnService("schooner"), nullptr);
}

TEST(SpawnService, QueueFifo) {
  net::SpawnService service;
  EXPECT_FALSE(service.HasPending());
  EXPECT_EQ(service.Pop(), nullptr);
  auto a = std::make_shared<net::SpawnService::Request>();
  auto b = std::make_shared<net::SpawnService::Request>();
  service.Push(a);
  service.Push(b);
  EXPECT_TRUE(service.HasPending());
  EXPECT_EQ(service.Pop(), a);
  EXPECT_EQ(service.Pop(), b);
  EXPECT_FALSE(service.HasPending());
}

TEST(Rsh, LargeOutputPaysTransferTime) {
  // A remote command producing lots of output costs wire time proportional to it.
  World world;
  world.cluster().RegisterProgram(
      "chatty", [](kernel::SyscallApi& api, const std::vector<std::string>&) {
        const Result<int64_t> n = api.Write(1, std::string(50000, 'y'));
        return n.ok() ? 0 : 1;
      });
  world.cluster().RegisterProgram(
      "quiet", [](kernel::SyscallApi&, const std::vector<std::string>&) { return 0; });
  net::Network* net = &world.cluster().network();

  auto run = [&world, net](const std::string& program) {
    const sim::Nanos t0 = world.cluster().clock().now();
    kernel::SpawnOptions opts;
    opts.creds = {kUserUid, 10, kUserUid, 10};
    opts.tty = world.console("brick");
    const int32_t pid = world.host("brick").SpawnNative(
        "caller",
        [net, program](kernel::SyscallApi& api) {
          const Result<int> rc = net::Rsh(api, *net, "schooner", program, {});
          return rc.value_or(127);
        },
        opts);
    world.RunUntilExited("brick", pid, sim::Seconds(300));
    return world.cluster().clock().now() - t0;
  };
  const sim::Nanos quiet = run("quiet");
  const sim::Nanos chatty = run("chatty");
  EXPECT_GE(chatty - quiet, 50000 * world.cluster().costs().net_per_byte / 2);
  // And the output arrived on the caller's terminal.
  EXPECT_GE(world.console("brick")->PlainOutput().size(), 50000u);
}

TEST(Tty, CrModMapsCarriageReturnOnInput) {
  World world;
  kernel::Tty* tty = world.console("brick");
  tty->Type("line\r");  // a 1980s terminal sends CR
  EXPECT_TRUE(tty->InputReady());  // mapped to NL: the cooked line is complete
  EXPECT_EQ(tty->ConsumeInput(100), "line\n");
}

TEST(Tty, RawModeDisablesCrMapping) {
  World world;
  kernel::Tty* tty = world.console("brick");
  tty->set_flags(vm::abi::kTtyRaw);
  tty->Type("x\r");
  EXPECT_EQ(tty->ConsumeInput(100), "x\r");
}

TEST(Tty, OutputCrLfExpansionOnlyWhenCooked) {
  World world;
  kernel::Tty* tty = world.console("brick");
  tty->AppendOutput("a\n");
  EXPECT_EQ(tty->output(), "a\r\n");
  tty->ClearOutput();
  tty->set_flags(vm::abi::kTtyRaw);
  tty->AppendOutput("b\n");
  EXPECT_EQ(tty->output(), "b\n");
}

}  // namespace
}  // namespace pmig
