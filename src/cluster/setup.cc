#include "src/cluster/setup.h"

#include "src/apps/recovery.h"
#include "src/core/dump_format.h"
#include "src/core/rest_proc.h"
#include "src/core/shell.h"
#include "src/core/sigdump.h"
#include "src/core/tools.h"

namespace pmig::cluster {

void InstallMigration(Cluster& cluster) {
  kernel::MigrationHooks hooks;
  hooks.sigdump = core::BuildSigdump;
  hooks.rest_proc = core::RestProcImpl;
  hooks.verify_dump = core::VerifyDumpBytes;
  for (const auto& host : cluster.hosts()) {
    host->set_migration_hooks(hooks);
    // The content-addressed segment cache lives on every host, like /usr/tmp;
    // it stays empty unless incremental dumps are used.
    host->vfs().SetupMkdirAll(core::kSegCacheDir)->mode = 0777;
    // Placement leases live next to it; empty unless coordinators lease.
    host->vfs().SetupMkdirAll(apps::kLeaseDir)->mode = 0777;
  }

  cluster.RegisterProgram("dumpproc", core::DumpprocMain);
  cluster.RegisterProgram("restart", core::RestartMain);
  cluster.RegisterProgram("undump", core::UndumpMain);
  cluster.RegisterProgram("ps", core::PsMain);
  cluster.RegisterProgram("sh", core::ShellMain);
  net::Network* network = &cluster.network();
  cluster.RegisterProgram("migrate",
                          [network](kernel::SyscallApi& api,
                                    const std::vector<std::string>& args) {
                            return core::MigrateMain(api, *network, args);
                          });
  cluster.RegisterProgram("preap",
                          [network](kernel::SyscallApi& api,
                                    const std::vector<std::string>& args) {
                            return apps::PreapMain(api, *network, args);
                          });
}

}  // namespace pmig::cluster
