// Wiring: installs the migration mechanism into a cluster.
//
// After InstallMigration(cluster):
//   * every kernel delivers SIGDUMP by writing the three dump files (sigdump.h)
//     and implements rest_proc() (rest_proc.h);
//   * dumpproc / restart / migrate / undump are registered in the program registry
//     so shells, rsh, and the migration daemon can launch them by name, along
//     with the orphan reaper preap (apps/recovery.h).

#ifndef PMIG_SRC_CLUSTER_SETUP_H_
#define PMIG_SRC_CLUSTER_SETUP_H_

#include "src/cluster/cluster.h"

namespace pmig::cluster {

void InstallMigration(Cluster& cluster);

}  // namespace pmig::cluster

#endif  // PMIG_SRC_CLUSTER_SETUP_H_
