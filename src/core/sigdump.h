// The kernel side of SIGDUMP: building the three dump files from a process.
//
// Installed into a Kernel as MigrationHooks::sigdump (see InstallMigration in
// src/cluster/setup.h). Kept out of the kernel proper so the substrate stays
// mechanism-free, mirroring how the paper adds this code to a stock kernel.

#ifndef PMIG_SRC_CORE_SIGDUMP_H_
#define PMIG_SRC_CORE_SIGDUMP_H_

#include "src/kernel/kernel.h"

namespace pmig::core {

// Builds the a.outXXXXX / filesXXXXX / stackXXXXX contents for `p` (a VM process)
// and prices the work. The kernel writes the files into /usr/tmp when the dump
// completes and then terminates the process.
Result<kernel::PreparedDump> BuildSigdump(kernel::Kernel& k, kernel::Proc& p);

}  // namespace pmig::core

#endif  // PMIG_SRC_CORE_SIGDUMP_H_
