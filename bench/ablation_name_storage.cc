// Ablation B: dynamic vs fixed-size storage for the Section 5.1 file-name strings.
//
// "Dynamically allocated strings were used instead of fixed length strings,
// because file structures are not swappable and there is more than one process
// being executed at any time... If we had used fixed size strings, they would
// have had to be large enough to accommodate large path names ... wasting large
// amounts of kernel memory."
//
// We sweep path-name length and open-file count and report peak kernel memory
// held by name strings under each policy, plus the CPU overhead difference.
// BENCH_ablation_name_storage.json has one row per policy and sweep point: the
// system CPU per creat() as vcpu_ms, and the peak name-string bytes (kernel
// memory, not traffic) in the bytes_moved field.

#include "bench/bench_util.h"

namespace pmig::bench {
namespace {

struct NameStorageResult {
  int64_t peak_bytes = 0;
  double cpu_us_per_open = 0;
};

NameStorageResult Measure(kernel::KernelConfig::NameStorage storage, int open_files,
                          int path_depth) {
  TestbedOptions options;
  options.num_hosts = 1;
  Testbed world(options);
  kernel::Kernel& k = world.host("brick");
  k.stats().name_bytes_peak = 0;

  k.mutable_config().name_storage = storage;

  // Deep directory + the target files.
  std::string dir;
  for (int i = 0; i < path_depth; ++i) dir += "/component" + std::to_string(i);
  k.vfs().SetupMkdirAll(dir.empty() ? "/" : dir);

  auto cpu_per_open = std::make_shared<double>(0);
  kernel::SpawnOptions opts;  // root, so any directory is writable
  const int32_t pid = k.SpawnNative(
      "opener",
      [dir, open_files, cpu_per_open](kernel::SyscallApi& api) {
        const sim::Nanos s0 = api.proc().stime;
        for (int i = 0; i < open_files; ++i) {
          const Result<int> fd =
              api.Creat((dir.empty() ? "" : dir) + "/file" + std::to_string(i), 0644);
          if (!fd.ok()) return 1;
        }
        *cpu_per_open =
            static_cast<double>(api.proc().stime - s0) / (open_files * sim::kMicrosecond);
        api.Sleep(sim::Seconds(5));  // hold the files open so peak memory is visible
        return 0;
      },
      opts);
  world.cluster().RunFor(sim::Seconds(2));
  NameStorageResult result;
  result.peak_bytes = k.stats().name_bytes_peak;
  result.cpu_us_per_open = *cpu_per_open;
  world.RunUntilExited("brick", pid);
  return result;
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  ParseBenchFlags(argc, argv);
  using Storage = pmig::kernel::KernelConfig::NameStorage;

  std::printf("\n=== Ablation B: name-string storage (Section 5.1 design choice) ===\n");
  std::printf("%8s %8s | %14s %14s | %10s\n", "files", "depth", "dynamic peak B",
              "fixed peak B", "waste");
  const auto row = [](const std::string& name, const NameStorageResult& r) {
    return Row{name, Measurement{r.cpu_us_per_open / 1000.0, 0, r.peak_bytes}, ""};
  };
  std::vector<Row> rows;
  for (const int files : {4, 8, 16}) {
    for (const int depth : {1, 4, 10}) {
      const NameStorageResult dynamic = Measure(Storage::kDynamic, files, depth);
      const NameStorageResult fixed = Measure(Storage::kFixed, files, depth);
      const std::string point =
          "/files=" + std::to_string(files) + "/depth=" + std::to_string(depth);
      rows.push_back(row("dynamic" + point, dynamic));
      rows.push_back(row("fixed" + point, fixed));
      std::printf("%8d %8d | %14lld %14lld | %9.1fx\n", files, depth,
                  static_cast<long long>(dynamic.peak_bytes),
                  static_cast<long long>(fixed.peak_bytes),
                  dynamic.peak_bytes > 0
                      ? static_cast<double>(fixed.peak_bytes) / dynamic.peak_bytes
                      : 0.0);
    }
  }
  std::printf("\n(paper: fixed-size strings 'would have led to wasting large amounts of\n"
              " kernel memory' — short names dominate, so the fixed slots mostly hold air)\n");
  WriteBenchJson("ablation_name_storage", rows);
  return 0;
}
