// Phase-drift gate for the instrumented fig4 migration report.
//
// The `phase_summary` line of fig4_migrate's --report output partitions the
// end-to-end remote-to-remote migrate time into per-phase self times (setup,
// signal, dump, transfer, restart, other). Those shares are deterministic —
// virtual time — so any change is a real change to where migration spends its
// time. This checker recomputes the shares and fails when any phase drifts more
// than --tolerance (default 25%, relative) from the committed baseline, the
// regression gate ROADMAP.md asks for.
//
//   check_phases --fig4 <fig4_migrate binary> --baseline bench/phase_baseline.txt
//   check_phases --report <existing.jsonl>    --baseline bench/phase_baseline.txt
//
// With --fig4 the checker runs the bench itself, table to /dev/null, with its
// instrumented report going to a scratch file. On a legitimate cost-model
// change, regenerate the baseline from the shares this program prints.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace {

// A phase whose baseline share is (near) zero cannot be compared relatively;
// it just must stay near zero.
constexpr double kZeroFloor = 0.005;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline FILE (--fig4 BINARY | --report FILE) "
               "[--tolerance FRACTION]\n",
               argv0);
  return 2;
}

// Extracts the phase name/self-time pairs and total from the LAST
// phase_summary line in `path` (reports append; the newest run wins).
bool LoadPhaseShares(const std::string& path, std::map<std::string, double>* shares) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "check_phases: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line, summary;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"phase_summary\"") != std::string::npos) summary = line;
  }
  if (summary.empty()) {
    std::fprintf(stderr, "check_phases: no phase_summary line in %s\n", path.c_str());
    return false;
  }

  const size_t total_at = summary.find("\"total_ns\":");
  const size_t phases_at = summary.find("\"phases\":{");
  if (total_at == std::string::npos || phases_at == std::string::npos) return false;
  const double total = std::strtod(summary.c_str() + total_at + 11, nullptr);
  if (total <= 0) {
    std::fprintf(stderr, "check_phases: phase_summary has no migrate time\n");
    return false;
  }

  // The phases object is flat: "name":integer pairs until the closing brace.
  size_t pos = phases_at + 10;
  while (pos < summary.size() && summary[pos] != '}') {
    const size_t name_begin = summary.find('"', pos);
    if (name_begin == std::string::npos) break;
    const size_t name_end = summary.find('"', name_begin + 1);
    if (name_end == std::string::npos) break;
    const std::string name = summary.substr(name_begin + 1, name_end - name_begin - 1);
    const size_t colon = summary.find(':', name_end);
    if (colon == std::string::npos) break;
    char* end = nullptr;
    const double ns = std::strtod(summary.c_str() + colon + 1, &end);
    (*shares)[name] = ns / total;
    pos = static_cast<size_t>(end - summary.c_str());
    if (pos < summary.size() && summary[pos] == ',') ++pos;
  }
  return !shares->empty();
}

// Baseline: "<phase> <share>" per line, '#' comments.
bool LoadBaseline(const std::string& path, std::map<std::string, double>* baseline) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "check_phases: cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string phase;
    double share = 0;
    if (row >> phase >> share) (*baseline)[phase] = share;
  }
  return !baseline->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string fig4, report, baseline_path;
  double tolerance = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fig4" && i + 1 < argc) {
      fig4 = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else {
      return Usage(argv[0]);
    }
  }
  if (baseline_path.empty() || (fig4.empty() == report.empty())) return Usage(argv[0]);

  if (!fig4.empty()) {
    report = "check_phases_report.jsonl";
    std::remove(report.c_str());
    const std::string cmd = "\"" + fig4 + "\" --report=" + report + " > /dev/null";
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "check_phases: '%s' failed (%d)\n", cmd.c_str(), rc);
      return 1;
    }
  }

  std::map<std::string, double> shares, baseline;
  if (!LoadPhaseShares(report, &shares)) return 1;
  if (!LoadBaseline(baseline_path, &baseline)) return 1;

  int failures = 0;
  std::printf("%-12s %10s %10s   verdict\n", "phase", "baseline", "measured");
  for (const auto& [phase, base] : baseline) {
    const auto it = shares.find(phase);
    if (it == shares.end()) {
      std::printf("%-12s %10.4f %10s   MISSING from report\n", phase.c_str(), base, "-");
      ++failures;
      continue;
    }
    const double got = it->second;
    bool ok;
    if (base < kZeroFloor) {
      ok = got < kZeroFloor;  // was ~nothing; must stay ~nothing
    } else {
      ok = std::abs(got - base) / base <= tolerance;
    }
    std::printf("%-12s %10.4f %10.4f   %s\n", phase.c_str(), base, got,
                ok ? "ok" : "DRIFTED");
    if (!ok) ++failures;
  }
  for (const auto& [phase, got] : shares) {
    if (baseline.count(phase) == 0) {
      std::printf("%-12s %10s %10.4f   NEW phase (not in baseline)\n", phase.c_str(), "-",
                  got);
      ++failures;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr,
                 "check_phases: %d phase(s) drifted >%.0f%% from %s\n"
                 "(if the cost model legitimately changed, regenerate the baseline "
                 "from the measured column above)\n",
                 failures, tolerance * 100, baseline_path.c_str());
    return 1;
  }
  std::printf("check_phases: all phase shares within %.0f%% of baseline\n",
              tolerance * 100);
  return 0;
}
