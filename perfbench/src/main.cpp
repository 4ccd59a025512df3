// perfbench — runs one workload of the PNB-BST stack benchmark and prints
// one JSON object: metrics, details, and the correctness checks. Exits 1
// when a check fails and 2 on a usage error.
//
//   perfbench --workload point_large|scan_mixed|served_small --seed N
//             --seconds S [--trace 0|1] [--trace-out FILE]
//             [--census-bias N]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics and the layer ladder.
// --census-bias shifts the expected census, so a test can prove that a
// wrong census fails the run.
#include <sys/personality.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S [--trace 0|1] [--trace-out FILE] "
               "[--census-bias N]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Runs with address-space randomization off, re-executing itself once to
  // get there. Where thread stacks land decides each thread's arena shard
  // (mem/arena.h hashes the thread id), and with it how freed slots are
  // reused: with randomization on, served_small's peak RSS read 21.6 or
  // 24.2 MB from run to run. If the switch is refused, it runs as it is.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1) {
    execv("/proc/self/exe", argv);
  }
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) {
        return usage("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else if (flag == "--census-bias") {
      o.census_bias = std::strtoll(v, &end, 10);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(o.workload);
  if (w == nullptr) return usage("unknown --workload");
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }

  perfbench::pin_to_slot(0);
  perfbench::Report rep;
  rep.detail("workload", perfbench::json_str(w->name));
  rep.detail("seed", std::to_string(o.seed));
  rep.detail("seconds", perfbench::json_num(o.seconds));
  if (w->served) {
    perfbench::run_served(*w, o, rep);
  } else {
    perfbench::run_inproc(*w, o, rep);
  }
  if (o.trace) perfbench::run_ladder(*w, o, rep);
  rep.detail("calibration", perfbench::calibration_json());
  std::printf("%s\n", rep.json().c_str());
  return rep.correct() ? 0 : 1;
}
