// ttbench command line. Usually started through ttbench/run.py, which
// builds this binary first:
//
//   ttbench --workload grid|campaign|state_faults [--seed N] [--seconds N]
//           [--iterations N] [--trace 0|1] [--out FILE] [--root DIR]
//           [--git-sha SHA] [--tree-sha256 HEX]
//
// Human-readable metric lines go to stdout, followed by one JSON summary as
// the last line; --out also writes the full "ttbench-result" file with
// provenance and the samples and quartiles behind every metric.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <thread>

#include "support/assert.hpp"
#include "support/strings.hpp"
#include "workloads.hpp"

namespace {

using ttbench::Args;

constexpr const char* kUsage =
    "usage: ttbench --workload grid|campaign|state_faults [--seed N] [--seconds N]\n"
    "               [--iterations N] [--trace 0|1] [--out FILE] [--root DIR]\n"
    "               [--git-sha SHA] [--tree-sha256 HEX]\n";

struct UsageError : ttsc::Error {
  using ttsc::Error::Error;
};

// Whole-string unsigned decimal in [lo, hi]: no sign, no spaces, no
// trailing text, no overflow.
std::uint64_t parse_uint(const std::string& flag, const std::string& text, std::uint64_t lo,
                         std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    throw UsageError(ttsc::format("%s expects a whole number in [%llu, %llu], got '%s'",
                                  flag.c_str(), static_cast<unsigned long long>(lo),
                                  static_cast<unsigned long long>(hi), text.c_str()));
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (flag != "--help") {
      if (i + 1 >= argc) throw UsageError(flag + " needs a value");
      value = argv[++i];
    }
    if (flag == "--help") {
      throw UsageError("");
    } else if (flag == "--workload") {
      if (value != "grid" && value != "campaign" && value != "state_faults") {
        throw UsageError("unknown workload '" + value + "'");
      }
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_uint(flag, value, 1, 3600));
    } else if (flag == "--iterations") {
      a.iterations = static_cast<int>(parse_uint(flag, value, 1, 1000000));
    } else if (flag == "--trace") {
      a.trace = parse_uint(flag, value, 0, 1) == 1;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--root") {
      a.root = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--tree-sha256") {
      a.tree_sha256 = value;
    } else {
      throw UsageError("unknown flag '" + flag + "'");
    }
  }
  if (a.workload.empty()) throw UsageError("--workload is required");
  return a;
}

ttbench::Provenance provenance(const Args& a) {
  ttbench::Provenance p;
  p.git_sha = a.git_sha;
  p.tree_sha256 = a.tree_sha256;
  p.compiler = TTBENCH_COMPILER;
  p.build_type = TTBENCH_BUILD_TYPE;
  p.build_flags = TTBENCH_CXX_FLAGS;
  p.nproc = std::thread::hardware_concurrency();
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) == 0) p.hostname = host;
  p.threads = ttbench::kThreads;
  return p;
}

void print_row(const ttbench::Row& row) {
  std::printf("ttbench %s seed=%llu trace=%d iterations=%d threads=%d\n", row.workload.c_str(),
              static_cast<unsigned long long>(row.seed), row.trace ? 1 : 0, row.iterations,
              ttbench::kThreads);
  for (const ttbench::Metric& m : row.metrics) {
    std::printf("  %-30s %14.6g %-10s n=%zu q1=%.6g q3=%.6g%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.spread.q1, m.spread.q3,
                m.detail.empty() ? "" : "  ", m.detail.c_str());
  }
  std::printf("  checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(row.attempted),
              static_cast<unsigned long long>(row.failed));
  for (const std::string& n : row.notes) std::printf("  note: %s\n", n.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const UsageError& e) {
    if (*e.what() != '\0') std::fprintf(stderr, "ttbench: %s\n", e.what());
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    ttbench::Row row = args.workload == "grid"       ? ttbench::run_grid(args)
                       : args.workload == "campaign" ? ttbench::run_campaign(args)
                                                     : ttbench::run_state_faults(args);
    for (const ttbench::Metric& m : row.metrics) {
      TTSC_ASSERT(ttbench::valid_metric_name(m.name), "bad metric name " + m.name);
    }
    print_row(row);
    if (!args.out.empty()) {
      ttbench::ResultFile file;
      file.provenance = provenance(args);
      file.rows.push_back(row);
      std::ofstream out(args.out);
      if (!out || !(out << ttbench::render_result(file) << '\n') || (out.close(), !out)) {
        throw ttsc::Error("cannot write " + args.out);
      }
      std::printf("  result file: %s\n", args.out.c_str());
    }
    std::printf("%s\n", ttbench::render_summary_line(row).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttbench: %s\n", e.what());
    return 1;
  }
}
