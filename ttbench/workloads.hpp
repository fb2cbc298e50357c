// The three ttbench workloads and what they share: the command line, the
// closed measurement loop, and one prepared (compiled + golden-run) fault
// campaign cell per model.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "ir/memory.hpp"
#include "ir/module.hpp"
#include "mach/machine.hpp"
#include "scalar/scalar.hpp"
#include "sim/lockstep.hpp"
#include "sim/predecode.hpp"
#include "tta/tta.hpp"
#include "ttbench.hpp"
#include "vliw/vliw.hpp"
#include "workloads/workload.hpp"

namespace ttbench {

// The benchmark names the library's modules as the library does.
using namespace ttsc;

/// Worker threads of every workload: the pool width the sizing runs were
/// made at (a 4-core host). Fixed so results from different hosts compare
/// the same work.
inline constexpr int kThreads = 4;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;
/// The CI campaign seed, used when --seed is absent.
inline constexpr std::uint64_t kDefaultSeed = 7715;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 10;
  /// > 0: run exactly this many iterations instead of a time budget.
  int iterations = 0;
  bool trace = false;
  std::string out;          // result file
  std::string root = ".";   // repository checkout (for tests/golden)
  std::string git_sha = "unknown";
  std::string tree_sha256 = "unknown";
};

/// Starts a fresh peak-memory window: returns the heap's free pages to the
/// system (malloc_trim) and resets the peak resident set to the current one.
void reset_peak_rss();
/// Peak resident set of this process since the last reset_peak_rss(), MiB.
double peak_rss_mib();

/// Closed-loop samples of one run. An iteration is one pass over the
/// workload's inputs; its ops may differ in size (a campaign's cells do).
struct Loop {
  std::vector<double> op_seconds;
  /// Median op time of each finished iteration.
  std::vector<double> iteration_p50;
  /// Denominator of items_per_s: summed op wall time, or summed iteration
  /// wall time where ops overlap (state_faults).
  double busy_seconds = 0.0;
  std::uint64_t items = 0;
  int iterations = 0;
  /// Peak resident set of each iteration, MiB.
  std::vector<double> iteration_rss;

  void end_iteration();

 private:
  std::size_t first_op_ = 0;  // of the running iteration
};

/// Runs `iteration(index)` until the time budget is spent (whole
/// iterations, at least one) or exactly args.iterations times, recording
/// each iteration's peak resident set in `loop`. Each iteration starts
/// from a trimmed heap, so one iteration's transient peak (a campaign fault
/// sample whose lockstep batches evict many lanes) is not carried into the
/// next as retained free memory.
template <typename F>
void run_loop(const Args& args, Loop& loop, F&& iteration) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    if (args.iterations > 0) {
      if (i >= args.iterations) break;
    } else if (i > 0 && std::chrono::steady_clock::now() - start >=
                            std::chrono::seconds(args.seconds)) {
      break;
    }
    reset_peak_rss();
    iteration(i);
    loop.iteration_rss.push_back(peak_rss_mib());
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0);

/// Runs `make_setup()` kSetupRepeats times, appending each one's wall time
/// to `seconds`, and returns the last set-up.
template <typename F>
auto timed_setups(std::vector<double>& seconds, F&& make_setup) {
  decltype(make_setup()) setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    setup = make_setup();
    seconds.push_back(seconds_since(t0));
  }
  return setup;
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order;
/// `tail_percentile` is the workload's top rung for op_s_tail.
void add_end_to_end(Row& row, const std::vector<double>& setup_seconds, const Loop& loop,
                    double tail_percentile, std::uint64_t target_cycles,
                    std::uint64_t image_bits);

/// Per-layer values a workload measured outside the span tree: exact
/// counts per iteration and derived ratios, keyed by metric name.
using Extras = std::map<std::string, double>;

/// Every per-layer metric of BENCHMARK.json from a traced run: span self
/// times per op (per set-up for layers that only run in set-up), simulated
/// megacycles per second inside simulator spans, and the given extras.
/// Layers the workload never enters read 0.
void add_per_layer(Row& row, const TraceSummary& trace, int setups, const Extras& extras);

/// The per-layer metric names, in BENCHMARK.json order.
const std::vector<std::string>& per_layer_names();

// ------------------------------------------------------------ prepared cells

template <typename Program>
struct Engine;

template <>
struct Engine<scalar::ScalarProgram> {
  using Sim = scalar::ScalarSim;
  using Pre = sim::PredecodedScalar;
  using Result = scalar::ExecResult;
  static constexpr const char* kName = "scalar";
};
template <>
struct Engine<vliw::VliwProgram> {
  using Sim = vliw::VliwSim;
  using Pre = sim::PredecodedVliw;
  using Result = vliw::ExecResult;
  static constexpr const char* kName = "vliw";
};
template <>
struct Engine<tta::TtaProgram> {
  using Sim = tta::TtaSim;
  using Pre = sim::PredecodedTta;
  using Result = tta::ExecResult;
  static constexpr const char* kName = "tta";
};

/// One fault-campaign cell, prepared the way resil::run_campaign prepares
/// it: the scheduled program, its predecoded form, the pristine memory
/// image and the fault-free (golden) run.
template <typename Program>
struct Cell {
  using E = Engine<Program>;
  mach::Machine machine;
  const workloads::Workload* workload = nullptr;
  ir::Module module;
  Program program;
  std::shared_ptr<const typename E::Pre> pre;
  ir::Memory initial_mem{0};
  ir::Memory golden_mem{0};
  typename E::Result golden;
  std::uint64_t golden_checksum = 0;
  std::uint64_t imem_bits = 0;
};
using AnyCell = std::variant<Cell<scalar::ScalarProgram>, Cell<vliw::VliwProgram>,
                             Cell<tta::TtaProgram>>;

const workloads::Workload& workload_by_name(const std::string& name);

/// Compile and golden-run one cell through the public pipeline calls, under
/// a "resil.prepare" span. Throws ttsc::Error if the golden run fails.
AnyCell prepare_cell(Tracer* tracer, const std::string& machine, const workloads::Workload& w);

/// Hardened lockstep batch over `faults` (the lockstep engine of the cell's
/// model) under a "sim.lockstep.<model>" span.
template <typename Program>
sim::BatchResult<typename Engine<Program>::Result> run_batch(
    Tracer* tracer, const Cell<Program>& cell, std::span<const sim::FaultSet> faults);

/// Output checksum of a lane: over its own image when evicted, otherwise
/// over the leader image through its sparse delta.
template <typename Program>
std::uint64_t lane_checksum(const Cell<Program>& cell,
                            const sim::BatchResult<typename Engine<Program>::Result>& br,
                            std::size_t lane);

/// Reference-interpreter golden outcome of a kernel (report::run_golden's
/// computation, done here so a set-up can repeat it), under "ir.interp".
struct InterpGolden {
  std::uint32_t ret = 0;
  std::uint64_t checksum = 0;
};
InterpGolden interp_golden(Tracer* tracer, const workloads::Workload& w);

// ------------------------------------------------------------ workloads

Row run_grid(const Args& args);
Row run_campaign(const Args& args);
Row run_state_faults(const Args& args);

}  // namespace ttbench
