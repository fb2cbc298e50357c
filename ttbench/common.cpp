#include <malloc.h>
#include <sys/resource.h>

#include <fstream>

#include "codegen/legalize.hpp"
#include "codegen/lower.hpp"
#include "ir/interp.hpp"
#include "ir/verify.hpp"
#include "mach/configs.hpp"
#include "opt/passes.hpp"
#include "report/driver.hpp"
#include "resil/campaign.hpp"
#include "resil/inject.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"
#include "workloads.hpp"

namespace ttbench {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void reset_peak_rss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current resident set (Linux >= 4.0). Without it
  // the peak stays the process's high-water mark.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

Metric sampled(std::string name, std::string unit, const std::vector<double>& samples,
               double value) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = value;
  m.samples = samples.size();
  m.spread = quartiles(samples);
  return m;
}

Metric single(std::string name, std::string unit, double value, std::size_t samples = 1) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = value;
  m.samples = samples;
  m.spread = {value, value, value};
  return m;
}

enum class Kind { Self, Mcps, Extra };
struct LayerMetric {
  const char* name;
  const char* unit;
  Kind kind;
  const char* layer;  // span name for Self / Mcps
};

// BENCHMARK.json's per_layer list, in its order. A test checks the two agree.
constexpr LayerMetric kPerLayer[] = {
    {"workloads.build_s", "s", Kind::Self, "workloads.build"},
    {"opt.optimize_s", "s", Kind::Self, "opt.optimize"},
    {"codegen.legalize_s", "s", Kind::Self, "codegen.legalize"},
    {"codegen.lower_s", "s", Kind::Self, "codegen.lower"},
    {"tta.schedule_s", "s", Kind::Self, "tta.schedule"},
    {"vliw.schedule_s", "s", Kind::Self, "vliw.schedule"},
    {"scalar.emit_s", "s", Kind::Self, "scalar.emit"},
    {"tta.encode_s", "s", Kind::Self, "tta.encode"},
    {"sim.predecode_s", "s", Kind::Self, "sim.predecode"},
    {"report.load_mem_s", "s", Kind::Self, "report.load_mem"},
    {"tta.sim_s", "s", Kind::Self, "tta.sim"},
    {"vliw.sim_s", "s", Kind::Self, "vliw.sim"},
    {"scalar.sim_s", "s", Kind::Self, "scalar.sim"},
    {"tta.sim_mcps", "Mcycles/s", Kind::Mcps, "tta.sim"},
    {"vliw.sim_mcps", "Mcycles/s", Kind::Mcps, "vliw.sim"},
    {"scalar.sim_mcps", "Mcycles/s", Kind::Mcps, "scalar.sim"},
    {"report.check_s", "s", Kind::Self, "report.check"},
    {"report.cell_s", "s", Kind::Self, "report.cell"},
    {"opt.ir_instrs", "count", Kind::Extra, nullptr},
    {"codegen.spills", "count", Kind::Extra, nullptr},
    {"report.parallel_speedup", "ratio", Kind::Extra, nullptr},
    {"ir.interp_s", "s", Kind::Self, "ir.interp"},
    {"resil.prepare_s", "s", Kind::Self, "resil.prepare"},
    {"resil.plan_s", "s", Kind::Self, "resil.plan"},
    {"resil.mem_copy_s", "s", Kind::Self, "resil.mem_copy"},
    {"resil.flip_s", "s", Kind::Self, "resil.flip"},
    {"sim.predecode_imem_s", "s", Kind::Self, "sim.predecode_imem"},
    {"tta.hsim_s", "s", Kind::Self, "tta.hsim"},
    {"vliw.hsim_s", "s", Kind::Self, "vliw.hsim"},
    {"scalar.hsim_s", "s", Kind::Self, "scalar.hsim"},
    {"tta.hsim_mcps", "Mcycles/s", Kind::Mcps, "tta.hsim"},
    {"vliw.hsim_mcps", "Mcycles/s", Kind::Mcps, "vliw.hsim"},
    {"scalar.hsim_mcps", "Mcycles/s", Kind::Mcps, "scalar.hsim"},
    {"resil.classify_s", "s", Kind::Self, "resil.classify"},
    {"resil.injections.rf", "count", Kind::Extra, nullptr},
    {"resil.injections.fu-result", "count", Kind::Extra, nullptr},
    {"resil.injections.guard", "count", Kind::Extra, nullptr},
    {"resil.injections.imem", "count", Kind::Extra, nullptr},
    {"resil.forensics_s", "s", Kind::Self, "resil.forensics"},
    {"resil.forensics.replays", "count", Kind::Extra, nullptr},
    {"resil.forensics.replay_s_p50", "s", Kind::Extra, nullptr},
    {"resil.protected_cell_s", "s", Kind::Self, "resil.protected_cell"},
    {"support.pool_busy_frac", "ratio", Kind::Extra, nullptr},
    {"sim.lockstep.scalar_s", "s", Kind::Self, "sim.lockstep.scalar"},
    {"sim.lockstep.vliw_s", "s", Kind::Self, "sim.lockstep.vliw"},
    {"sim.lockstep.tta_s", "s", Kind::Self, "sim.lockstep.tta"},
    {"sim.lockstep.lanes", "count", Kind::Extra, nullptr},
    {"sim.lockstep.divergences", "count", Kind::Extra, nullptr},
    {"sim.lockstep.evictions", "count", Kind::Extra, nullptr},
    {"sim.lockstep.evict_frac", "ratio", Kind::Extra, nullptr},
    {"sim.lockstep.converged_frac", "ratio", Kind::Extra, nullptr},
    {"resil.classify_lane_s", "s", Kind::Self, "resil.classify_lane"},
    {"other_s", "s", Kind::Extra, nullptr},
    {"bench.coverage", "ratio", Kind::Extra, nullptr},
    {"bench.trace_overhead", "ratio", Kind::Extra, nullptr},
};

}  // namespace

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const LayerMetric& m : kPerLayer) v.emplace_back(m.name);
    return v;
  }();
  return names;
}

void Loop::end_iteration() {
  iteration_p50.push_back(median(std::vector<double>(
      op_seconds.begin() + static_cast<std::ptrdiff_t>(first_op_), op_seconds.end())));
  first_op_ = op_seconds.size();
  ++iterations;
}

void add_end_to_end(Row& row, const std::vector<double>& setup_seconds, const Loop& loop,
                    double tail_percentile, std::uint64_t target_cycles,
                    std::uint64_t image_bits) {
  row.metrics.push_back(sampled("setup_s", "s", setup_seconds, median(setup_seconds)));
  // The median op of each pass, then the median over passes: a pass whose
  // ops differ in size (campaign cells) has its median inside one cell's
  // cluster of times rather than at a gap between two.
  row.metrics.push_back(
      sampled("op_s_p50", "s", loop.iteration_p50, median(loop.iteration_p50)));
  const Tail t = tail(loop.op_seconds, tail_percentile);
  Metric tm = sampled("op_s_tail", "s", loop.op_seconds, t.value);
  tm.detail = ttsc::format("p%g of %zu ops, %zu beyond%s", t.percentile, t.samples, t.beyond,
                           t.enough ? "" : " (fewer than 10 beyond: too few ops)");
  row.metrics.push_back(std::move(tm));
  row.metrics.push_back(single("items_per_s", "1/s",
                               loop.busy_seconds > 0.0
                                   ? static_cast<double>(loop.items) / loop.busy_seconds
                                   : 0.0,
                               static_cast<std::size_t>(loop.iterations)));
  row.metrics.push_back(
      sampled("peak_rss_mb", "MiB", loop.iteration_rss, median(loop.iteration_rss)));
  row.metrics.push_back(single("target_cycles", "cycles", static_cast<double>(target_cycles)));
  row.metrics.push_back(single("image_bits", "bits", static_cast<double>(image_bits)));
}

void add_per_layer(Row& row, const TraceSummary& trace, int setups, const Extras& extras) {
  const double ops = trace.ops > 0 ? static_cast<double>(trace.ops) : 1.0;
  const double setup_n = setups > 0 ? static_cast<double>(setups) : 1.0;
  Extras generic;
  generic["other_s"] = trace.other / ops;
  generic["bench.coverage"] = trace.min_coverage;
  generic["support.pool_busy_frac"] =
      trace.op_wall > 0.0 ? trace.worker_item_seconds / (trace.op_wall * kThreads) : 0.0;
  if (const LayerTotals* cell = trace.layer("report.cell")) {
    double sum = 0.0;
    for (const double d : cell->durations) sum += d;
    generic["report.parallel_speedup"] = trace.op_wall > 0.0 ? sum / trace.op_wall : 0.0;
  }
  if (const LayerTotals* f = trace.layer("resil.forensics")) {
    generic["resil.forensics.replay_s_p50"] = median(f->durations);
  }
  for (const LayerMetric& lm : kPerLayer) {
    double value = 0.0;
    std::size_t samples = trace.ops;
    const LayerTotals* l = lm.layer != nullptr ? trace.layer(lm.layer) : nullptr;
    switch (lm.kind) {
      case Kind::Self:
        if (l != nullptr) value = l->op_self / ops + l->setup_self / setup_n;
        break;
      case Kind::Mcps:
        if (l != nullptr && l->op_self + l->setup_self > 0.0) {
          value = static_cast<double>(l->work) / (l->op_self + l->setup_self) / 1e6;
          samples = l->durations.size();
        }
        break;
      case Kind::Extra: {
        auto it = extras.find(lm.name);
        if (it != extras.end()) {
          value = it->second;
        } else if ((it = generic.find(lm.name)) != generic.end()) {
          value = it->second;
        }
        break;
      }
    }
    row.metrics.push_back(single(lm.name, lm.unit, value, samples));
  }
}

const workloads::Workload& workload_by_name(const std::string& name) {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    if (w.name == name) return w;
  }
  throw ttsc::Error("ttbench: unknown kernel " + name);
}

InterpGolden interp_golden(Tracer* tracer, const workloads::Workload& w) {
  Span span(tracer, "ir.interp");
  ir::Module module;
  w.build(module);
  ir::verify(module);
  ir::Interpreter interp(module);
  const ir::Interpreter::Result r = interp.run(workloads::entry_point(), {});
  return {r.value, report::workload_output_checksum(module, w, interp.memory())};
}

namespace {

template <typename Program>
AnyCell finish_cell(mach::Machine machine, const workloads::Workload& w, ir::Module module,
                    Program program) {
  using E = Engine<Program>;
  Cell<Program> c;
  c.machine = std::move(machine);
  c.workload = &w;
  c.module = std::move(module);
  c.program = std::move(program);
  c.initial_mem = report::make_loaded_memory(c.module);
  c.pre = std::make_shared<const typename E::Pre>(sim::predecode(c.program, c.machine));
  c.imem_bits = resil::imem_bits(c.program);
  c.golden_mem = c.initial_mem;
  typename E::Sim sim(c.program, c.machine, c.golden_mem);
  sim.use_predecoded(c.pre);
  c.golden = sim.run();
  if (c.golden.status != sim::ExecStatus::Ok) {
    throw ttsc::Error(ttsc::format("golden run of %s/%s did not complete", c.machine.name.c_str(),
                                   w.name.c_str()));
  }
  c.golden_checksum = report::workload_output_checksum(c.module, w, c.golden_mem);
  return c;
}

}  // namespace

AnyCell prepare_cell(Tracer* tracer, const std::string& machine_name,
                     const workloads::Workload& w) {
  // The pipeline of resil::run_campaign's cell preparation (ordinary
  // schedule, no superblocks), one call per module.
  Span span(tracer, "resil.prepare");
  mach::Machine machine = mach::machine_by_name(machine_name);
  ir::Module module = report::build_optimized(w);
  ir::Function& entry = module.function(workloads::entry_point());
  if (machine.model == mach::Model::Tta && machine.has_guards()) {
    opt::if_convert_selects(entry);
  } else {
    codegen::expand_selects(entry);
  }
  if (machine.model == mach::Model::Scalar) codegen::legalize_scalar_operands(entry);
  const codegen::LowerResult lowered = codegen::lower(module, workloads::entry_point(), machine);
  switch (machine.model) {
    case mach::Model::Scalar:
      return finish_cell(machine, w, std::move(module), scalar::emit_scalar(lowered.func));
    case mach::Model::Vliw:
      return finish_cell(machine, w, std::move(module),
                         vliw::schedule_vliw(lowered.func, machine, nullptr, nullptr));
    case mach::Model::Tta:
      return finish_cell(machine, w, std::move(module),
                         tta::schedule_tta(lowered.func, machine, {}, nullptr, nullptr));
  }
  TTSC_UNREACHABLE("ttbench: unhandled machine model");
}

template <typename Program>
sim::BatchResult<typename Engine<Program>::Result> run_batch(
    Tracer* tracer, const Cell<Program>& cell, std::span<const sim::FaultSet> faults) {
  Span span(tracer, std::string("sim.lockstep.") + Engine<Program>::kName);
  const std::uint64_t budget = resil::timeout_budget(cell.golden.cycles);
  if constexpr (std::is_same_v<Program, scalar::ScalarProgram>) {
    return sim::run_scalar_batch(cell.program, cell.machine, cell.pre, cell.initial_mem, faults,
                                 budget, &cell.golden, &cell.golden_mem);
  } else if constexpr (std::is_same_v<Program, vliw::VliwProgram>) {
    return sim::run_vliw_batch(cell.program, cell.machine, cell.pre, cell.initial_mem, faults,
                               budget, &cell.golden, &cell.golden_mem);
  } else {
    return sim::run_tta_batch(cell.program, cell.machine, cell.pre, cell.initial_mem, faults,
                              budget, &cell.golden, &cell.golden_mem);
  }
}

template <typename Program>
std::uint64_t lane_checksum(const Cell<Program>& cell,
                            const sim::BatchResult<typename Engine<Program>::Result>& br,
                            std::size_t lane) {
  const auto& lo = br.lanes[lane];
  if (lo.evicted) return report::workload_output_checksum(cell.module, *cell.workload, *lo.mem);
  // report::workload_output_checksum, read through the lane's delta.
  const ir::DataLayout layout = cell.module.layout();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& name : cell.workload->output_globals) {
    const ir::Global* g = cell.module.find_global(name);
    TTSC_ASSERT(g != nullptr, "workload output global missing: " + name);
    h ^= sim::checksum_with_delta(br.leader_mem, lo.delta, layout.address_of(name),
                                  static_cast<std::uint32_t>(g->size));
    h *= 0x100000001b3ull;
  }
  return h;
}

#define TTBENCH_INSTANTIATE(P)                                                              \
  template sim::BatchResult<Engine<P>::Result> run_batch<P>(Tracer*, const Cell<P>&,        \
                                                            std::span<const sim::FaultSet>); \
  template std::uint64_t lane_checksum<P>(const Cell<P>&,                                   \
                                          const sim::BatchResult<Engine<P>::Result>&,       \
                                          std::size_t);
TTBENCH_INSTANTIATE(scalar::ScalarProgram)
TTBENCH_INSTANTIATE(vliw::VliwProgram)
TTBENCH_INSTANTIATE(tta::TtaProgram)
#undef TTBENCH_INSTANTIATE

}  // namespace ttbench
