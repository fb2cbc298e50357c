// grid: one op is one full Table IV sweep (13 machines x 8 kernels) through
// report::ParallelRunner, every cell checked against the golden run report
// tests/golden/table4_report.json. The traced replay runs the same cells
// through the pipeline calls compile_and_run_prebuilt makes, one span each.
#include <fstream>
#include <sstream>

#include "codegen/legalize.hpp"
#include "codegen/lower.hpp"
#include "ir/verify.hpp"
#include "mach/configs.hpp"
#include "obs/json.hpp"
#include "opt/passes.hpp"
#include "report/driver.hpp"
#include "report/parallel_runner.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "tta/binary.hpp"
#include "workloads.hpp"

namespace ttbench {
namespace {

// op_s_tail's percentile: a 30 s run holds 200 sweeps (10 beyond p95) as
// long as a sweep takes under 0.15 s (0.063-0.13 s on the 4-core host it
// was sized on); a slower run falls back to p75.
constexpr double kTailPercentile = 95.0;

struct CellResult {
  bool ok = false;
  std::uint64_t cycles = 0;
  std::uint32_t ret = 0;
  std::uint64_t checksum = 0;
  std::uint64_t image_bits = 0;

  bool operator==(const CellResult&) const = default;
};

struct Reference {
  std::uint64_t cycles = 0;
  std::uint64_t image_bits = 0;
  std::uint64_t checksum = 0;
};
using ReferenceTable = std::map<std::pair<std::string, std::string>, Reference>;

ReferenceTable load_reference(const std::string& root) {
  const std::string path = root + "/tests/golden/table4_report.json";
  std::ifstream in(path);
  if (!in) throw ttsc::Error("ttbench: cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const ttsc::obs::JsonValue doc = ttsc::obs::parse_json(text.str());
  ReferenceTable table;
  for (const ttsc::obs::JsonValue& m : doc.at("machines").items) {
    for (const auto& [kernel, c] : m.at("cells").members) {
      const std::string& hex = c.at("output_checksum").as_string();
      std::size_t used = 0;
      const std::uint64_t checksum = std::stoull(hex, &used, 16);
      if (used != hex.size()) throw ttsc::Error("ttbench: bad checksum in " + path);
      table[{m.at("name").as_string(), kernel}] = {c.at("cycles").as_uint(),
                                                   c.at("image_bits").as_uint(), checksum};
    }
  }
  return table;
}

struct Setup {
  std::vector<mach::Machine> machines;
  std::vector<InterpGolden> golden;  // per kernel, suite order
};

// Machine and kernel tables plus the reference interpreter over every
// kernel: what a table4_cycles process pays once before its first cell.
Setup make_setup(Tracer* tracer) {
  Span span(tracer, "setup");
  Setup s;
  s.machines = mach::all_machines();
  for (const workloads::Workload& w : workloads::all_workloads()) {
    s.golden.push_back(interp_golden(tracer, w));
  }
  return s;
}

std::vector<CellResult> library_sweep() {
  report::ParallelRunner::Options options;
  options.threads = kThreads;
  options.keep_going = true;
  report::ParallelRunner runner(options);
  const report::Matrix m = runner.run();
  std::vector<CellResult> out;
  for (const report::MachineResults& mr : m.machines()) {
    for (const workloads::Workload& w : workloads::all_workloads()) {
      const report::RunOutcome& o = mr.by_workload.at(w.name);
      out.push_back({o.ok, o.cycles, o.ret, o.output_checksum, o.image_bits});
    }
  }
  return out;
}

template <typename Program>
CellResult simulate(Tracer* tracer, const char* engine, const Program& program,
                    const mach::Machine& machine, ir::Memory& mem) {
  using E = Engine<Program>;
  std::shared_ptr<const typename E::Pre> pre;
  {
    Span span(tracer, "sim.predecode");
    pre = std::make_shared<const typename E::Pre>(sim::predecode(program, machine));
  }
  Span span(tracer, std::string(engine) + ".sim");
  typename E::Sim simulator(program, machine, mem);
  simulator.use_predecoded(std::move(pre));
  const typename E::Result r = simulator.run();
  span.add_work(r.cycles);
  CellResult out;
  out.ok = r.status == sim::ExecStatus::Ok;
  out.cycles = r.cycles;
  out.ret = r.ret;
  return out;
}

// One cell the way compile_and_run_prebuilt compiles and runs it.
CellResult replay_cell(Tracer* tracer, const ir::Module& optimized, const workloads::Workload& w,
                       const mach::Machine& machine, const InterpGolden& golden,
                       std::uint64_t& spills) {
  ir::Module module;
  {
    Span span(tracer, "codegen.legalize");
    module = optimized;
    ir::Function& entry = module.function(workloads::entry_point());
    if (machine.model == mach::Model::Tta && machine.has_guards()) {
      opt::if_convert_selects(entry);
    } else {
      codegen::expand_selects(entry);
    }
    if (machine.model == mach::Model::Scalar) codegen::legalize_scalar_operands(entry);
  }
  codegen::LowerResult lowered;
  {
    Span span(tracer, "codegen.lower");
    lowered = codegen::lower(module, workloads::entry_point(), machine);
  }
  spills = static_cast<std::uint64_t>(lowered.spills_inserted);
  ir::Memory mem(0);
  {
    Span span(tracer, "report.load_mem");
    mem = report::make_loaded_memory(module);
  }
  CellResult out;
  switch (machine.model) {
    case mach::Model::Scalar: {
      scalar::ScalarProgram prog;
      {
        Span span(tracer, "scalar.emit");
        prog = scalar::emit_scalar(lowered.func);
      }
      out = simulate(tracer, "scalar", prog, machine, mem);
      out.image_bits = prog.image_bits(machine.scalar);
      break;
    }
    case mach::Model::Vliw: {
      vliw::VliwProgram prog;
      {
        Span span(tracer, "vliw.schedule");
        vliw::ScheduleStats stats;
        prog = vliw::schedule_vliw(lowered.func, machine, &stats, nullptr);
      }
      out = simulate(tracer, "vliw", prog, machine, mem);
      out.image_bits = vliw::image_bits(prog, machine);
      break;
    }
    case mach::Model::Tta: {
      tta::TtaProgram prog;
      {
        Span span(tracer, "tta.schedule");
        tta::TtaScheduleStats stats;
        prog = tta::schedule_tta(lowered.func, machine, {}, &stats, nullptr);
      }
      std::uint64_t bits = 0;
      {
        Span span(tracer, "tta.encode");
        bits = tta::encode_program(prog, machine).image_bits();
      }
      out = simulate(tracer, "tta", prog, machine, mem);
      out.image_bits = bits;
      break;
    }
  }
  Span span(tracer, "report.check");
  out.checksum = report::workload_output_checksum(module, w, mem);
  out.ok = out.ok && out.ret == golden.ret && out.checksum == golden.checksum;
  return out;
}

struct ReplayCounts {
  std::uint64_t ir_instrs = 0;
  std::uint64_t spills = 0;
};

std::vector<CellResult> replay_sweep(Tracer* tracer, int op, const Setup& setup,
                                     ReplayCounts& counts) {
  const std::vector<workloads::Workload>& kernels = workloads::all_workloads();
  Span root(tracer, "op", kNoSpan, op);
  // A fresh pool and a fresh set of optimized modules per op, as each
  // library op builds a fresh ParallelRunner and ModuleCache.
  support::ThreadPool pool(kThreads);
  std::vector<ir::Module> modules(kernels.size());
  std::vector<std::uint64_t> instrs(kernels.size());
  support::parallel_for(pool, kernels.size(), [&](std::size_t k) {
    Adopt adopt(tracer, root.id(), op);
    {
      Span span(tracer, "workloads.build");
      kernels[k].build(modules[k]);
      ir::verify(modules[k]);
    }
    Span span(tracer, "opt.optimize");
    opt::optimize(modules[k], workloads::entry_point(), {}, nullptr);
    instrs[k] = modules[k].function(workloads::entry_point()).num_instrs();
  });
  const std::size_t cols = kernels.size();
  const std::size_t cells = setup.machines.size() * cols;
  std::vector<CellResult> out(cells);
  std::vector<std::uint64_t> spills(cells);
  support::parallel_for(pool, cells, [&](std::size_t i) {
    Adopt adopt(tracer, root.id(), op);
    Span span(tracer, "report.cell");
    const std::size_t k = i % cols;
    out[i] = replay_cell(tracer, modules[k], kernels[k], setup.machines[i / cols],
                         setup.golden[k], spills[i]);
  });
  for (const std::uint64_t n : instrs) counts.ir_instrs += n;
  for (const std::uint64_t n : spills) counts.spills += n;
  return out;
}

}  // namespace

Row run_grid(const Args& args) {
  Row row;
  row.workload = "grid";
  row.seed = args.seed;
  row.trace = args.trace;
  const ReferenceTable reference = load_reference(args.root);
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;

  std::vector<double> setup_seconds;
  const Setup setup = timed_setups(setup_seconds, [&] { return make_setup(tracer.get()); });
  const std::vector<workloads::Workload>& kernels = workloads::all_workloads();
  // Warm the library's memoized golden runs (as a table4_cycles process
  // does before its first cell) and cross-check them with the set-up's.
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const report::GoldenOutcome g = report::run_golden(kernels[k]);
    ++row.attempted;
    if (g.ret != setup.golden[k].ret || g.output_checksum != setup.golden[k].checksum) {
      ++row.failed;
      row.note("set-up interpreter run of " + kernels[k].name + " disagrees with run_golden");
    }
  }

  std::uint64_t target_cycles = 0;
  std::uint64_t image_bits = 0;
  // Every cell of every sweep against the golden report.
  const auto check = [&](const std::vector<CellResult>& cells, const char* what) {
    target_cycles = 0;
    image_bits = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::string& machine = setup.machines[i / kernels.size()].name;
      const std::string& kernel = kernels[i % kernels.size()].name;
      const CellResult& c = cells[i];
      target_cycles += c.cycles;
      image_bits += c.image_bits;
      ++row.attempted;
      const auto it = reference.find({machine, kernel});
      if (!c.ok || it == reference.end() || it->second.cycles != c.cycles ||
          it->second.image_bits != c.image_bits || it->second.checksum != c.checksum) {
        ++row.failed;
        row.note(ttsc::format("%s cell %s/%s differs from the golden report", what,
                              machine.c_str(), kernel.c_str()));
      }
    }
  };

  Loop loop;
  std::vector<double> traced_seconds;
  ReplayCounts counts;
  run_loop(args, loop, [&](int i) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<CellResult> cells = library_sweep();
    const double dt = seconds_since(t0);
    loop.op_seconds.push_back(dt);
    loop.busy_seconds += dt;
    loop.items += cells.size();
    loop.end_iteration();
    check(cells, "sweep");
    if (tracer == nullptr) return;
    const auto t1 = std::chrono::steady_clock::now();
    counts = {};
    const std::vector<CellResult> replayed = replay_sweep(tracer.get(), i, setup, counts);
    traced_seconds.push_back(seconds_since(t1));
    check(replayed, "traced");
    // The traced run must do the same work: identical cycles, ret,
    // checksum and image bits per cell.
    for (std::size_t c = 0; c < cells.size(); ++c) {
      ++row.attempted;
      if (!(replayed[c] == cells[c])) ++row.failed;
    }
  });
  row.iterations = loop.iterations;
  row.seconds = loop.busy_seconds;

  if (tracer == nullptr) {
    add_end_to_end(row, setup_seconds, loop, kTailPercentile, target_cycles, image_bits);
    return row;
  }
  Extras extras;
  extras["opt.ir_instrs"] = static_cast<double>(counts.ir_instrs);
  extras["codegen.spills"] = static_cast<double>(counts.spills);
  extras["bench.trace_overhead"] = median(traced_seconds) / median(loop.op_seconds) - 1.0;
  add_per_layer(row, summarize(tracer->spans()), kSetupRepeats, extras);
  row.notes.push_back(
      "optimizer passes run inside opt::optimize and are not split from outside the library");
  return row;
}

}  // namespace ttbench
