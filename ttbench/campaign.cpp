// campaign: one op is one single-cell resil::run_campaign call with 1000
// batched injections and first-divergence forensics; one iteration runs the
// table_resilience default cells (mblaze-3, m-vliw-2, m-tta-2, g-tta-2 x
// blowfish, sha) plus m-tta-2+full on both kernels. Every op's report is
// checked for errors, for determinism across iterations, and against one
// serial run of the same cell. The traced replay runs the unprotected cells
// phase by phase through the public resil/sim calls.
#include <algorithm>
#include <array>
#include <optional>

#include "mach/configs.hpp"
#include "report/driver.hpp"
#include "resil/campaign.hpp"
#include "resil/fault_plan.hpp"
#include "resil/forensics.hpp"
#include "resil/inject.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace ttbench {
namespace {

const std::vector<std::string> kMachines = {"mblaze-3", "m-vliw-2", "m-tta-2", "g-tta-2",
                                            "m-tta-2+full"};
const std::vector<std::string> kKernels = {"blowfish", "sha"};
constexpr int kInjections = 1000;
// Iteration i samples its faults with campaign seed sample_seed(seed, i % 8):
// a run covers eight fault samples per cell, not one. Peak memory follows
// the sample (mblaze-3/blowfish's worst lockstep batch held 25 MiB of
// evicted lane images under one seed and 38 MiB under another), and a run
// that saw one sample reported a different peak for every seed.
constexpr int kFaultSamples = 8;
// op_s_tail's percentile. An iteration is ten unequal cells, so a rank that
// is a multiple of 10% falls between two cells' clusters of times; p75
// falls inside the eighth cell's. p95 would need 200 ops, which a 30 s run
// reaches only on a fast host, and a rung that moves between runs jumps
// from one cell to another.
constexpr double kTailPercentile = 75.0;

struct CampaignCell {
  std::string machine;
  const workloads::Workload* kernel = nullptr;
  bool protected_machine = false;

  std::string name() const { return machine + "/" + kernel->name; }
};

struct Setup {
  std::vector<CampaignCell> cells;  // machine-major, as the default campaign orders them
  std::vector<InterpGolden> golden;  // per cell: its kernel's interpreter outcome
};

// Name lookup, plus the interpreter outcome of both kernels that the traced
// replay checks every prepared cell's golden run against.
Setup make_setup(Tracer* tracer) {
  Span span(tracer, "setup");
  Setup s;
  std::vector<InterpGolden> by_kernel;
  for (const std::string& k : kKernels) {
    by_kernel.push_back(interp_golden(tracer, workload_by_name(k)));
  }
  for (const std::string& m : kMachines) {
    const bool prot = mach::machine_by_name(m).protect.any();
    for (std::size_t k = 0; k < kKernels.size(); ++k) {
      s.cells.push_back({m, &workload_by_name(kKernels[k]), prot});
      s.golden.push_back(by_kernel[k]);
    }
  }
  return s;
}

// Sample 0 is the run's own seed, so iteration 0 is the campaign
// `table_resilience --seed <seed>` runs.
std::uint64_t sample_seed(std::uint64_t seed, int sample) {
  return sample == 0 ? seed : resil::mix_seed(seed, static_cast<std::uint64_t>(sample));
}

resil::CampaignOptions cell_options(std::uint64_t seed, const CampaignCell& cell, bool serial) {
  resil::CampaignOptions o;
  o.seed = seed;
  o.injections_per_cell = kInjections;
  o.threads = kThreads;
  o.serial = serial;
  o.machines = {cell.machine};
  o.workloads = {cell.kernel->name};
  o.forensics = true;
  return o;
}

// ---------------------------------------------------------------- replay

struct Slot {
  resil::TargetKind target = resil::TargetKind::Rf;
  resil::Outcome outcome = resil::Outcome::Err;
  bool latent = false;
};

struct Replayed {
  std::array<resil::TargetTally, resil::kNumTargetKinds> targets{};
  std::uint64_t lanes = 0;
  std::uint64_t divergences = 0;
  std::uint64_t evictions = 0;
  std::uint64_t converged = 0;
  std::vector<resil::ForensicRecord> forensics;
  std::uint32_t golden_ret = 0;
  std::uint64_t golden_checksum = 0;
};

// resil's classification of one finished run against the cell's golden.
template <typename Program, typename Result>
resil::Outcome classify(const Cell<Program>& cell, const Result& r, const ir::Memory& mem,
                        bool& latent) {
  latent = false;
  switch (r.status) {
    case sim::ExecStatus::Trapped: return resil::Outcome::Trap;
    case sim::ExecStatus::TimedOut: return resil::Outcome::Timeout;
    case sim::ExecStatus::Ok: break;
  }
  const std::uint64_t checksum = report::workload_output_checksum(cell.module, *cell.workload, mem);
  if (r.ret != cell.golden.ret || checksum != cell.golden_checksum) return resil::Outcome::Sdc;
  latent = r.rf_state != cell.golden.rf_state || !(mem == cell.golden_mem);
  if constexpr (requires { r.guard_state; }) {
    latent = latent || r.guard_state != cell.golden.guard_state;
  }
  return resil::Outcome::Masked;
}

template <typename Program>
resil::Outcome classify_lane(const Cell<Program>& cell,
                             const sim::BatchResult<typename Engine<Program>::Result>& br,
                             std::size_t k, bool& latent) {
  latent = false;
  const auto& lo = br.lanes[k];
  if (lo.evicted) return classify(cell, lo.result, *lo.mem, latent);
  if (lo.converged) return resil::Outcome::Masked;
  switch (lo.result.status) {
    case sim::ExecStatus::Trapped: return resil::Outcome::Trap;
    case sim::ExecStatus::TimedOut: return resil::Outcome::Timeout;
    case sim::ExecStatus::Ok: break;
  }
  if (lo.result.ret != cell.golden.ret || lane_checksum(cell, br, k) != cell.golden_checksum) {
    return resil::Outcome::Sdc;
  }
  latent = lo.result.rf_state != cell.golden.rf_state || !lo.delta.empty();
  if constexpr (requires { lo.result.guard_state; }) {
    latent = latent || lo.result.guard_state != cell.golden.guard_state;
  }
  return resil::Outcome::Masked;
}

template <typename Program>
Program mutate(const Program& program, const resil::FaultSpec& spec) {
  Program mutated = resil::flip_bit(program, spec.imem_bit);
  if (spec.imem_width >= 2) mutated = resil::flip_bit(mutated, spec.imem_bit + 1);
  return mutated;
}

// One instruction-memory injection, phase by phase.
template <typename Program>
Slot imem_injection(Tracer* tracer, const Cell<Program>& cell, const resil::FaultSpec& spec,
                    std::uint64_t budget) {
  using E = Engine<Program>;
  ir::Memory mem(0);
  {
    Span span(tracer, "resil.mem_copy");
    mem = cell.initial_mem;
  }
  Program mutated;
  {
    Span span(tracer, "resil.flip");
    mutated = mutate(cell.program, spec);
  }
  std::shared_ptr<const typename E::Pre> pre;
  {
    Span span(tracer, "sim.predecode_imem");
    pre = std::make_shared<const typename E::Pre>(sim::predecode(mutated, cell.machine));
  }
  typename E::Result r;
  {
    Span span(tracer, std::string(E::kName) + ".hsim");
    sim::SimOptions opts;
    opts.harden = true;
    typename E::Sim simulator(mutated, cell.machine, mem, opts);
    simulator.use_predecoded(std::move(pre));
    r = simulator.run(budget);
    span.add_work(r.cycles);
  }
  Span span(tracer, "resil.classify");
  Slot s;
  s.target = spec.target;
  s.outcome = classify(cell, r, mem, s.latent);
  return s;
}

// The golden and the faulty replay of one injection with commit recorders
// attached, bounded to the forensics window (resil's forensic pass).
template <typename Program>
resil::DivergenceRecord forensic_replay(const Cell<Program>& cell, const resil::FaultSpec& spec,
                                        std::uint64_t budget) {
  using E = Engine<Program>;
  resil::ForensicsWindow window;
  window.start_cycle = spec.target == resil::TargetKind::Imem ? 0 : spec.state.cycle;
  const resil::CampaignOptions defaults;
  window.window_cycles = defaults.forensics_window;
  resil::CommitRecorder golden_rec(window);
  resil::CommitRecorder faulty_rec(window);
  const std::uint64_t replay_budget =
      std::min(budget, window.start_cycle + window.window_cycles + 1);
  const auto note_cutoff = [](const auto& r, resil::CommitRecorder& rec) {
    if (r.status == sim::ExecStatus::TimedOut) rec.mark_truncated();
  };
  sim::SimOptions golden_opts;
  golden_opts.harden = true;
  golden_opts.observer = &golden_rec;
  sim::SimOptions faulty_opts;
  faulty_opts.harden = true;
  faulty_opts.observer = &faulty_rec;
  sim::FaultSet fs;
  if (spec.target != resil::TargetKind::Imem) {
    fs.faults.push_back(spec.state);
    faulty_opts.faults = &fs;
  }
  {
    ir::Memory mem = cell.initial_mem;
    typename E::Sim simulator(cell.program, cell.machine, mem, golden_opts);
    simulator.use_predecoded(cell.pre);
    note_cutoff(simulator.run(replay_budget), golden_rec);
  }
  ir::Memory mem = cell.initial_mem;
  if (spec.target == resil::TargetKind::Imem) {
    const Program mutated = mutate(cell.program, spec);
    note_cutoff(typename E::Sim(mutated, cell.machine, mem, faulty_opts).run(replay_budget),
                faulty_rec);
  } else {
    typename E::Sim simulator(cell.program, cell.machine, mem, faulty_opts);
    simulator.use_predecoded(cell.pre);
    note_cutoff(simulator.run(replay_budget), faulty_rec);
  }
  return resil::first_divergence(golden_rec, faulty_rec);
}

struct GroupStats {
  std::uint64_t lanes = 0;
  std::uint64_t divergences = 0;
  std::uint64_t evictions = 0;
  std::uint64_t converged = 0;
};

// Everything run_campaign does for one prepared, unprotected cell after
// preparation: plan, batched state faults and per-injection imem faults on
// the pool, tally, forensic replays.
template <typename Program>
Replayed replay_injections(Tracer* tracer, SpanId root, int op, const Cell<Program>& cell,
                           std::uint64_t seed) {
  const std::size_t n = kInjections;
  const std::uint64_t budget = resil::timeout_budget(cell.golden.cycles);
  std::vector<resil::FaultSpec> specs(n);
  std::vector<std::size_t> state_idx;
  std::vector<std::size_t> imem_idx;
  {
    Span span(tracer, "resil.plan");
    const resil::FaultPlan plan(cell.machine, cell.machine.model == mach::Model::Tta,
                                cell.imem_bits, cell.golden.cycles);
    const std::uint64_t cell_seed = resil::mix_seed(
        seed, resil::hash_name(cell.machine.name + "/" + cell.workload->name));
    for (std::size_t i = 0; i < n; ++i) specs[i] = plan.sample(resil::mix_seed(cell_seed, i));
    for (std::size_t i = 0; i < n; ++i) {
      (specs[i].target == resil::TargetKind::Imem ? imem_idx : state_idx).push_back(i);
    }
    std::stable_sort(state_idx.begin(), state_idx.end(), [&](std::size_t a, std::size_t b) {
      return specs[a].state.cycle < specs[b].state.cycle;
    });
  }
  const std::size_t lanes = sim::kMaxLanes;
  const std::size_t groups = (state_idx.size() + lanes - 1) / lanes;
  std::vector<Slot> slots(n);
  std::vector<GroupStats> group_stats(groups);
  support::ThreadPool pool(kThreads);  // run_campaign's per-call pool
  support::parallel_for(pool, groups + imem_idx.size(), [&](std::size_t item) {
    Adopt adopt(tracer, root, op);
    if (item >= groups) {
      const std::size_t i = imem_idx[item - groups];
      try {
        slots[i] = imem_injection(tracer, cell, specs[i], budget);
      } catch (const std::exception&) {
        slots[i] = Slot{specs[i].target, resil::Outcome::Err, false};
      }
      return;
    }
    const std::size_t begin = item * lanes;
    const std::size_t count = std::min(lanes, state_idx.size() - begin);
    std::vector<sim::FaultSet> faults(count);
    for (std::size_t k = 0; k < count; ++k) {
      faults[k].faults.push_back(specs[state_idx[begin + k]].state);
    }
    auto br = std::make_optional(run_batch(tracer, cell, faults));
    Span span(tracer, "resil.classify_lane");
    GroupStats& gs = group_stats[item];
    gs = {count, br->divergences, br->evictions, 0};
    for (std::size_t k = 0; k < count; ++k) {
      Slot& s = slots[state_idx[begin + k]];
      s.target = specs[state_idx[begin + k]].target;
      s.outcome = classify_lane(cell, *br, k, s.latent);
      if (br->lanes[k].converged) ++gs.converged;
    }
    br.reset();  // releasing the lanes' images is part of consuming them
  });

  Replayed out;
  out.golden_ret = cell.golden.ret;
  out.golden_checksum = cell.golden_checksum;
  for (const GroupStats& gs : group_stats) {
    out.lanes += gs.lanes;
    out.divergences += gs.divergences;
    out.evictions += gs.evictions;
    out.converged += gs.converged;
  }
  for (const Slot& s : slots) {
    resil::TargetTally& t = out.targets[static_cast<std::size_t>(s.target)];
    ++t.injections;
    switch (s.outcome) {
      case resil::Outcome::Masked:
        ++t.masked;
        if (s.latent) ++t.latent;
        break;
      case resil::Outcome::Sdc: ++t.sdc; break;
      case resil::Outcome::Timeout: ++t.timeout; break;
      case resil::Outcome::Trap: ++t.trap; break;
      default: ++t.err; break;  // protected classes never occur on these cells
    }
  }
  resil::CampaignOptions defaults;
  defaults.injections_per_cell = kInjections;
  const auto forensic_budget = static_cast<std::size_t>(defaults.effective_forensics_budget());
  for (std::size_t i = 0; i < n && out.forensics.size() < forensic_budget; ++i) {
    const Slot& s = slots[i];
    if (s.outcome != resil::Outcome::Sdc && !(s.outcome == resil::Outcome::Masked && s.latent)) {
      continue;
    }
    Span span(tracer, "resil.forensics");
    resil::ForensicRecord rec;
    rec.injection = i;
    rec.target = s.target;
    rec.outcome = s.outcome;
    rec.latent = s.latent;
    rec.fault_cycle = specs[i].target == resil::TargetKind::Imem ? 0 : specs[i].state.cycle;
    rec.divergence = forensic_replay(cell, specs[i], budget);
    out.forensics.push_back(rec);
  }
  return out;
}

bool same_tally(const resil::TargetTally& a, const resil::TargetTally& b) {
  return a.injections == b.injections && a.masked == b.masked && a.sdc == b.sdc &&
         a.timeout == b.timeout && a.trap == b.trap && a.err == b.err && a.latent == b.latent;
}

bool same_divergence(const resil::DivergenceRecord& a, const resil::DivergenceRecord& b) {
  return a.found == b.found && a.beyond_window == b.beyond_window && a.cycle == b.cycle &&
         a.element == b.element && a.unit == b.unit && a.index == b.index && a.addr == b.addr &&
         a.golden_value == b.golden_value && a.faulty_value == b.faulty_value;
}

// The traced replay did the same work as the library call: equal per-target
// tallies, lockstep lane and eviction counts, and forensic verdicts.
std::string replay_mismatch(const Replayed& r, const resil::CellReport& c) {
  for (int t = 0; t < resil::kNumTargetKinds; ++t) {
    if (!same_tally(r.targets[static_cast<std::size_t>(t)],
                    c.targets[static_cast<std::size_t>(t)])) {
      return ttsc::format("%s tally", resil::target_kind_name(static_cast<resil::TargetKind>(t)));
    }
  }
  if (r.lanes != c.batch_lanes || r.evictions != c.batch_evictions ||
      r.divergences != c.batch_divergences) {
    return "lockstep lane counts";
  }
  if (r.forensics.size() != c.forensics.size()) return "forensic record count";
  for (std::size_t i = 0; i < r.forensics.size(); ++i) {
    const resil::ForensicRecord& a = r.forensics[i];
    const resil::ForensicRecord& b = c.forensics[i];
    if (a.injection != b.injection || a.fault_cycle != b.fault_cycle ||
        !same_divergence(a.divergence, b.divergence)) {
      return "forensic verdicts";
    }
  }
  return "";
}

bool report_failed(const resil::CampaignReport& r) {
  if (r.cells.size() != 1 || !r.all_ok() || r.infra_failures() != 0) return true;
  return r.cells[0].total().err != 0;
}

}  // namespace

Row run_campaign(const Args& args) {
  Row row;
  row.workload = "campaign";
  row.seed = args.seed;
  row.trace = args.trace;
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;

  std::vector<double> setup_seconds;
  const Setup setup = timed_setups(setup_seconds, [&] { return make_setup(tracer.get()); });
  const std::size_t ncells = setup.cells.size();

  // Each cell's report under each fault sample, from its first iteration.
  std::vector<std::vector<std::string>> first_json(kFaultSamples, std::vector<std::string>(ncells));
  std::vector<resil::CampaignReport> last(ncells);
  std::uint64_t target_cycles = 0;
  std::uint64_t image_bits = 0;
  Loop loop;
  std::vector<double> traced_seconds;
  Extras counts;
  double converged = 0.0;
  run_loop(args, loop, [&](int iteration) {
    const int sample = iteration % kFaultSamples;
    const std::uint64_t seed = sample_seed(args.seed, sample);
    target_cycles = 0;
    image_bits = 0;
    for (std::size_t c = 0; c < ncells; ++c) {
      const auto t0 = std::chrono::steady_clock::now();
      resil::CampaignReport report = resil::run_campaign(cell_options(seed, setup.cells[c], false));
      const double dt = seconds_since(t0);
      loop.op_seconds.push_back(dt);
      loop.busy_seconds += dt;
      loop.items += kInjections;
      std::string json = resil::render_resil_report_json(report);
      ++row.attempted;
      if (report_failed(report)) {
        ++row.failed;
        row.note("errors in cell " + setup.cells[c].name());
      } else {
        target_cycles += report.cells[0].golden_cycles;
        image_bits += report.cells[0].imem_bits;
      }
      std::string& first = first_json[static_cast<std::size_t>(sample)][c];
      if (first.empty()) {
        first = std::move(json);
      } else if (json != first) {
        ++row.failed;
        row.note("report of " + setup.cells[c].name() + " changed between iterations");
      }
      last[c] = std::move(report);
    }
    loop.end_iteration();
    if (tracer == nullptr) return;

    // Counts are those of iteration 0, the run seed's own fault sample.
    const bool count = iteration == 0;
    for (std::size_t c = 0; c < ncells; ++c) {
      const CampaignCell& cell = setup.cells[c];
      const int op = iteration * static_cast<int>(ncells) + static_cast<int>(c);
      resil::CampaignReport report;  // the protected cell, run whole
      Replayed r;                    // an unprotected cell, replayed phase by phase
      const auto t0 = std::chrono::steady_clock::now();
      {
        Span root(tracer.get(), "op", kNoSpan, op);
        if (cell.protected_machine) {
          Span span(tracer.get(), "resil.protected_cell");
          report = resil::run_campaign(cell_options(seed, cell, false));
        } else {
          std::visit(
              [&](const auto& prepared) {
                r = replay_injections(tracer.get(), root.id(), op, prepared, seed);
              },
              prepare_cell(tracer.get(), cell.machine, *cell.kernel));
        }
      }
      traced_seconds.push_back(seconds_since(t0));

      ++row.attempted;
      std::string why;
      if (cell.protected_machine) {
        if (report_failed(report) ||
            resil::render_resil_report_json(report) !=
                first_json[static_cast<std::size_t>(sample)][c]) {
          why = "report";
        } else {
          r.targets = report.cells[0].targets;
        }
      } else {
        why = last[c].cells.empty() ? "missing report" : replay_mismatch(r, last[c].cells[0]);
        const InterpGolden& g = setup.golden[c];
        if (why.empty() && (r.golden_ret != g.ret || r.golden_checksum != g.checksum)) {
          why = "golden run vs interpreter";
        }
      }
      if (!why.empty()) {
        ++row.failed;
        row.note("traced " + cell.name() + " differs: " + why);
      }
      if (!count) continue;
      counts["sim.lockstep.lanes"] += static_cast<double>(r.lanes);
      counts["sim.lockstep.divergences"] += static_cast<double>(r.divergences);
      counts["sim.lockstep.evictions"] += static_cast<double>(r.evictions);
      counts["resil.forensics.replays"] += 2.0 * static_cast<double>(r.forensics.size());
      converged += static_cast<double>(r.converged);
      for (int t = 0; t < resil::kNumTargetKinds; ++t) {
        counts[std::string("resil.injections.") +
               resil::target_kind_name(static_cast<resil::TargetKind>(t))] +=
            static_cast<double>(r.targets[static_cast<std::size_t>(t)].injections);
      }
    }
  });
  row.iterations = loop.iterations;
  row.seconds = loop.busy_seconds;

  // Each cell once more on the serial reference path under the run seed's
  // own fault sample, outside the timing; the cells run side by side since
  // each serial run is single-threaded.
  {
    std::vector<std::string> serial_json(ncells);
    support::ThreadPool pool(kThreads);
    support::parallel_for(pool, ncells, [&](std::size_t c) {
      serial_json[c] = resil::render_resil_report_json(
          resil::run_campaign(cell_options(args.seed, setup.cells[c], true)));
    });
    for (std::size_t c = 0; c < ncells; ++c) {
      ++row.attempted;
      if (serial_json[c] != first_json[0][c]) {
        ++row.failed;
        row.note("serial reference of " + setup.cells[c].name() + " differs from the report");
      }
    }
  }

  if (tracer == nullptr) {
    add_end_to_end(row, setup_seconds, loop, kTailPercentile, target_cycles, image_bits);
    return row;
  }
  const double lanes = counts["sim.lockstep.lanes"];
  counts["sim.lockstep.evict_frac"] = lanes > 0 ? counts["sim.lockstep.evictions"] / lanes : 0.0;
  counts["sim.lockstep.converged_frac"] = lanes > 0 ? converged / lanes : 0.0;
  counts["bench.trace_overhead"] = median(traced_seconds) / median(loop.op_seconds) - 1.0;
  add_per_layer(row, summarize(tracer->spans()), kSetupRepeats, counts);
  row.notes.push_back(
      "eviction-tail reruns run inside sim::run_*_batch and are not split from outside the "
      "library; counts are per iteration (all " + std::to_string(ncells) + " cells)");
  return row;
}

}  // namespace ttbench
