// state_faults: one op is one 64-lane hardened lockstep batch
// (sim::run_{scalar,vliw,tta}_batch) plus the output checksum of every lane.
// One iteration covers 4000 register-file, FU-result and guard faults on
// each of the eight unprotected default-campaign cells, sampled the way
// resil::run_campaign samples them (imem excluded) and grouped by fault
// cycle as it groups them. Outside the timing, every lane is checked
// against a standalone hardened run with the same fault.
#include <algorithm>
#include <optional>

#include "report/driver.hpp"
#include "resil/campaign.hpp"
#include "resil/fault_plan.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace ttbench {
namespace {

const std::vector<std::string> kMachines = {"mblaze-3", "m-vliw-2", "m-tta-2", "g-tta-2"};
const std::vector<std::string> kKernels = {"blowfish", "sha"};
// 4000 rather than the campaign's 1000 per cell: with 128 distinct
// batches per iteration the median batch time moved by a seventh from one
// seed's fault sample to the next; 504 batches hold it within a tenth.
constexpr int kFaultsPerCell = 4000;
// op_s_tail's percentile: p95 is several distinct batches per iteration
// deep, while p99 and above are the one or two slowest batches of the
// seed's sample.
constexpr double kTailPercentile = 95.0;

struct Batch {
  std::size_t cell = 0;
  std::size_t first_lane = 0;  // index of its first lane in the iteration's lane table
  std::vector<sim::FaultSet> faults;
};

struct Setup {
  std::vector<AnyCell> cells;
  std::vector<InterpGolden> golden;  // per cell: its kernel's interpreter outcome
  std::vector<Batch> batches;
  std::size_t lanes = 0;
};

// Compile and golden-run every cell, then sample and group its faults.
Setup make_setup(Tracer* tracer, std::uint64_t seed) {
  Span span(tracer, "setup");
  Setup s;
  std::vector<InterpGolden> by_kernel;
  for (const std::string& k : kKernels) {
    by_kernel.push_back(interp_golden(tracer, workload_by_name(k)));
  }
  for (const std::string& m : kMachines) {
    for (std::size_t k = 0; k < kKernels.size(); ++k) {
      s.cells.push_back(prepare_cell(tracer, m, workload_by_name(kKernels[k])));
      s.golden.push_back(by_kernel[k]);
    }
  }
  Span plan_span(tracer, "resil.plan");
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    std::visit(
        [&](const auto& cell) {
          const resil::FaultPlan plan(cell.machine, cell.machine.model == mach::Model::Tta,
                                      /*imem_bits=*/0, cell.golden.cycles);
          const std::uint64_t cell_seed = resil::mix_seed(
              seed, resil::hash_name(cell.machine.name + "/" + cell.workload->name));
          std::vector<sim::StateFault> faults;
          for (int i = 0; i < kFaultsPerCell; ++i) {
            faults.push_back(
                plan.sample(resil::mix_seed(cell_seed, static_cast<std::uint64_t>(i))).state);
          }
          std::stable_sort(faults.begin(), faults.end(),
                           [](const sim::StateFault& a, const sim::StateFault& b) {
                             return a.cycle < b.cycle;
                           });
          for (std::size_t begin = 0; begin < faults.size(); begin += sim::kMaxLanes) {
            Batch b;
            b.cell = c;
            b.first_lane = s.lanes;
            const std::size_t end = std::min(faults.size(), begin + sim::kMaxLanes);
            for (std::size_t i = begin; i < end; ++i) b.faults.push_back({{faults[i]}});
            s.lanes += b.faults.size();
            s.batches.push_back(std::move(b));
          }
        },
        s.cells[c]);
  }
  return s;
}

struct Lane {
  sim::ExecStatus status = sim::ExecStatus::Ok;
  std::uint64_t cycles = 0;
  std::uint32_t ret = 0;
  std::uint64_t checksum = 0;

  bool operator==(const Lane&) const = default;
};

struct BatchStats {
  std::uint64_t lanes = 0;
  std::uint64_t divergences = 0;
  std::uint64_t evictions = 0;
  std::uint64_t converged = 0;

  bool operator==(const BatchStats&) const = default;
};

// One op: the batch, then each lane's outcome and output checksum.
BatchStats run_op(Tracer* tracer, int op, const Setup& setup, const Batch& batch,
                  std::vector<Lane>& lanes) {
  Span root(tracer, "op", kNoSpan, op);
  BatchStats stats;
  std::visit(
      [&](const auto& cell) {
        auto br = std::make_optional(run_batch(tracer, cell, batch.faults));
        Span span(tracer, "resil.classify_lane");
        stats = {batch.faults.size(), br->divergences, br->evictions, 0};
        for (std::size_t k = 0; k < batch.faults.size(); ++k) {
          const auto& lo = br->lanes[k];
          lanes[batch.first_lane + k] = {lo.result.status, lo.result.cycles, lo.result.ret,
                                         lane_checksum(cell, *br, k)};
          if (lo.converged) ++stats.converged;
        }
        br.reset();  // releasing the lanes' images is part of consuming them
      },
      setup.cells[batch.cell]);
  return stats;
}

// The reference a lane must match: a standalone hardened run of the cell
// with the lane's fault set.
Lane standalone(const Setup& setup, const Batch& batch, std::size_t k) {
  Lane out;
  std::visit(
      [&](const auto& cell) {
        using E = Engine<std::decay_t<decltype(cell.program)>>;
        ir::Memory mem = cell.initial_mem;
        sim::SimOptions opts;
        opts.harden = true;
        opts.faults = &batch.faults[k];
        typename E::Sim simulator(cell.program, cell.machine, mem, opts);
        simulator.use_predecoded(cell.pre);
        const auto r = simulator.run(resil::timeout_budget(cell.golden.cycles));
        out = {r.status, r.cycles, r.ret,
               report::workload_output_checksum(cell.module, *cell.workload, mem)};
      },
      setup.cells[batch.cell]);
  return out;
}

}  // namespace

Row run_state_faults(const Args& args) {
  Row row;
  row.workload = "state_faults";
  row.seed = args.seed;
  row.trace = args.trace;
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;

  std::vector<double> setup_seconds;
  const Setup setup =
      timed_setups(setup_seconds, [&] { return make_setup(tracer.get(), args.seed); });
  std::uint64_t target_cycles = 0;
  std::uint64_t image_bits = 0;
  for (std::size_t c = 0; c < setup.cells.size(); ++c) {
    std::visit(
        [&](const auto& cell) {
          target_cycles += cell.golden.cycles;
          image_bits += cell.imem_bits;
          ++row.attempted;
          if (cell.golden.ret != setup.golden[c].ret ||
              cell.golden_checksum != setup.golden[c].checksum) {
            ++row.failed;
            row.note("golden run of " + cell.machine.name + "/" + cell.workload->name +
                     " disagrees with the interpreter");
          }
        },
        setup.cells[c]);
  }

  support::ThreadPool pool(kThreads);
  const std::size_t nbatches = setup.batches.size();
  // Runs every batch once on the pool; returns the lane table and counts.
  const auto iterate = [&](Tracer* t, int iteration, std::vector<double>* op_seconds,
                           BatchStats& total) {
    std::vector<Lane> lanes(setup.lanes);
    std::vector<BatchStats> stats(nbatches);
    std::vector<double> seconds(nbatches);
    support::parallel_for(pool, nbatches, [&](std::size_t b) {
      const auto t0 = std::chrono::steady_clock::now();
      stats[b] = run_op(t, iteration * static_cast<int>(nbatches) + static_cast<int>(b), setup,
                        setup.batches[b], lanes);
      seconds[b] = seconds_since(t0);
    });
    total = {};
    for (const BatchStats& s : stats) {
      total.lanes += s.lanes;
      total.divergences += s.divergences;
      total.evictions += s.evictions;
      total.converged += s.converged;
    }
    if (op_seconds != nullptr) {
      op_seconds->insert(op_seconds->end(), seconds.begin(), seconds.end());
    }
    return lanes;
  };

  std::vector<Lane> reference;  // the first iteration's lanes
  Loop loop;
  std::vector<double> traced_seconds;
  double traced_wall = 0.0;
  BatchStats counts;
  run_loop(args, loop, [&](int iteration) {
    const auto t0 = std::chrono::steady_clock::now();
    BatchStats stats;
    std::vector<Lane> lanes = iterate(nullptr, iteration, &loop.op_seconds, stats);
    loop.busy_seconds += seconds_since(t0);
    loop.items += stats.lanes;
    loop.end_iteration();
    std::size_t differ = 0;
    if (iteration == 0) {
      reference = std::move(lanes);
    } else {
      for (std::size_t i = 0; i < lanes.size(); ++i) differ += lanes[i] == reference[i] ? 0 : 1;
    }
    if (tracer == nullptr) {
      if (differ != 0) row.note(ttsc::format("%zu lanes changed between iterations", differ));
      row.failed += differ;
      row.attempted += iteration == 0 ? 0 : lanes.size();
      return;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const std::vector<Lane> traced = iterate(tracer.get(), iteration, &traced_seconds, counts);
    traced_wall += seconds_since(t1);
    // The traced run does the same work: same lanes, divergences, evictions.
    for (std::size_t i = 0; i < traced.size(); ++i) differ += traced[i] == reference[i] ? 0 : 1;
    if (!(counts == stats)) ++differ;
    if (differ != 0) row.note(ttsc::format("%zu traced lanes or counts differ", differ));
    row.failed += differ;
    row.attempted += traced.size() + (iteration == 0 ? 0 : lanes.size());
  });
  row.iterations = loop.iterations;
  row.seconds = loop.busy_seconds;

  // Every lane against its standalone hardened run, outside the timing.
  std::vector<char> mismatch(nbatches * sim::kMaxLanes, 0);
  support::parallel_for(pool, nbatches, [&](std::size_t b) {
    const Batch& batch = setup.batches[b];
    for (std::size_t k = 0; k < batch.faults.size(); ++k) {
      const bool same = standalone(setup, batch, k) == reference[batch.first_lane + k];
      mismatch[b * sim::kMaxLanes + k] = same ? 0 : 1;
    }
  });
  const auto bad = static_cast<std::uint64_t>(std::count(mismatch.begin(), mismatch.end(), 1));
  row.attempted += setup.lanes;
  row.failed += bad;
  if (bad != 0) {
    row.note(ttsc::format("%llu lanes differ from their standalone hardened run",
                          static_cast<unsigned long long>(bad)));
  }

  if (tracer == nullptr) {
    add_end_to_end(row, setup_seconds, loop, kTailPercentile, target_cycles, image_bits);
    return row;
  }
  const auto lanes = static_cast<double>(counts.lanes);
  Extras extras;
  extras["sim.lockstep.lanes"] = lanes;
  extras["sim.lockstep.divergences"] = static_cast<double>(counts.divergences);
  extras["sim.lockstep.evictions"] = static_cast<double>(counts.evictions);
  extras["sim.lockstep.evict_frac"] =
      lanes > 0 ? static_cast<double>(counts.evictions) / lanes : 0.0;
  extras["sim.lockstep.converged_frac"] =
      lanes > 0 ? static_cast<double>(counts.converged) / lanes : 0.0;
  double op_sum = 0.0;
  for (const double s : traced_seconds) op_sum += s;
  extras["support.pool_busy_frac"] = traced_wall > 0.0 ? op_sum / (traced_wall * kThreads) : 0.0;
  extras["bench.trace_overhead"] = median(traced_seconds) / median(loop.op_seconds) - 1.0;
  add_per_layer(row, summarize(tracer->spans()), kSetupRepeats, extras);
  row.notes.push_back(
      "eviction-tail reruns run inside sim::run_*_batch and are not split from outside the "
      "library; counts are per iteration (" + std::to_string(nbatches) + " batches)");
  return row;
}

}  // namespace ttbench
