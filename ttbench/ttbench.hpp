// ttbench — the end-to-end and per-layer benchmark of the ttsc library.
//
// One process runs one workload (grid, campaign or state_faults) as a
// closed loop: the next op starts when the previous one has finished. With
// tracing off it reports the end-to-end metrics of BENCHMARK.json; with
// tracing on it replays the same work through the public entry points of
// each module, recording one span around every call, and reports per-layer
// self time and counts instead. Everything here drives the library from
// outside: no span lives inside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ttbench {

// ---------------------------------------------------------------- stats

/// Quartiles exactly as Python's statistics.quantiles(values, n=4) (the
/// default "exclusive" method), so the benchmark and any script reading its
/// result files agree on every spread. Empty input gives zeros.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);
double median(std::vector<double> values);

/// The tail of a timing distribution: the highest of p95, p75 and p50, at
/// most `top_percentile`, with at least ten samples strictly beyond it
/// (nearest rank). A workload fixes its top rung so that the rung does not
/// move with the op count, which moves with host speed. With too few
/// samples for any rung the median is returned with `enough` false.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
  bool enough = false;
};
Tail tail(std::vector<double> values, double top_percentile);

/// Metric and layer names: 1-64 characters of [A-Za-z0-9_.-], starting
/// with a letter or a digit.
bool valid_metric_name(std::string_view name);

// ---------------------------------------------------------------- spans

/// Op id of spans recorded during set-up rather than inside a timed op.
inline constexpr int kSetupOp = -1;

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct SpanRecord {
  std::string name;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  int op = kSetupOp;
  int thread = 0;  // tracer-local thread index; 0 is the first recording thread
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  /// Work the span did, in the layer's unit (simulated cycles for a
  /// simulator span); 0 when the layer counts none.
  std::uint64_t work = 0;
};

/// In-memory span recorder. Each thread appends to its own shard (one
/// mutex acquisition per thread, at its first span); spans() merges the
/// shards once the traced work has finished.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// All recorded spans, ordered by id (ids are unique per tracer).
  std::vector<SpanRecord> spans() const;

  struct Shard;  // one thread's records; defined in spans.cpp

 private:
  friend class Span;
  friend class Adopt;
  Shard& shard();
  double now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t serial_ = 0;
  mutable std::mutex mutex_;  // guards shards_
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// RAII span. A null tracer makes every operation a no-op, so the same
/// code serves traced and untraced runs. The parent defaults to the
/// innermost open span of this thread; work handed to another thread
/// passes its parent (and op) explicitly.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name);
  Span(Tracer* tracer, std::string_view name, SpanId parent, int op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_work(std::uint64_t work);
  SpanId id() const { return id_; }

 private:
  void open(std::string_view name, SpanId parent, int op);

  Tracer* tracer_ = nullptr;
  Tracer::Shard* shard_ = nullptr;
  std::size_t index_ = 0;
  SpanId id_ = kNoSpan;
};

/// While alive, spans this thread opens with no open span of its own
/// become children of `parent` in op `op`: how a pool work item joins the
/// span tree of the op that submitted it.
class Adopt {
 public:
  Adopt(Tracer* tracer, SpanId parent, int op);
  ~Adopt();
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;

 private:
  Tracer::Shard* shard_ = nullptr;
  SpanId saved_parent_ = kNoSpan;
  int saved_op_ = kSetupOp;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals (children on any thread, clipped
/// to the parent's interval). Indexed like `spans`.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

/// Per-layer totals over a traced run, keyed by span name.
struct LayerTotals {
  std::string name;
  double op_self = 0.0;     // self seconds inside timed ops
  double setup_self = 0.0;  // self seconds inside set-ups
  std::uint64_t work = 0;   // summed span work (ops and set-ups)
  std::vector<double> durations;  // inclusive durations of op spans
};
struct TraceSummary {
  std::vector<LayerTotals> layers;  // sorted by name
  /// Root "op" spans: count, summed wall time, and summed self time (the
  /// unattributed remainder, "other").
  std::size_t ops = 0;
  double op_wall = 0.0;
  double other = 0.0;
  double min_coverage = 1.0;  // lowest per-op share covered by child spans
  /// Summed duration of spans that start a task on another thread than
  /// their parent's (pool work items), inside timed ops.
  double worker_item_seconds = 0.0;

  const LayerTotals* layer(std::string_view name) const;
};
TraceSummary summarize(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Samples behind the value, and their quartiles (equal to the value for
  /// a single measurement or an exact count).
  std::size_t samples = 1;
  Quartiles spread;
  std::string detail;  // e.g. which percentile a tail is
};

struct Provenance {
  std::string git_sha = "unknown";
  std::string tree_sha256 = "unknown";
  std::string compiler;
  std::string build_type;
  std::string build_flags;
  unsigned nproc = 0;
  std::string hostname;
  int threads = 0;
};

struct Row {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int iterations = 0;
  double seconds = 0.0;  // measured wall time of the timed loop
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  bool correct() const { return failed == 0 && attempted > 0; }
  /// Records why a check failed; keeps the first 20.
  void note(std::string text) {
    if (notes.size() < 20) notes.push_back(std::move(text));
  }
};

struct ResultFile {
  Provenance provenance;
  std::vector<Row> rows;
};

/// "ttbench-result" v1 JSON, and its parser (obs::parse_json underneath;
/// throws ttsc::Error on a malformed or foreign document).
std::string render_result(const ResultFile& file);
ResultFile parse_result(std::string_view text);

/// The driver-facing last stdout line: correct, attempted, failed and
/// every metric's value and unit, numbers in shortest round-trip form.
std::string render_summary_line(const Row& row);

/// Shortest decimal text that reads back as exactly `v`.
std::string number_text(double v);

}  // namespace ttbench
