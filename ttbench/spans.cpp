#include <algorithm>
#include <atomic>
#include <map>
#include <unordered_map>

#include "ttbench.hpp"

namespace ttbench {

struct Tracer::Shard {
  int thread = 0;
  std::vector<SpanRecord> records;
  std::vector<std::size_t> open;  // indices of this thread's open spans, innermost last
  SpanId adopted_parent = kNoSpan;  // parent and op of spans opened with `open` empty
  int adopted_op = kSetupOp;
};

namespace {

constexpr int kIndexBits = 40;

std::atomic<std::uint64_t> next_tracer_serial{1};

// The calling thread's shard of the tracer with serial `serial`. Tracers
// get unique serials, so a new tracer at a reused address never sees a
// stale shard.
struct ThreadCache {
  std::uint64_t serial = 0;
  Tracer::Shard* shard = nullptr;
};
thread_local ThreadCache tls_cache;

}  // namespace

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      serial_(next_tracer_serial.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

Tracer::Shard& Tracer::shard() {
  if (tls_cache.serial == serial_) return *tls_cache.shard;
  std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  shards_.back()->thread = static_cast<int>(shards_.size() - 1);
  tls_cache = {serial_, shards_.back().get()};
  return *shards_.back();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& s : shards_) out.insert(out.end(), s->records.begin(), s->records.end());
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

Span::Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  shard_ = &tracer_->shard();
  if (shard_->open.empty()) {
    open(name, shard_->adopted_parent, shard_->adopted_op);
  } else {
    const SpanRecord& p = shard_->records[shard_->open.back()];
    open(name, p.id, p.op);
  }
}

Span::Span(Tracer* tracer, std::string_view name, SpanId parent, int op) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  shard_ = &tracer_->shard();
  open(name, parent, op);
}

void Span::open(std::string_view name, SpanId parent, int op) {
  index_ = shard_->records.size();
  id_ = (static_cast<SpanId>(shard_->thread) << kIndexBits) | static_cast<SpanId>(index_);
  SpanRecord r;
  r.name = std::string(name);
  r.id = id_;
  r.parent = parent;
  r.op = op;
  r.thread = shard_->thread;
  shard_->records.push_back(std::move(r));
  shard_->open.push_back(index_);
  shard_->records[index_].start = tracer_->now();  // last, so set-up cost stays outside
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  shard_->records[index_].end = tracer_->now();
  shard_->open.pop_back();
}

void Span::add_work(std::uint64_t work) {
  if (tracer_ != nullptr) shard_->records[index_].work += work;
}

Adopt::Adopt(Tracer* tracer, SpanId parent, int op) {
  if (tracer == nullptr) return;
  shard_ = &tracer->shard();
  saved_parent_ = shard_->adopted_parent;
  saved_op_ = shard_->adopted_op;
  shard_->adopted_parent = parent;
  shard_->adopted_op = op;
}

Adopt::~Adopt() {
  if (shard_ == nullptr) return;
  shard_->adopted_parent = saved_parent_;
  shard_->adopted_op = saved_op_;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<SpanId, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) kids[it->second].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = lo;  // end of the union so far
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      const double to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

const LayerTotals* TraceSummary::layer(std::string_view name) const {
  for (const LayerTotals& l : layers) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

TraceSummary summarize(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times(spans);
  std::unordered_map<SpanId, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  TraceSummary sum;
  std::map<std::string, LayerTotals> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = s.end - s.start;
    if (s.name == "op" && s.parent == kNoSpan) {
      ++sum.ops;
      sum.op_wall += dur;
      sum.other += self[i];
      if (dur > 0.0) sum.min_coverage = std::min(sum.min_coverage, 1.0 - self[i] / dur);
      continue;
    }
    LayerTotals& l = layers[s.name];
    l.name = s.name;
    l.work += s.work;
    if (s.op == kSetupOp) {
      l.setup_self += self[i];
      continue;
    }
    l.op_self += self[i];
    l.durations.push_back(dur);
    const auto p = index_of.find(s.parent);
    if (p != index_of.end() && spans[p->second].thread != s.thread) {
      sum.worker_item_seconds += dur;
    }
  }
  for (auto& [name, l] : layers) sum.layers.push_back(std::move(l));
  return sum;
}

}  // namespace ttbench
