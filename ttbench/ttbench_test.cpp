// Tests of the benchmark's own code: statistics, span self time, metric
// names and the result file format.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "obs/json.hpp"
#include "ttbench.hpp"
#include "workloads.hpp"

namespace ttbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  q = quartiles({4});
  EXPECT_DOUBLE_EQ(q.q1, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, TailIsHighestRungWithTenSamplesBeyond) {
  // 100 samples: p95 (rank 95) leaves 5 beyond, p75 (rank 75) leaves 25.
  Tail t = tail(one_to(100), 95.0);
  EXPECT_TRUE(t.enough);
  EXPECT_DOUBLE_EQ(t.percentile, 75.0);
  EXPECT_DOUBLE_EQ(t.value, 75.0);
  EXPECT_EQ(t.beyond, 25u);
  EXPECT_EQ(t.samples, 100u);
  // 200 samples: p95 is rank 190 with exactly 10 beyond: the rule's edge.
  t = tail(one_to(200), 95.0);
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 190.0);
  EXPECT_EQ(t.beyond, 10u);
  // 199 samples: p95 would leave 9 beyond, so p75.
  EXPECT_DOUBLE_EQ(tail(one_to(199), 95.0).percentile, 75.0);
  // The workload's top rung caps the ladder however many samples there are.
  t = tail(one_to(2000), 75.0);
  EXPECT_DOUBLE_EQ(t.percentile, 75.0);
  EXPECT_EQ(t.beyond, 500u);
}

TEST(Stats, TailCountsOnlySamplesStrictlyBeyond) {
  // Ties at the rank do not count as beyond it.
  std::vector<double> v(30, 1.0);
  v.push_back(2.0);
  const Tail t = tail(v, 95.0);
  EXPECT_FALSE(t.enough);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 1u);
}

TEST(Stats, TooFewSamplesForAnyRung) {
  const Tail t = tail(one_to(19), 95.0);
  EXPECT_FALSE(t.enough);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_EQ(t.beyond, 9u);
  EXPECT_TRUE(tail(one_to(20), 95.0).enough);
}

SpanRecord record(SpanId id, SpanId parent, double start, double end, int thread = 0,
                  const char* name = "x", int op = 0) {
  SpanRecord r;
  r.name = name;
  r.id = id;
  r.parent = parent;
  r.start = start;
  r.end = end;
  r.thread = thread;
  r.op = op;
  return r;
}

TEST(Spans, SelfTimeSubtractsUnionOfNestedAndOverlappingChildren) {
  const std::vector<SpanRecord> spans = {
      record(0, kNoSpan, 0.0, 10.0),
      record(1, 0, 1.0, 3.0),
      record(2, 0, 2.0, 5.0, 1),   // overlaps child 1, on another thread
      record(3, 0, 8.0, 12.0, 2),  // runs past its parent: clipped at 10
      record(4, 2, 3.0, 4.0, 1),   // grandchild: only its parent loses it
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0));  // [1,5] and [8,10] covered
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Spans, ChildCoveringItsParentLeavesNoSelfTime) {
  const std::vector<double> self =
      self_times({record(0, kNoSpan, 1.0, 2.0), record(1, 0, 0.0, 3.0), record(2, 0, 1.5, 1.7)});
  EXPECT_DOUBLE_EQ(self[0], 0.0);
}

TEST(Spans, SummaryAttributesSelfTimePerLayer) {
  std::vector<SpanRecord> spans = {
      record(0, kNoSpan, 0.0, 10.0, 0, "op", 0),
      record(1, 0, 0.0, 6.0, 1, "sim", 0),
      record(2, 0, 5.0, 9.0, 2, "sim", 0),
      record(3, kNoSpan, 20.0, 21.0, 0, "setup", kSetupOp),
      record(4, 3, 20.0, 20.5, 0, "interp", kSetupOp),
  };
  const TraceSummary s = summarize(spans);
  EXPECT_EQ(s.ops, 1u);
  EXPECT_DOUBLE_EQ(s.op_wall, 10.0);
  EXPECT_DOUBLE_EQ(s.other, 1.0);
  EXPECT_DOUBLE_EQ(s.min_coverage, 0.9);
  EXPECT_DOUBLE_EQ(s.worker_item_seconds, 10.0);  // both sim spans left the op's thread
  ASSERT_NE(s.layer("sim"), nullptr);
  EXPECT_DOUBLE_EQ(s.layer("sim")->op_self, 10.0);
  EXPECT_EQ(s.layer("sim")->durations.size(), 2u);
  ASSERT_NE(s.layer("interp"), nullptr);
  EXPECT_DOUBLE_EQ(s.layer("interp")->setup_self, 0.5);
  EXPECT_DOUBLE_EQ(s.layer("interp")->op_self, 0.0);
  EXPECT_DOUBLE_EQ(s.layer("setup")->setup_self, 0.5);
}

TEST(Spans, TracerLinksNestedAndAdoptedSpans) {
  Tracer tracer;
  SpanId root_id = kNoSpan;
  {
    Span root(&tracer, "op", kNoSpan, 7);
    root_id = root.id();
    {
      Span child(&tracer, "child");
      child.add_work(42);
      Span grandchild(&tracer, "grandchild");
    }
    std::thread worker([&] {
      Adopt adopt(&tracer, root_id, 7);
      Span item(&tracer, "item");
    });
    worker.join();
  }
  {
    Span free_span(&tracer, "loose");
  }
  Span disabled(nullptr, "ignored");  // a null tracer records nothing
  disabled.add_work(1);
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name["child"].parent, root_id);
  EXPECT_EQ(by_name["child"].op, 7);
  EXPECT_EQ(by_name["child"].work, 42u);
  EXPECT_EQ(by_name["grandchild"].parent, by_name["child"].id);
  EXPECT_EQ(by_name["item"].parent, root_id);
  EXPECT_EQ(by_name["item"].op, 7);
  EXPECT_NE(by_name["item"].thread, by_name["op"].thread);
  EXPECT_EQ(by_name["loose"].parent, kNoSpan);
  EXPECT_EQ(by_name["loose"].op, kSetupOp);
  for (const SpanRecord& s : spans) EXPECT_LE(s.start, s.end);
}

TEST(Names, MetricNameCharset) {
  for (const char* ok : {"op_s_p50", "setup_s", "resil.injections.fu-result", "1x", "A.b-c_d"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "_x", ".x", "-x", "op s", "op/s", "op:s", "ö", "a\"b"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

TEST(Names, PerLayerListMatchesBenchmarkJson) {
  const ttsc::obs::JsonValue doc =
      ttsc::obs::parse_json(read_file(std::string(TTBENCH_SOURCE_DIR) + "/../BENCHMARK.json"));
  std::vector<std::string> listed;
  for (const ttsc::obs::JsonValue& m : doc.at("per_layer").items) {
    listed.push_back(m.at("name").as_string());
  }
  EXPECT_EQ(listed, per_layer_names());
  for (const char* key : {"end_to_end", "per_layer", "workloads"}) {
    for (const ttsc::obs::JsonValue& m : doc.at(key).items) {
      EXPECT_TRUE(valid_metric_name(m.at("name").as_string())) << m.at("name").as_string();
    }
  }
}

TEST(Result, RoundTripsThroughParseJson) {
  ResultFile f;
  f.provenance.git_sha = "abc123";
  f.provenance.tree_sha256 = "00ff";
  f.provenance.compiler = "GNU 12.2.0";
  f.provenance.build_type = "Release";
  f.provenance.build_flags = "-O3 -DNDEBUG";
  f.provenance.nproc = 4;
  f.provenance.hostname = "host \"quoted\"";
  f.provenance.threads = 4;
  Row r;
  r.workload = "grid";
  r.seed = 18446744073709551615ull;
  r.trace = true;
  r.attempted = 1040;
  r.failed = 2;
  r.iterations = 10;
  r.seconds = 1.0 / 3.0;
  Metric m;
  m.name = "op_s_p50";
  m.unit = "s";
  m.value = 0.1234567890123456789;
  m.samples = 10;
  m.spread = {0.1, 0.12345678901234567, 1e-300};
  m.detail = "p95 of 200 ops, 10 beyond";
  r.metrics.push_back(m);
  r.notes.push_back("a note");
  f.rows.push_back(r);

  const std::string text = render_result(f);
  const ResultFile back = parse_result(text);
  EXPECT_EQ(render_result(back), text);
  ASSERT_EQ(back.rows.size(), 1u);
  const Row& b = back.rows[0];
  EXPECT_EQ(b.seed, r.seed);
  EXPECT_TRUE(b.trace);
  EXPECT_EQ(b.failed, 2u);
  EXPECT_FALSE(b.correct());
  EXPECT_EQ(b.seconds, r.seconds);  // shortest round-trip text: exact
  ASSERT_EQ(b.metrics.size(), 1u);
  EXPECT_EQ(b.metrics[0].value, m.value);
  EXPECT_EQ(b.metrics[0].spread.q3, 1e-300);
  EXPECT_EQ(b.metrics[0].detail, m.detail);
  EXPECT_EQ(back.provenance.hostname, f.provenance.hostname);
  EXPECT_THROW(parse_result("{\"schema\":\"other\",\"version\":1}"), ttsc::Error);
  EXPECT_THROW(parse_result("{"), ttsc::Error);
}

TEST(Result, SummaryLineHasExactlyTheDriverKeys) {
  Row r;
  r.attempted = 3;
  Metric m;
  m.name = "setup_s";
  m.unit = "s";
  m.value = 0.8127;
  r.metrics.push_back(m);
  const ttsc::obs::JsonValue doc = ttsc::obs::parse_json(render_summary_line(r));
  ASSERT_EQ(doc.members.size(), 4u);
  EXPECT_EQ(doc.members[0].first, "correct");
  EXPECT_TRUE(doc.at("correct").boolean);
  EXPECT_EQ(doc.at("attempted").as_uint(), 3u);
  EXPECT_EQ(doc.at("failed").as_uint(), 0u);
  const ttsc::obs::JsonValue& metric = doc.at("metrics").at("setup_s");
  ASSERT_EQ(metric.members.size(), 2u);
  EXPECT_EQ(metric.at("value").text, "0.8127");
  EXPECT_EQ(metric.at("unit").as_string(), "s");
}

}  // namespace
}  // namespace ttbench
