#include <charconv>
#include <cmath>

#include "obs/json.hpp"
#include "support/assert.hpp"
#include "ttbench.hpp"

namespace ttbench {

std::string number_text(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no NaN/inf; callers never produce them
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

namespace {

void number(ttsc::obs::JsonWriter& w, std::string_view key, double v) {
  w.key(key);
  w.raw_value(number_text(v));
}

void render_metric(ttsc::obs::JsonWriter& w, const Metric& m) {
  w.key(m.name);
  w.begin_object();
  number(w, "value", m.value);
  w.key("unit");
  w.value(m.unit);
  w.key("samples");
  w.value(static_cast<std::uint64_t>(m.samples));
  number(w, "q1", m.spread.q1);
  number(w, "median", m.spread.median);
  number(w, "q3", m.spread.q3);
  if (!m.detail.empty()) {
    w.key("detail");
    w.value(m.detail);
  }
  w.end_object();
}

}  // namespace

std::string render_result(const ResultFile& file) {
  ttsc::obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ttbench-result");
  w.key("version");
  w.value(1);
  const Provenance& p = file.provenance;
  w.key("provenance");
  w.begin_object();
  w.key("git_sha");
  w.value(p.git_sha);
  w.key("tree_sha256");
  w.value(p.tree_sha256);
  w.key("compiler");
  w.value(p.compiler);
  w.key("build_type");
  w.value(p.build_type);
  w.key("build_flags");
  w.value(p.build_flags);
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(p.nproc));
  w.key("hostname");
  w.value(p.hostname);
  w.key("threads");
  w.value(p.threads);
  w.end_object();
  w.key("rows");
  w.begin_array();
  for (const Row& r : file.rows) {
    w.begin_object();
    w.key("workload");
    w.value(r.workload);
    w.key("seed");
    w.value(r.seed);
    w.key("trace");
    w.value(r.trace);
    w.key("correct");
    w.value(r.correct());
    w.key("attempted");
    w.value(r.attempted);
    w.key("failed");
    w.value(r.failed);
    w.key("iterations");
    w.value(r.iterations);
    number(w, "seconds", r.seconds);
    w.key("metrics");
    w.begin_object();
    for (const Metric& m : r.metrics) render_metric(w, m);
    w.end_object();
    w.key("notes");
    w.begin_array();
    for (const std::string& n : r.notes) w.value(n);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

ResultFile parse_result(std::string_view text) {
  const ttsc::obs::JsonValue doc = ttsc::obs::parse_json(text);
  if (!doc.is_object() || doc.at("schema").as_string() != "ttbench-result" ||
      doc.at("version").as_uint() != 1) {
    throw ttsc::Error("not a ttbench-result v1 document");
  }
  ResultFile f;
  const ttsc::obs::JsonValue& p = doc.at("provenance");
  f.provenance.git_sha = p.at("git_sha").as_string();
  f.provenance.tree_sha256 = p.at("tree_sha256").as_string();
  f.provenance.compiler = p.at("compiler").as_string();
  f.provenance.build_type = p.at("build_type").as_string();
  f.provenance.build_flags = p.at("build_flags").as_string();
  f.provenance.nproc = static_cast<unsigned>(p.at("nproc").as_uint());
  f.provenance.hostname = p.at("hostname").as_string();
  f.provenance.threads = static_cast<int>(p.at("threads").as_uint());
  const ttsc::obs::JsonValue& rows = doc.at("rows");
  if (!rows.is_array()) throw ttsc::Error("ttbench-result: rows is not an array");
  for (const ttsc::obs::JsonValue& jr : rows.items) {
    Row r;
    r.workload = jr.at("workload").as_string();
    r.seed = jr.at("seed").as_uint();
    r.trace = jr.at("trace").boolean;
    r.attempted = jr.at("attempted").as_uint();
    r.failed = jr.at("failed").as_uint();
    r.iterations = static_cast<int>(jr.at("iterations").as_uint());
    r.seconds = jr.at("seconds").as_double();
    for (const auto& [name, jm] : jr.at("metrics").members) {
      Metric m;
      m.name = name;
      m.value = jm.at("value").as_double();
      m.unit = jm.at("unit").as_string();
      m.samples = static_cast<std::size_t>(jm.at("samples").as_uint());
      m.spread = {jm.at("q1").as_double(), jm.at("median").as_double(),
                  jm.at("q3").as_double()};
      if (const ttsc::obs::JsonValue* d = jm.find("detail")) m.detail = d->as_string();
      r.metrics.push_back(std::move(m));
    }
    for (const ttsc::obs::JsonValue& n : jr.at("notes").items) r.notes.push_back(n.as_string());
    f.rows.push_back(std::move(r));
  }
  return f;
}

std::string render_summary_line(const Row& row) {
  ttsc::obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(row.correct());
  w.key("attempted");
  w.value(row.attempted);
  w.key("failed");
  w.value(row.failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : row.metrics) {
    w.key(m.name);
    w.begin_object();
    number(w, "value", m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace ttbench
