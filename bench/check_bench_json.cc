// Schema gate for the standardized BENCH_<name>.json files and for JSONL run
// reports.
//
// Every bench binary writes a BENCH_<name>.json in its working directory (see
// WriteBenchJson); bench/baselines/ commits a reference copy per bench.
// Downstream tooling (EXPERIMENTS.md tables, dashboards) parses them, so the
// shape is a contract:
//
//   {"bench": <string>, "rows": [{"case": <string>, "vcpu_ms": <number>,
//                                 "vreal_ms": <number>, "bytes_moved": <int>}...]}
//
// Cluster::WriteReport's JSONL output is a contract too — every line is one
// {"type": ...} object, and each type carries a fixed key set (report, meta,
// counter, gauge, histogram, span, phase_summary, trace_summary, sample,
// postmortem, alert, slo, decision). The
// --report mode validates a report file line by line against that table, and
// meta's "armed" object against its own (one flag per observation switch); an
// unknown type or key, or a missing/mistyped required key fails, so a writer
// cannot silently drift away from what the readers parse.
//
// The --equal mode holds a fresh BENCH file to its committed baseline: every
// row's case, vcpu_ms, vreal_ms and bytes_moved must match exactly, so a
// change that moves any virtual figure fails until its baseline is
// regenerated on purpose.
//
// Every object, in either mode, is held to its field table exactly: no missing,
// mistyped, unexpected or repeated key, and nothing after the closing brace.
//
// Usage: check_bench_json <file-or-dir>...           (BENCH_*.json mode;
//        directories are scanned for BENCH_*.json)
//        check_bench_json --report <file.jsonl>...   (report-line mode)
//        check_bench_json --equal <fresh> <baseline> (baseline-equality mode)
// Exits 1 on any violation or difference.
//
// One parser below reads both modes; it covers exactly the JSON subset our
// writers emit (no third-party JSON dependency in this repo, by design).

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Cursor {
  const std::string* text = nullptr;
  size_t pos = 0;
  std::string error;

  bool Fail(const std::string& why) {
    if (error.empty()) error = why + " at byte " + std::to_string(pos);
    return false;
  }
  void SkipWs() {
    while (pos < text->size() && std::isspace(static_cast<unsigned char>((*text)[pos]))) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos >= text->size() || (*text)[pos] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos < text->size() && (*text)[pos] != '"') {
      char c = (*text)[pos++];
      if (c == '\\') {
        if (pos >= text->size()) return Fail("dangling escape");
        c = (*text)[pos++];
      }
      out->push_back(c);
    }
    if (pos >= text->size()) return Fail("unterminated string");
    ++pos;
    return true;
  }
  // JSON's number grammar exactly: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ParseNumber(double* out, bool* integral) {
    SkipWs();
    const size_t start = pos;
    const auto at = [this](char c) { return pos < text->size() && (*text)[pos] == c; };
    const auto digits = [this] {
      const size_t from = pos;
      while (pos < text->size() && std::isdigit(static_cast<unsigned char>((*text)[pos]))) {
        ++pos;
      }
      return pos - from;
    };
    if (at('-')) ++pos;
    const size_t lead = pos;
    const size_t whole = digits();
    if (whole == 0 || (whole > 1 && (*text)[lead] == '0')) return Fail("bad number");
    *integral = true;
    if (at('.')) {
      ++pos;
      if (digits() == 0) return Fail("bad number");
      *integral = false;
    }
    if (at('e') || at('E')) {
      ++pos;
      if (at('+') || at('-')) ++pos;
      if (digits() == 0) return Fail("bad number");
      *integral = false;
    }
    *out = std::strtod(text->c_str() + start, nullptr);
    return true;
  }
};

// A minimal JSON value.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = kNull;
  bool b = false;
  double num = 0;
  bool integral = false;  // a number written without '.', 'e' or 'E'
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> obj;
  std::vector<JsonValue> arr;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

const char* KindName(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::kNull: return "null";
    case JsonValue::kBool: return "bool";
    case JsonValue::kNumber: return "number";
    case JsonValue::kString: return "string";
    case JsonValue::kObject: return "object";
    case JsonValue::kArray: return "array";
  }
  return "?";
}

bool ParseValue(Cursor* c, JsonValue* out) {
  c->SkipWs();
  if (c->pos >= c->text->size()) return c->Fail("unexpected end of input");
  const char ch = (*c->text)[c->pos];
  if (ch == '{') {
    ++c->pos;
    out->kind = JsonValue::kObject;
    c->SkipWs();
    if (c->pos < c->text->size() && (*c->text)[c->pos] == '}') {
      ++c->pos;
      return true;
    }
    for (;;) {
      std::string key;
      if (!c->ParseString(&key)) return false;
      if (!c->Eat(':')) return false;
      JsonValue v;
      if (!ParseValue(c, &v)) return false;
      out->obj.emplace_back(std::move(key), std::move(v));
      c->SkipWs();
      if (c->pos < c->text->size() && (*c->text)[c->pos] == ',') {
        ++c->pos;
        continue;
      }
      break;
    }
    return c->Eat('}');
  }
  if (ch == '[') {
    ++c->pos;
    out->kind = JsonValue::kArray;
    c->SkipWs();
    if (c->pos < c->text->size() && (*c->text)[c->pos] == ']') {
      ++c->pos;
      return true;
    }
    for (;;) {
      JsonValue v;
      if (!ParseValue(c, &v)) return false;
      out->arr.push_back(std::move(v));
      c->SkipWs();
      if (c->pos < c->text->size() && (*c->text)[c->pos] == ',') {
        ++c->pos;
        continue;
      }
      break;
    }
    return c->Eat(']');
  }
  if (ch == '"') {
    out->kind = JsonValue::kString;
    return c->ParseString(&out->str);
  }
  if (c->text->compare(c->pos, 4, "true") == 0) {
    out->kind = JsonValue::kBool;
    out->b = true;
    c->pos += 4;
    return true;
  }
  if (c->text->compare(c->pos, 5, "false") == 0) {
    out->kind = JsonValue::kBool;
    out->b = false;
    c->pos += 5;
    return true;
  }
  if (c->text->compare(c->pos, 4, "null") == 0) {
    out->kind = JsonValue::kNull;
    c->pos += 4;
    return true;
  }
  out->kind = JsonValue::kNumber;
  return c->ParseNumber(&out->num, &out->integral);
}

// Parses all of `text` as one JSON value; bytes after it are an error.
bool ParseDocument(const std::string& text, JsonValue* out, std::string* why) {
  Cursor c;
  c.text = &text;
  if (!ParseValue(&c, out)) {
    *why = c.error.empty() ? "parse error" : c.error;
    return false;
  }
  c.SkipWs();
  if (c.pos != text.size()) {
    *why = "trailing bytes at byte " + std::to_string(c.pos);
    return false;
  }
  return true;
}

// The report-line contract: required keys (and their kinds) per "type". A line
// may not carry keys outside this set either — the schema is exact, so adding
// a field to a writer forces the matching update here (and a look at the
// readers), never a silent drift.
struct ReportField {
  const char* key;
  JsonValue::Kind kind;
};
struct ReportSchema {
  const char* type;
  std::vector<ReportField> fields;
};

const std::vector<ReportSchema>& ReportSchemas() {
  using JV = JsonValue;
  static const std::vector<ReportSchema> schemas = {
      {"report", {{"virtual_now_ns", JV::kNumber}, {"hosts", JV::kArray}}},
      {"meta",
       {{"seed", JV::kNumber},
        {"hosts", JV::kNumber},
        {"config_fingerprint", JV::kString},
        {"armed", JV::kObject}}},
      {"counter",
       {{"host", JV::kString}, {"name", JV::kString}, {"value", JV::kNumber}}},
      {"gauge",
       {{"host", JV::kString}, {"name", JV::kString}, {"value", JV::kNumber}}},
      {"histogram",
       {{"host", JV::kString},
        {"name", JV::kString},
        {"count", JV::kNumber},
        {"sum_ns", JV::kNumber},
        {"min_ns", JV::kNumber},
        {"max_ns", JV::kNumber},
        {"p50_ns", JV::kNumber},
        {"p95_ns", JV::kNumber},
        {"p99_ns", JV::kNumber}}},
      {"span",
       {{"id", JV::kNumber},
        {"phase", JV::kString},
        {"host", JV::kString},
        {"pid", JV::kNumber},
        {"begin_ns", JV::kNumber},
        {"end_ns", JV::kNumber},
        {"dur_ns", JV::kNumber},
        {"trace_id", JV::kNumber},
        {"parent_id", JV::kNumber}}},
      {"phase_summary", {{"total_ns", JV::kNumber}, {"phases", JV::kObject}}},
      {"trace_summary",
       {{"trace_id", JV::kNumber},
        {"root_phase", JV::kString},
        {"root_host", JV::kString},
        {"total_ns", JV::kNumber},
        {"phases", JV::kObject},
        {"critical_path", JV::kArray}}},
      {"sample",
       {{"t_ns", JV::kNumber},
        {"host", JV::kString},
        {"down", JV::kBool},
        {"runnable", JV::kNumber},
        {"segcache_bytes", JV::kNumber},
        {"fault_score", JV::kNumber}}},
      {"postmortem",
       {{"t_ns", JV::kNumber},
        {"host", JV::kString},
        {"trace_id", JV::kNumber},
        {"reason", JV::kString}}},
      {"alert",
       {{"t_ns", JV::kNumber},
        {"rule", JV::kString},
        {"host", JV::kString},
        {"value", JV::kNumber},
        {"detail", JV::kString},
        {"resolved", JV::kBool},
        {"resolved_at_ns", JV::kNumber}}},
      {"slo",
       {{"name", JV::kString},
        {"host", JV::kString},
        {"events", JV::kNumber},
        {"bad", JV::kNumber},
        {"allowed", JV::kNumber},
        {"burn_fast", JV::kNumber},
        {"burn_slow", JV::kNumber},
        {"firing_fast", JV::kBool},
        {"firing_slow", JV::kBool}}},
      {"decision",
       {{"seq", JV::kNumber},
        {"t_ns", JV::kNumber},
        {"ctx", JV::kString},
        {"policy", JV::kString},
        {"src", JV::kString},
        {"from", JV::kString},
        {"pid", JV::kNumber},
        {"chosen", JV::kString},
        {"runner_up", JV::kString},
        {"margin_factor", JV::kString},
        {"margin", JV::kNumber},
        {"near_tie", JV::kBool},
        {"trace", JV::kNumber},
        {"rc", JV::kNumber},
        {"candidates", JV::kArray},
        {"exclusions", JV::kArray}}},
  };
  return schemas;
}

// Holds an object to its field table exactly: every field present with its
// kind, no other key but `also` (a line's own "type"), and no key twice.
bool MatchesExactly(const JsonValue& obj, const std::vector<ReportField>& fields,
                    const std::string& what, std::string* why, const char* also = "") {
  if (obj.kind != JsonValue::kObject) {
    *why = what + " is not an object";
    return false;
  }
  for (size_t i = 0; i < obj.obj.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (obj.obj[j].first == obj.obj[i].first) {
        *why = what + ": duplicate key \"" + obj.obj[i].first + "\"";
        return false;
      }
    }
  }
  for (const ReportField& f : fields) {
    const JsonValue* v = obj.Find(f.key);
    if (v == nullptr) {
      *why = what + ": missing \"" + std::string(f.key) + "\"";
      return false;
    }
    if (v->kind != f.kind) {
      *why = what + ": \"" + f.key + "\" is " + KindName(v->kind) + ", want " +
             KindName(f.kind);
      return false;
    }
  }
  for (const auto& [key, value] : obj.obj) {
    if (key == also) continue;
    bool known = false;
    for (const ReportField& f : fields) {
      if (key == f.key) {
        known = true;
        break;
      }
    }
    if (!known) {
      *why = what + ": unexpected key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

// meta's "armed" object: one flag per observation switch, exactly these.
const std::vector<ReportField>& ArmedFields() {
  using JV = JsonValue;
  static const std::vector<ReportField> fields = {
      {"metrics", JV::kBool}, {"spans", JV::kBool},        {"flight_recorder", JV::kBool},
      {"sampler", JV::kBool}, {"health", JV::kBool},       {"decision_log", JV::kBool},
      {"faults", JV::kBool}};
  return fields;
}

// Holds every element of an array to one field table, exactly.
bool ValidateElements(const JsonValue& arr, const std::vector<ReportField>& fields,
                      const char* what, std::string* why) {
  for (size_t i = 0; i < arr.arr.size(); ++i) {
    if (!MatchesExactly(arr.arr[i], fields, std::string(what) + "[" + std::to_string(i) + "]",
                        why)) {
      return false;
    }
  }
  return true;
}

bool ValidateReportLine(const std::string& line, std::string* why) {
  JsonValue root;
  if (!ParseDocument(line, &root, why)) return false;
  if (root.kind != JsonValue::kObject) {
    *why = "line is not an object";
    return false;
  }
  const JsonValue* type = root.Find("type");
  if (type == nullptr || type->kind != JsonValue::kString) {
    *why = "missing \"type\"";
    return false;
  }
  const ReportSchema* schema = nullptr;
  for (const ReportSchema& s : ReportSchemas()) {
    if (type->str == s.type) {
      schema = &s;
      break;
    }
  }
  if (schema == nullptr) {
    *why = "unknown type \"" + type->str + "\"";
    return false;
  }
  if (!MatchesExactly(root, schema->fields, type->str, why, "type")) return false;
  if (type->str == "meta" && !MatchesExactly(*root.Find("armed"), ArmedFields(),
                                             "meta.armed", why)) {
    return false;
  }
  if (type->str == "decision") {
    using JV = JsonValue;
    if (!ValidateElements(*root.Find("candidates"),
                          {{"host", JV::kString},
                           {"load", JV::kNumber},
                           {"est_bytes", JV::kNumber},
                           {"fault", JV::kNumber},
                           {"health", JV::kNumber}},
                          "candidates", why)) {
      return false;
    }
    if (!ValidateElements(*root.Find("exclusions"),
                          {{"host", JV::kString},
                           {"reason", JV::kString},
                           {"value", JV::kNumber}},
                          "exclusions", why)) {
      return false;
    }
  }
  return true;
}

bool ValidateReportFile(const std::string& path, std::string* why, int* lines) {
  std::ifstream in(path);
  if (!in) {
    *why = "cannot open";
    return false;
  }
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++n;
    std::string line_why;
    if (!ValidateReportLine(line, &line_why)) {
      *why = "line " + std::to_string(n) + ": " + line_why;
      return false;
    }
  }
  *lines = n;
  if (n == 0) {
    *why = "no report lines";
    return false;
  }
  return true;
}

// The BENCH_<name>.json contract (see the top of this file).
const std::vector<ReportField>& BenchFields() {
  static const std::vector<ReportField> fields = {{"bench", JsonValue::kString},
                                                  {"rows", JsonValue::kArray}};
  return fields;
}
const std::vector<ReportField>& RowFields() {
  using JV = JsonValue;
  static const std::vector<ReportField> fields = {{"case", JV::kString},
                                                  {"vcpu_ms", JV::kNumber},
                                                  {"vreal_ms", JV::kNumber},
                                                  {"bytes_moved", JV::kNumber}};
  return fields;
}

// Parses a BENCH_<name>.json file into `out` and checks it against the schema.
bool ParseBenchFile(const std::string& path, JsonValue* out, std::string* why) {
  std::ifstream in(path);
  if (!in) {
    *why = "cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!ParseDocument(buf.str(), out, why) ||
      !MatchesExactly(*out, BenchFields(), "file", why)) {
    return false;
  }
  if (out->Find("bench")->str.empty()) {
    *why = "empty \"bench\"";
    return false;
  }
  const JsonValue& rows = *out->Find("rows");
  if (rows.arr.empty()) {
    *why = "no rows";
    return false;
  }
  if (!ValidateElements(rows, RowFields(), "rows", why)) return false;
  for (size_t i = 0; i < rows.arr.size(); ++i) {
    const JsonValue& r = rows.arr[i];
    const std::string& name = r.Find("case")->str;
    const std::string where = "row " + std::to_string(i) + " (" + name + ")";
    if (name.empty()) {
      *why = where + ": empty \"case\"";
      return false;
    }
    for (const char* key : {"vcpu_ms", "vreal_ms", "bytes_moved"}) {
      if (r.Find(key)->num < 0) {
        *why = where + ": negative \"" + key + "\"";
        return false;
      }
    }
    if (!r.Find("bytes_moved")->integral) {
      *why = where + ": \"bytes_moved\" is not an integer";
      return false;
    }
  }
  return true;
}

// True when `fresh` holds exactly `baseline`'s rows: the same cases in the
// same order with identical vcpu_ms, vreal_ms and bytes_moved. Both files are
// schema-checked first.
bool EqualToBaseline(const std::string& fresh_path, const std::string& baseline_path,
                     std::string* why) {
  JsonValue fresh, baseline;
  if (!ParseBenchFile(fresh_path, &fresh, why)) {
    *why = fresh_path + ": " + *why;
    return false;
  }
  if (!ParseBenchFile(baseline_path, &baseline, why)) {
    *why = baseline_path + ": " + *why;
    return false;
  }
  const std::string& fresh_bench = fresh.Find("bench")->str;
  const std::string& baseline_bench = baseline.Find("bench")->str;
  if (fresh_bench != baseline_bench) {
    *why = "bench \"" + fresh_bench + "\" vs baseline \"" + baseline_bench + "\"";
    return false;
  }
  const std::vector<JsonValue>& fresh_rows = fresh.Find("rows")->arr;
  const std::vector<JsonValue>& baseline_rows = baseline.Find("rows")->arr;
  if (fresh_rows.size() != baseline_rows.size()) {
    *why = std::to_string(fresh_rows.size()) + " rows vs " +
           std::to_string(baseline_rows.size()) + " in the baseline";
    return false;
  }
  for (size_t i = 0; i < fresh_rows.size(); ++i) {
    const JsonValue& f = fresh_rows[i];
    const JsonValue& b = baseline_rows[i];
    const std::string where =
        "row " + std::to_string(i) + " (" + b.Find("case")->str + "): ";
    if (f.Find("case")->str != b.Find("case")->str) {
      *why = where + "case \"" + f.Find("case")->str + "\"";
      return false;
    }
    for (const char* key : {"vcpu_ms", "vreal_ms", "bytes_moved"}) {
      if (f.Find(key)->num != b.Find(key)->num) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s %.10g vs baseline %.10g", key, f.Find(key)->num,
                      b.Find(key)->num);
        *why = where + buf;
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <BENCH_*.json file or directory>...\n"
                 "       %s --report <report.jsonl>...\n"
                 "       %s --equal <fresh BENCH_*.json> <baseline BENCH_*.json>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  if (std::string(argv[1]) == "--equal") {
    if (argc != 4) {
      std::fprintf(stderr, "check_bench_json: --equal needs a fresh file and a baseline\n");
      return 2;
    }
    std::string why;
    if (!EqualToBaseline(argv[2], argv[3], &why)) {
      std::printf("DIFFERS %s: %s\n", argv[2], why.c_str());
      return 1;
    }
    std::printf("equal   %s == %s\n", argv[2], argv[3]);
    return 0;
  }
  if (std::string(argv[1]) == "--report") {
    if (argc < 3) {
      std::fprintf(stderr, "check_bench_json: --report needs at least one file\n");
      return 2;
    }
    int bad = 0;
    for (int i = 2; i < argc; ++i) {
      std::string why;
      int lines = 0;
      if (ValidateReportFile(argv[i], &why, &lines)) {
        std::printf("ok      %s (%d lines)\n", argv[i], lines);
      } else {
        std::printf("INVALID %s: %s\n", argv[i], why.c_str());
        ++bad;
      }
    }
    return bad == 0 ? 0 : 1;
  }
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path p(argv[i]);
    if (std::filesystem::is_directory(p)) {
      for (const auto& entry : std::filesystem::directory_iterator(p)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
          files.push_back(entry.path().string());
        }
      }
    } else {
      files.push_back(p.string());
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "check_bench_json: no BENCH_*.json files found\n");
    return 1;
  }
  int bad = 0;
  for (const std::string& file : files) {
    std::string why;
    JsonValue parsed;
    if (ParseBenchFile(file, &parsed, &why)) {
      std::printf("ok      %s\n", file.c_str());
    } else {
      std::printf("INVALID %s: %s\n", file.c_str(), why.c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}
