#include "spans.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace reqbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t SpanLog::Begin(uint64_t request_id, uint64_t parent_id,
                      const char* name) {
  SpanRecord rec;
  rec.request_id = request_id;
  rec.span_id = next_id_->fetch_add(1, std::memory_order_relaxed);
  rec.parent_id = parent_id;
  rec.name = name;
  rec.start_ns = NowNs();
  rec.end_ns = rec.start_ns;
  spans_.push_back(rec);
  return spans_.size() - 1;
}

double LayerTable::SelfMs(const std::string& root,
                          const std::string& name) const {
  for (const LayerRow& r : rows) {
    if (r.root == root && r.name == name) return r.self_ms;
  }
  return 0;
}

uint64_t LayerTable::Roots(const std::string& root) const {
  auto it = roots.find(root);
  return it == roots.end() ? 0 : it->second;
}

double LayerTable::RootMs(const std::string& root) const {
  auto it = root_ms.find(root);
  return it == root_ms.end() ? 0 : it->second;
}

LayerTable ComputeLayerTable(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    by_id[s.span_id] = &s;
    if (s.parent_id != 0) child_ns[s.parent_id] += s.end_ns - s.start_ns;
  }
  // (root name, span name) -> row; roots keep their own row for self time.
  std::map<std::pair<std::string, std::string>, LayerRow> rows;
  LayerTable table;
  for (const SpanRecord& s : spans) {
    const SpanRecord* root = &s;
    while (root->parent_id != 0) {
      auto it = by_id.find(root->parent_id);
      if (it == by_id.end()) break;
      root = it->second;
    }
    int64_t dur = s.end_ns - s.start_ns;
    auto c = child_ns.find(s.span_id);
    int64_t self = dur - (c == child_ns.end() ? 0 : c->second);
    LayerRow& row = rows[{root->name, s.name}];
    row.root = root->name;
    row.name = s.name;
    row.calls += 1;
    row.self_ms += static_cast<double>(self) / 1e6;
    if (&s == root) {
      table.roots[s.name] += 1;
      table.root_ms[s.name] += static_cast<double>(dur) / 1e6;
    }
  }
  for (auto& [key, row] : rows) table.rows.push_back(row);
  return table;
}

std::string LayerTableText(const LayerTable& table) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-10s %-10s %8s %12s %12s %7s\n",
                "root", "span", "calls", "self_ms", "ms/root", "share");
  out += line;
  for (const LayerRow& r : table.rows) {
    uint64_t n = table.Roots(r.root);
    double total = table.RootMs(r.root);
    std::snprintf(line, sizeof(line), "%-10s %-10s %8llu %12.3f %12.4f %6.2f%%\n",
                  r.root.c_str(), r.name == r.root ? "(self)" : r.name.c_str(),
                  static_cast<unsigned long long>(r.calls), r.self_ms,
                  n == 0 ? 0.0 : r.self_ms / static_cast<double>(n),
                  total <= 0 ? 0.0 : 100.0 * r.self_ms / total);
    out += line;
  }
  return out;
}

std::string SpansJson(const std::vector<SpanRecord>& spans, int64_t epoch_ns) {
  std::string out = "[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"req\":%llu,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"dur_us\":%.3f}",
                  i == 0 ? "" : ",\n", static_cast<unsigned long long>(s.request_id),
                  static_cast<unsigned long long>(s.span_id),
                  static_cast<unsigned long long>(s.parent_id), s.name,
                  static_cast<double>(s.start_ns - epoch_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
  }
  out += "]";
  return out;
}

std::string LayerTableJson(const LayerTable& table) {
  std::string out = "[";
  char buf[256];
  for (size_t i = 0; i < table.rows.size(); ++i) {
    const LayerRow& r = table.rows[i];
    uint64_t n = table.Roots(r.root);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"root\":\"%s\",\"span\":\"%s\",\"calls\":%llu,"
                  "\"self_ms\":%.6f,\"self_ms_per_root\":%.6f}",
                  i == 0 ? "" : ",", r.root.c_str(), r.name.c_str(),
                  static_cast<unsigned long long>(r.calls), r.self_ms,
                  n == 0 ? 0.0 : r.self_ms / static_cast<double>(n));
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace reqbench
