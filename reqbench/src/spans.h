#ifndef REQBENCH_SPANS_H_
#define REQBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace reqbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// One closed interval recorded around a call into a library layer.
struct SpanRecord {
  uint64_t request_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 for a root span (request / write / reopen)
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of one client thread, kept in memory until the run ends. Span ids
/// come from a counter shared by every log of the run.
class SpanLog {
 public:
  explicit SpanLog(std::atomic<uint64_t>* next_id) : next_id_(next_id) {}

  /// Opens a span and returns its index in this log.
  size_t Begin(uint64_t request_id, uint64_t parent_id, const char* name);
  void End(size_t index) { spans_[index].end_ns = NowNs(); }
  uint64_t IdAt(size_t index) const { return spans_[index].span_id; }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::atomic<uint64_t>* next_id_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; does nothing when `log` is null (untraced requests).
class Span {
 public:
  Span(SpanLog* log, uint64_t request_id, const char* name,
       const Span* parent = nullptr)
      : log_(log) {
    if (log_ == nullptr) return;
    uint64_t parent_id = parent != nullptr && parent->log_ != nullptr
                             ? parent->log_->IdAt(parent->index_)
                             : 0;
    index_ = log_->Begin(request_id, parent_id, name);
  }
  ~Span() {
    if (log_ != nullptr) log_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  size_t index_ = 0;
};

/// Self time of one span name under one root name, summed over a run.
/// Self time is a span's duration minus the durations of its children
/// (children of one span never overlap: each layer call is sequential).
struct LayerRow {
  std::string root;  // "request", "write" or "reopen"
  std::string name;  // the root itself, or a layer span under it
  uint64_t calls = 0;
  double self_ms = 0;
};

struct LayerTable {
  std::vector<LayerRow> rows;
  /// Number of root spans and their summed duration (ms), per root name.
  std::map<std::string, uint64_t> roots;
  std::map<std::string, double> root_ms;

  /// Summed self time of `name` under `root`, in ms (0 when absent).
  double SelfMs(const std::string& root, const std::string& name) const;
  uint64_t Roots(const std::string& root) const;
  double RootMs(const std::string& root) const;
};

LayerTable ComputeLayerTable(const std::vector<SpanRecord>& spans);

/// Aligned text rendering: root/layer, calls, self ms, ms per root, share.
std::string LayerTableText(const LayerTable& table);

/// JSON array of spans (times in microseconds from `epoch_ns`).
std::string SpansJson(const std::vector<SpanRecord>& spans, int64_t epoch_ns);

/// JSON array of the layer rows.
std::string LayerTableJson(const LayerTable& table);

}  // namespace reqbench

#endif  // REQBENCH_SPANS_H_
