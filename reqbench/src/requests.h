#ifndef REQBENCH_REQUESTS_H_
#define REQBENCH_REQUESTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aqua.h"
#include "spans.h"

namespace reqbench {

enum class Workload { kListBatch, kMixedRw };

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Read templates. The four tree templates make up the reads of
/// `mixed_rw`; `kMotifBatch` is `list_batch`.
enum class Template {
  kIndexedSubSelect,  // sub_select rooted at {name == ...}: index-anchorable
  kForestPrune,       // Brazil(!?* USA !?*)-style prune over the family forest
  kLargePrune,        // the same with a USA child: thousands of answers
  kSplitContext,      // split on the Item tree; materializes the context x
  kMotifBatch,        // one ExecuteBatch of kMotifsPerBatch list sub_selects
};
const char* TemplateName(Template t);

/// Fixed data sizes: every seed generates the same amount of data, so runs
/// with different seeds measure the same work.
inline constexpr size_t kFamilies = 48;
inline constexpr size_t kPeoplePerFamily = 3800;
inline constexpr size_t kItemNodes = 16000;
inline constexpr int kItemValRange = 400;
// Song i has kShortestSong + i * kSongLengthStep notes. A motif batch's
// cost grows with its song's length, so list_batch latencies spread over a
// ~5x range and read_p50_ms moves smoothly with the host's speed instead of
// jumping between the fast and slow modes of one request size.
inline constexpr size_t kSongs = 8;
inline constexpr size_t kShortestSong = 2000;
inline constexpr size_t kSongLengthStep = 1600;
inline constexpr size_t kMotifsPerBatch = 8;

/// Canonical fingerprint of a query answer: element count plus an
/// order-insensitive hash of the elements (see oracle.h).
struct Answer {
  size_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Answer& o) const {
    return count == o.count && hash == o.hash;
  }
};

/// One element of a fixed-length list motif: a pitch test, a duration test
/// or any note.
struct MotifAtom {
  enum class Kind { kPitch, kDuration, kAny };
  Kind kind = Kind::kAny;
  std::string pitch;
  int64_t duration = 0;
};

/// One read request with its constants drawn from the seed.
struct ReadRequest {
  Template tmpl = Template::kIndexedSubSelect;
  std::string collection;
  /// Pattern source text, one per plan (kMotifsPerBatch for a motif batch).
  std::vector<std::string> patterns;
  /// Tree constants: (name, citizen) / (parent citizen, child citizen) /
  /// (item label, `val`).
  std::string a, b;
  int64_t val = 0;
  std::vector<std::vector<MotifAtom>> motifs;
  /// Reference answer per plan, filled by the oracle after set-up.
  std::vector<Answer> expected;
};

/// A `mixed_rw` write: set `age` of every person with this citizenship.
struct WriteRequest {
  std::string citizen;
  int64_t age = 0;
};

/// The seeded request pool a run cycles through.
std::vector<ReadRequest> DrawReads(Workload w, uint64_t seed);
/// The k-th write of the writer's sequence.
WriteRequest DrawWrite(uint64_t seed, uint64_t k);

struct SetupTimes {
  double generate_s = 0;
  double index_ms = 0;
};

/// Generates the workload's database through src/workload and builds its
/// indexes.
std::unique_ptr<aqua::Database> BuildDatabase(Workload w, uint64_t seed,
                                              SetupTimes* times);

/// What one read request did. Latency covers parse → lint → optimize →
/// execute; the answers are fingerprinted after the clock stops.
struct ReadOutcome {
  bool ok = false;
  std::string error;
  int64_t latency_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t mem_peak_bytes = 0;
  size_t plans = 0;
  size_t indexed_plans = 0;
  size_t index_candidates = 0;
  size_t indexed_results = 0;
  std::vector<Answer> answers;
};

struct WriteOutcome {
  bool ok = false;
  std::string error;
  int64_t latency_ns = 0;
  /// Persons the apply rewrote (nodes in its result forest).
  size_t nodes = 0;
};

/// A closed-loop client: its own executor and rewriter over a shared
/// database. Every call goes through the library's public entry points.
class Client {
 public:
  Client(aqua::Database* db, size_t threads);

  ReadOutcome Read(const ReadRequest& r, SpanLog* log, uint64_t request_id);
  WriteOutcome Write(const WriteRequest& w, SpanLog* log, uint64_t request_id);

 private:
  aqua::Database* db_;
  aqua::Executor exec_;
  aqua::Rewriter rewriter_;
};

}  // namespace reqbench

#endif  // REQBENCH_REQUESTS_H_
