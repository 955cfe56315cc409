// Closed-loop request benchmark for the AQUA library.
//
//   aqua_reqbench --workload list_batch|mixed_rw --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//
// Generates a seeded database through src/workload, runs the workload's
// client threads in a closed loop for S seconds (each sends its next
// request when the previous one returns), checks every answer against a
// reference computed outside the code under test (oracle.h), then dumps
// and reloads the database. Prints one `metric` line per metric, then one
// JSON object as the last line of stdout. `--trace 0` reports the
// end-to-end metrics; `--trace 1` records spans around each layer call of
// a random half of the requests and reports the per-layer metrics instead
// (see README.md).

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aqua.h"
#include "oracle.h"
#include "requests.h"
#include "spans.h"

extern char** environ;

namespace reqbench {
namespace {

// Set-up is repeated at least kMinRepeats times and until kRepeatSeconds
// have passed (at most kMaxRepeats times); setup_s is the median.
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 24;
constexpr double kRepeatSeconds = 2.5;

// Calls `step` until the repeat rule above is met or it returns false.
template <typename Step>
void Repeat(Step step) {
  const int64_t t0 = NowNs();
  for (int i = 0; i < kMaxRepeats; ++i) {
    if (i >= kMinRepeats &&
        static_cast<double>(NowNs() - t0) / 1e9 >= kRepeatSeconds) {
      return;
    }
    if (!step()) return;
  }
}
// Pool instances per tree template run by the warm-up and by the
// post-reload answer check.
constexpr size_t kWarmupPerTemplate = 3;
constexpr size_t kWarmupWrites = 2;
// glibc gives every thread its own malloc arena by default, and memory
// freed in one arena cannot serve another's allocations. Peak RSS then
// depends on which thread happened to run which morsel: on mixed_rw it
// varied by 30% between runs. A fixed arena cap makes it repeatable.
constexpr int kMallocArenas = 4;

struct Options {
  Workload workload = Workload::kMixedRw;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "reqbench: %s\nusage: aqua_reqbench --workload "
               "list_batch|mixed_rw --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               msg);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(v, &o.workload)) Usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return o;
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Peak RSS is measured over the closed loop only: set-up transients, the
// reference tables and the reopen phase (which holds the database, its dump
// and the reloaded copy at once) would otherwise dominate the figure and
// hide the request path's memory. The loop is cut into windows of
// kRssWindowSeconds; the main thread, idle while the clients run, reads
// the high-water mark at the end of each window and resets it.
// peak_rss_mb is the median window peak, so no single coincidence of large
// requests (or of a write's copy-on-write version with a reader's pinned
// one) decides the figure.
constexpr double kRssWindowSeconds = 2;

// Returns freed heap to the kernel, so that a window's peak counts the
// memory live in it and not the heap an earlier peak left behind, then
// lowers the kernel's high-water mark to the current RSS (Linux
// /proc/self/clear_refs, "5"). False when the kernel refuses; every peak
// then covers the whole process lifetime.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// The high-water mark (VmHWM) since the last ResetPeakRss.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Per-client results, merged after the run.
struct ClientStats {
  explicit ClientStats(std::atomic<uint64_t>* span_ids) : spans(span_ids) {}

  std::vector<double> read_ms;         // untraced reads
  std::vector<double> read_ms_traced;  // traced reads (trace runs only)
  std::vector<double> write_ms;
  std::map<Template, std::vector<double>> by_template;  // all reads
  uint64_t reads = 0, read_failed = 0, writes = 0, write_failed = 0;
  uint64_t plans = 0, indexed_plans = 0, candidates = 0, indexed_results = 0;
  double cpu_ms = 0, cpu_ms_traced = 0;
  uint64_t mem_peak = 0;
  size_t versions_max = 0, retained_max = 0;
  int64_t last_end_ns = 0;
  std::string first_error;
  std::vector<WriteRequest> log;
  SpanLog spans;

  void Error(const std::string& e) {
    if (first_error.empty()) first_error = e;
  }
  // Folds another client's samples and counts into this one (not its write
  // log or spans, which the caller concatenates).
  void Merge(const ClientStats& o) {
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&read_ms, o.read_ms);
    append(&read_ms_traced, o.read_ms_traced);
    append(&write_ms, o.write_ms);
    for (const auto& [t, v] : o.by_template) append(&by_template[t], v);
    reads += o.reads;
    read_failed += o.read_failed;
    writes += o.writes;
    write_failed += o.write_failed;
    plans += o.plans;
    indexed_plans += o.indexed_plans;
    candidates += o.candidates;
    indexed_results += o.indexed_results;
    cpu_ms += o.cpu_ms;
    cpu_ms_traced += o.cpu_ms_traced;
    mem_peak = std::max(mem_peak, o.mem_peak);
    versions_max = std::max(versions_max, o.versions_max);
    retained_max = std::max(retained_max, o.retained_max);
    last_end_ns = std::max(last_end_ns, o.last_end_ns);
    if (!o.first_error.empty()) Error(o.first_error);
  }
  void SampleStore(const aqua::ObjectStore& store) {
    versions_max = std::max(versions_max, store.versions_live());
    retained_max = std::max(retained_max, store.retained_bytes());
  }
};

bool Matches(const ReadOutcome& got, const std::vector<Answer>& want) {
  return got.ok && got.answers == want;
}

// A database and everything the run derived from it at set-up.
struct Instance {
  std::unique_ptr<aqua::Database> db;
  std::vector<WriteRequest> log;  // writes applied so far, in commit order
};

std::vector<size_t> SampleIndices(const std::vector<ReadRequest>& pool) {
  // The first kWarmupPerTemplate pool entries of every tree template; one
  // large prune, whose plan has the forest prune's shape and which costs the
  // most; one motif batch per song, so that the warm-up's cost does not
  // depend on which songs, of different lengths, a seed shuffles first.
  std::map<std::pair<Template, std::string>, size_t> seen;
  std::vector<size_t> out;
  for (size_t i = 0; i < pool.size(); ++i) {
    const ReadRequest& r = pool[i];
    const bool per_song = r.tmpl == Template::kMotifBatch;
    size_t n = per_song || r.tmpl == Template::kLargePrune
                   ? 1
                   : kWarmupPerTemplate;
    if (seen[{r.tmpl, per_song ? r.collection : ""}]++ < n) out.push_back(i);
  }
  return out;
}

// Generate + register + index build + untimed warm-up pass.
Instance SetUp(const Options& opt, const std::vector<ReadRequest>& pool,
               size_t threads, SetupTimes* times) {
  aqua::obs::StatsWarehouse::Global().Reset();
  Instance inst;
  inst.db = BuildDatabase(opt.workload, opt.seed, times);
  Client client(inst.db.get(), threads);
  for (size_t i : SampleIndices(pool)) client.Read(pool[i], nullptr, 0);
  if (opt.workload == Workload::kMixedRw) {
    for (uint64_t k = 0; k < kWarmupWrites; ++k) {
      WriteRequest w = DrawWrite(opt.seed, k);
      if (client.Write(w, nullptr, 0).ok) inst.log.push_back(w);
    }
  }
  return inst;
}

// DumpDatabase + LoadDatabase (which rebuilds the indexes) of the final
// database, timed.
struct Reopen {
  std::unique_ptr<aqua::Database> db;  // null when the reload failed
  aqua::Status error;
  double dump_ms = 0, load_ms = 0, total_s = 0;
  size_t dump_bytes = 0;
};

Reopen DumpAndReload(const aqua::Database& db, SpanLog* log) {
  const uint64_t id = 2000000000ull;
  Reopen out;
  Span span(log, id, "reopen");
  int64_t t0 = NowNs();
  aqua::Result<std::string> dump = [&] {
    Span s(log, id, "dump", &span);
    return aqua::DumpDatabase(db);
  }();
  int64_t t1 = NowNs();
  auto restored = std::make_unique<aqua::Database>();
  out.error = [&] {
    Span s(log, id, "load", &span);
    return dump.ok() ? aqua::LoadDatabase(*dump, restored.get())
                     : dump.status();
  }();
  int64_t t2 = NowNs();
  if (!out.error.ok()) return out;
  out.db = std::move(restored);
  out.dump_bytes = dump->size();
  out.dump_ms = static_cast<double>(t1 - t0) / 1e6;
  out.load_ms = static_cast<double>(t2 - t1) / 1e6;
  out.total_s = static_cast<double>(t2 - t0) / 1e9;
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    out += (i == 0 ? "" : ", ") + JsonString(ms[i].name) + ": {\"value\": " +
           buf + ", \"unit\": " + JsonString(ms[i].unit) + "}";
  }
  return out + "}";
}

int Run(const Options& opt) {
  // Run hygiene: learned optimizer state and slow-query logs must not leak
  // in from a previous run.
  unsetenv("AQUA_STATS_FILE");
  unsetenv("AQUA_SLOW_QUERY_LOG");
  mallopt(M_ARENA_MAX, kMallocArenas);

  const size_t nproc = Nproc();
  const bool list = opt.workload == Workload::kListBatch;
  const bool mixed = opt.workload == Workload::kMixedRw;
  // Tree requests fan out over the forest on two executor threads; a motif
  // batch scans one song, so list clients run one executor thread each and
  // leave two CPUs to the rest of the system, whose work would otherwise
  // stall a client mid-request. list_batch: 2 clients x 1, mixed_rw:
  // 1 reader plus the writer, x 2.
  const size_t threads = list ? 1 : 2;
  const size_t clients = 2;
  if (clients * threads > nproc) {
    std::fprintf(stderr,
                 "reqbench: refusing %zu clients x %zu executor threads on "
                 "%zu CPUs\n",
                 clients, threads, nproc);
    return 2;
  }
  // The shared helper pool gets AQUA_THREADS - 1 workers: enough for every
  // client's fan-out to find its helpers, never more than the CPU budget.
  setenv("AQUA_THREADS", std::to_string(clients * threads).c_str(), 1);
  const size_t writers = mixed ? 1 : 0;
  const size_t readers = clients - writers;

  std::printf("# reqbench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(opt.workload),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::string env_json = "{";
  std::string env_text;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AQUA_", 5) != 0) continue;
    std::string kv = *e;
    size_t eq = kv.find('=');
    if (env_json.size() > 1) env_json += ",";
    env_json += JsonString(kv.substr(0, eq));
    env_json += ":";
    env_json += JsonString(kv.substr(eq + 1));
    env_text += " ";
    env_text += kv;
  }
  env_json += "}";
  std::printf(
      "# env nproc=%zu loadavg=%.2f,%.2f,%.2f build_type=%s clients=%zu "
      "(readers=%zu writers=%zu) executor_threads=%zu malloc_arenas=%d%s\n",
      nproc, load[0], load[1], load[2], REQBENCH_BUILD_TYPE, clients, readers,
      writers, threads, kMallocArenas, env_text.c_str());
  std::fflush(stdout);

  std::vector<ReadRequest> pool = DrawReads(opt.workload, opt.seed);

  // ---- set-up, repeated; the last instance is the one measured.
  std::vector<double> setup_s, generate_s, index_ms;
  Instance inst;
  Repeat([&] {
    inst = Instance{};  // free the previous database first
    SetupTimes times;
    int64_t t0 = NowNs();
    inst = SetUp(opt, pool, threads, &times);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    generate_s.push_back(times.generate_s);
    index_ms.push_back(times.index_ms);
    return true;
  });
  aqua::Database& db = *inst.db;

  // ---- reference answers (outside set-up and every timed interval).
  Oracle oracle(db);
  for (ReadRequest& r : pool) {
    for (size_t p = 0; p < r.patterns.size(); ++p) {
      r.expected.push_back(oracle.Expect(r, p));
    }
  }
  // Self-check of the verifier: each template's first request must match
  // its reference and must fail against a perturbed one.
  bool selfcheck = true;
  {
    Client client(&db, threads);
    std::map<Template, bool> done;
    for (const ReadRequest& r : pool) {
      if (done[r.tmpl]) continue;
      done[r.tmpl] = true;
      ReadOutcome got = client.Read(r, nullptr, 0);
      std::vector<Answer> bad_hash = r.expected, bad_count = r.expected;
      bad_hash[0].hash ^= 1;
      bad_count[0].count += 1;
      if (!Matches(got, r.expected) || Matches(got, bad_hash) ||
          Matches(got, bad_count)) {
        std::fprintf(stderr, "reqbench: verifier self-check failed on %s%s%s\n",
                     TemplateName(r.tmpl), got.ok ? "" : ": ",
                     got.error.c_str());
        selfcheck = false;
      }
    }
  }
  oracle.DropReadTables();
  const bool rss_reset = ResetPeakRss();
  const double start_rss_mb = PeakRssMb();

  // ---- the closed-loop run.
  std::atomic<uint64_t> span_ids{1};
  std::vector<std::unique_ptr<ClientStats>> stats;
  for (size_t c = 0; c < clients; ++c) {
    stats.push_back(std::make_unique<ClientStats>(&span_ids));
  }
  std::atomic<uint64_t> next_read{0};
  std::atomic<uint64_t> next_write{kWarmupWrites};
  std::atomic<bool> go{false};
  int64_t start_ns = 0, deadline_ns = 0;
  const uint64_t trace_salt = opt.seed * 0x9e3779b97f4a7c15ull + 1;
  auto traced = [&](uint64_t k) {
    if (!opt.trace) return false;
    uint64_t h = (k + trace_salt) * 0xbf58476d1ce4e5b9ull;
    return ((h ^ (h >> 29)) >> 7 & 1) != 0;
  };

  aqua::obs::Snapshot before = aqua::obs::Registry::Global().Snap();
  const uint64_t cow_before = db.store().cow_copies();
  std::vector<std::thread> workers;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      ClientStats& st = *stats[c];
      Client client(&db, threads);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const bool is_writer = c >= readers;
      while (NowNs() < deadline_ns) {
        if (is_writer) {
          uint64_t k = next_write.fetch_add(1);
          WriteRequest w = DrawWrite(opt.seed, k);
          WriteOutcome out = client.Write(w, opt.trace ? &st.spans : nullptr,
                                          1000000000ull + k);
          st.writes += 1;
          st.write_ms.push_back(static_cast<double>(out.latency_ns) / 1e6);
          if (out.ok && out.nodes == oracle.CitizenCount(w.citizen)) {
            st.log.push_back(w);
          } else {
            st.write_failed += 1;
            st.Error(out.ok ? "write returned a wrong node count" : out.error);
            if (out.ok) st.log.push_back(w);
          }
        } else {
          uint64_t k = next_read.fetch_add(1);
          const ReadRequest& r = pool[k % pool.size()];
          bool t = traced(k);
          ReadOutcome out = client.Read(r, t ? &st.spans : nullptr, k);
          double ms = static_cast<double>(out.latency_ns) / 1e6;
          (t ? st.read_ms_traced : st.read_ms).push_back(ms);
          st.by_template[r.tmpl].push_back(ms);
          st.reads += 1;
          st.plans += out.plans;
          st.indexed_plans += out.indexed_plans;
          st.candidates += out.index_candidates;
          st.indexed_results += out.indexed_results;
          double cpu = static_cast<double>(out.cpu_ns) / 1e6;
          st.cpu_ms += cpu;
          if (t) st.cpu_ms_traced += cpu;
          st.mem_peak = std::max<uint64_t>(st.mem_peak, out.mem_peak_bytes);
          if (!Matches(out, r.expected)) {
            st.read_failed += 1;
            st.Error(out.ok ? std::string("wrong answer for ") +
                                  TemplateName(r.tmpl) + " " + r.patterns[0]
                            : out.error);
          }
        }
        st.SampleStore(db.store());
        st.last_end_ns = NowNs();
      }
    });
  }
  start_ns = NowNs();
  deadline_ns = start_ns + static_cast<int64_t>(opt.seconds * 1e9);
  go.store(true, std::memory_order_release);
  // Peak RSS per window; the last window ends when the clients have joined.
  std::vector<double> rss_peaks;
  const int64_t window_ns = static_cast<int64_t>(kRssWindowSeconds * 1e9);
  for (int64_t t = start_ns + window_ns; t < deadline_ns; t += window_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t - NowNs()));
    rss_peaks.push_back(PeakRssMb());
    ResetPeakRss();
  }
  for (std::thread& w : workers) w.join();
  rss_peaks.push_back(PeakRssMb());
  const double peak_rss_mb = Median(rss_peaks);
  aqua::obs::Snapshot delta =
      aqua::obs::Registry::Global().Snap().DeltaSince(before);
  const uint64_t cow_copies = db.store().cow_copies() - cow_before;

  // ---- merge.
  ClientStats all(&span_ids);
  std::vector<SpanRecord> spans;
  for (auto& st : stats) {
    all.Merge(*st);
    inst.log.insert(inst.log.end(), st->log.begin(), st->log.end());
    spans.insert(spans.end(), st->spans.spans().begin(),
                 st->spans.spans().end());
  }
  const int64_t end_ns = std::max(start_ns, all.last_end_ns);
  const double elapsed_s = static_cast<double>(end_ns - start_ns) / 1e9;

  // ---- durability: the writer's log, then dump + reload.
  uint64_t checks = 0, checks_failed = 0;
  auto check = [&](bool ok, const std::string& what) {
    checks += 1;
    if (!ok) {
      checks_failed += 1;
      all.Error("check failed: " + what);
    }
  };
  if (mixed) check(oracle.AgeMismatches(db, inst.log) == 0, "ages vs write log");
  SpanLog reopen_log(&span_ids);
  Reopen reopen = DumpAndReload(db, opt.trace ? &reopen_log : nullptr);
  const std::unique_ptr<aqua::Database>& restored = reopen.db;
  if (!reopen.error.ok()) check(false, "reopen: " + reopen.error.ToString());
  if (restored != nullptr) {
    check(restored->store().num_objects() == db.store().num_objects(),
          "object count after reload");
    if (mixed) {
      check(oracle.AgeMismatches(*restored, inst.log) == 0,
            "ages after reload");
    }
    Client client(restored.get(), threads);
    for (size_t i : SampleIndices(pool)) {
      check(Matches(client.Read(pool[i], nullptr, 0), pool[i].expected),
            std::string("reloaded answer for ") + TemplateName(pool[i].tmpl));
    }
  }
  spans.insert(spans.end(), reopen_log.spans().begin(),
               reopen_log.spans().end());

  // ---- report.
  const uint64_t attempted = all.reads + all.writes + checks;
  const uint64_t failed = all.read_failed + all.write_failed + checks_failed;
  const bool correct = selfcheck && failed == 0;
  auto d = [&](const char* name) {
    return static_cast<double>(delta.CounterValue(name));
  };
  const double reads = static_cast<double>(all.reads);

  std::vector<Metric> e2e = {
      {"read_p50_ms", Quantile(all.read_ms, 0.50), "ms"},
      {"read_p95_ms", Quantile(all.read_ms, 0.95), "ms"},
      {"reads_per_s", Ratio(reads, elapsed_s), "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  // Reported by name, but not gated: the write metrics exist on mixed_rw
  // only, fail_frac is 0 on a correct run (its gate is `failed`), and
  // reopen_s, about a second of single-threaded work, spread by over 0.3
  // between runs on a 4-vCPU VM whose per-CPU speed drifts.
  std::vector<Metric> report_only = {
      {"reopen_s", reopen.total_s, "s"},
      {"write_p50_ms", Quantile(all.write_ms, 0.50), "ms"},
      {"write_p95_ms", Quantile(all.write_ms, 0.95), "ms"},
      {"writes_per_s", Ratio(static_cast<double>(all.writes), elapsed_s), "1/s"},
      {"fail_frac", Ratio(static_cast<double>(failed),
                          static_cast<double>(attempted)), "ratio"},
  };

  LayerTable layers = ComputeLayerTable(spans);
  const double rt = static_cast<double>(layers.Roots("request"));
  auto per_req = [&](const char* span) {
    return Ratio(layers.SelfMs("request", span), rt);
  };
  const double traced_p50 = Quantile(all.read_ms_traced, 0.5);
  const double untraced_p50 = Quantile(all.read_ms, 0.5);
  std::vector<Metric> layer = {
      {"pattern.parse_us", 1000.0 * per_req("parse"), "us"},
      {"pattern.tree_steps_per_req", Ratio(d("pattern.tree_steps"), reads), "count"},
      {"pattern.tree_memo_hits_per_call",
       Ratio(d("pattern.tree_memo_hits"), d("pattern.tree_match_calls")), "count"},
      {"pattern.list_steps_per_req", Ratio(d("pattern.list_steps"), reads), "count"},
      {"pattern.nfa_prefilter_reject_ratio",
       Ratio(d("pattern.nfa_prefilter_rejects"), static_cast<double>(all.plans)),
       "ratio"},
      {"pattern.dfa_hit_ratio",
       Ratio(d("pattern.dfa_hits"), d("pattern.dfa_hits") + d("pattern.dfa_misses")),
       "ratio"},
      {"pattern.alphabet_preds_per_req", Ratio(d("pattern.alphabet_preds"), reads),
       "count"},
      {"lint.plan_ms", per_req("lint"), "ms"},
      {"query.optimize_ms", per_req("optimize"), "ms"},
      {"query.indexed_plan_ratio",
       Ratio(static_cast<double>(all.indexed_plans), static_cast<double>(all.plans)),
       "ratio"},
      {"cost.learned_hit_ratio",
       Ratio(d("cost.learned_hits"), d("cost.learned_hits") + d("cost.learned_misses")),
       "ratio"},
      {"exec.execute_ms", per_req("execute"), "ms"},
      {"exec.cpu_ms", Ratio(all.cpu_ms, reads), "ms"},
      {"exec.cpu_per_wall",
       Ratio(all.cpu_ms_traced, layers.SelfMs("request", "execute")), "ratio"},
      {"exec.mem_peak_mb", static_cast<double>(all.mem_peak) / 1048576.0, "MB"},
      {"exec.batched_ratio",
       Ratio(d("exec.batched_patterns"), static_cast<double>(all.plans)), "ratio"},
      {"exec.batch_scan_rows_per_req", Ratio(d("exec.batch_scan_rows"), reads),
       "count"},
      {"exec.tasks_run_per_req", Ratio(d("exec.tasks_run"), reads), "count"},
      {"exec.steal_count", d("exec.steal_count"), "count"},
      {"index.probes_per_req", Ratio(d("index.probes"), reads), "count"},
      {"index.candidates_per_probe",
       Ratio(d("index.candidates"), d("index.probes")), "count"},
      {"index.useful_ratio",
       Ratio(static_cast<double>(all.indexed_results),
             static_cast<double>(all.candidates)),
       "ratio"},
      {"index.build_ms", Median(index_ms), "ms"},
      {"workload.generate_s", Median(generate_s), "s"},
      {"algebra.structural_nodes_visited_per_req",
       Ratio(d("algebra.structural_nodes_visited"), reads), "count"},
      {"object.cow_copies_per_write",
       Ratio(static_cast<double>(cow_copies), static_cast<double>(all.writes)),
       "count"},
      {"object.versions_live_max", static_cast<double>(all.versions_max), "count"},
      {"object.retained_mb_max", static_cast<double>(all.retained_max) / 1048576.0,
       "MB"},
      {"storage.dump_ms", reopen.dump_ms, "ms"},
      {"storage.load_ms", reopen.load_ms, "ms"},
      {"storage.dump_bytes_per_object",
       Ratio(static_cast<double>(reopen.dump_bytes),
             static_cast<double>(db.store().num_objects())),
       "bytes"},
      {"obs.stats_evictions", d("stats.evictions"), "count"},
      {"trace.request_ms", Ratio(layers.RootMs("request"), rt), "ms"},
      {"trace.request_self_ms", per_req("request"), "ms"},
      {"trace.layer_coverage",
       1.0 - Ratio(layers.SelfMs("request", "request"), layers.RootMs("request")),
       "ratio"},
      {"trace.overhead_ratio", Ratio(traced_p50, untraced_p50) - 1.0, "ratio"},
  };
  // Per-template medians over every read: a change to one template's cost
  // (the large prune's answer-size-squared set dedup, say) shows here even
  // where it moves the whole mix's percentiles little.
  for (Template t : {Template::kIndexedSubSelect, Template::kForestPrune,
                     Template::kLargePrune, Template::kSplitContext,
                     Template::kMotifBatch}) {
    auto it = all.by_template.find(t);
    layer.push_back({std::string("template.") + TemplateName(t) + "_p50_ms",
                     it == all.by_template.end() ? 0 : Median(it->second),
                     "ms"});
  }

  std::printf("# samples reads=%llu (traced=%zu) writes=%llu checks=%llu "
              "elapsed_s=%.3f\n",
              static_cast<unsigned long long>(all.reads),
              all.read_ms_traced.size(),
              static_cast<unsigned long long>(all.writes),
              static_cast<unsigned long long>(checks), elapsed_s);
  std::printf("# peak_rss_mb: median of %zu window peaks over %s; %.1f MB "
              "at the loop's start; window peaks:",
              rss_peaks.size(),
              rss_reset ? "the closed loop"
                        : "the whole process (clear_refs refused)",
              start_rss_mb);
  for (double v : rss_peaks) std::printf(" %.1f", v);
  std::printf("\n");
  for (const auto& [t, v] : all.by_template) {
    std::printf("# template %-20s n=%zu p50_ms=%.3f p95_ms=%.3f\n",
                TemplateName(t), v.size(), Quantile(v, 0.5), Quantile(v, 0.95));
  }
  std::printf("# setup_s samples:");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\n");
  if (!all.first_error.empty()) {
    std::printf("# first error: %s\n", all.first_error.c_str());
  }
  const std::vector<Metric>& gated = opt.trace ? layer : e2e;
  if (!opt.trace) {
    for (const Metric& m : e2e) {
      std::printf("metric %-40s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const Metric& m : report_only) {
    std::printf("metric %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (opt.trace) {
    for (const Metric& m : layer) {
      std::printf("layer  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("# span self times (traced reads=%.0f)\n%s", rt,
                LayerTableText(layers).c_str());
    if (!opt.trace_out.empty()) {
      std::ofstream f(opt.trace_out);
      f << "{\"workload\": " << JsonString(WorkloadName(opt.workload))
        << ",\n\"seed\": " << opt.seed << ",\n\"nproc\": " << nproc
        << ",\n\"clients\": " << clients << ",\n\"executor_threads\": "
        << threads << ",\n\"build_type\": " << JsonString(REQBENCH_BUILD_TYPE)
        << ",\n\"env\": " << env_json
        << ",\n\"layer_metrics\": " << MetricsJson(layer)
        << ",\n\"report_metrics\": " << MetricsJson(report_only)
        << ",\n\"layers\": " << LayerTableJson(layers)
        << ",\n\"counters\": " << delta.ToJson()
        << ",\n\"spans\": " << SpansJson(spans, start_ns) << "}\n";
      if (!f) {
        std::fprintf(stderr, "reqbench: cannot write %s\n",
                     opt.trace_out.c_str());
        return 1;
      }
      std::printf("# trace written to %s\n", opt.trace_out.c_str());
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricsJson(gated).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace reqbench

int main(int argc, char** argv) {
  return reqbench::Run(reqbench::ParseArgs(argc, argv));
}
