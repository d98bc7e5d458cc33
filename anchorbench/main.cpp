// anchorbench — the repository benchmark. Runs one workload against an
// in-process AnchordServer over AF_UNIX socketpair conduits, checks every
// verdict against a direct ChainVerifier, and prints its metrics by name
// and unit; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. README.md in this
// directory defines the workloads and every metric.
//
//   anchorbench --workload warm_rpc|cold_batch|feed_churn --seed N
//               --seconds S --trace 0|1 [--work-dir DIR] [--commit SHA]
//               [--corrupt-oracle] [--calibrate]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs half the time untraced and half traced (decorators and
// spans on), then replays a sample of the requests through the layers'
// public functions one at a time, and prints the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "anchord/wire.hpp"
#include "harness.hpp"
#include "loadgen.hpp"
#include "net/transport.hpp"
#include "rootstore/snapshot/view.hpp"

namespace anchorbench {
namespace {

using namespace anchor;

constexpr int kSetups = 15;
constexpr double kWarmupSeconds = 0.5;
constexpr std::size_t kSubRuns = 4;
constexpr std::size_t kWindowRequests = 250;
constexpr std::size_t kAdoptProbes = 16;  // idle adoptions, over all slices

struct Args {
  Workload workload = Workload::kWarmRpc;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_oracle = false;
  bool calibrate = false;
  std::string work_dir = ".bench_build/anchorbench-work";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--workload" && value(v)) {
      auto w = parse_workload(v);
      if (!w) return false;
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed" && value(v)) {
      args.seed = std::stoull(v);
    } else if (flag == "--seconds" && value(v)) {
      args.seconds = std::stod(v);
    } else if (flag == "--trace" && value(v)) {
      args.trace = v == "1";
    } else if (flag == "--work-dir" && value(v)) {
      args.work_dir = v;
    } else if (flag == "--commit" && value(v)) {
      args.commit = v;
    } else if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
    } else if (flag == "--calibrate") {
      args.calibrate = true;
    } else {
      return false;
    }
  }
  return have_workload && args.seconds > 0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double delta_of(const metrics::Snapshot& delta, const std::string& key) {
  auto it = delta.find(key);
  return it == delta.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// --- host record ------------------------------------------------------------

std::size_t src_lines() {
  std::size_t lines = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator("src", ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    const auto ext = it->path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    std::ifstream in(it->path());
    lines += static_cast<std::size_t>(
        std::count(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>(), '\n'));
  }
  return lines;
}

std::string host_record(const Args& args) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << json_escape(__VERSION__)
      << "\", \"build_type\": \"" << ANCHORBENCH_BUILD_TYPE
      << "\", \"commit\": \"" << json_escape(args.commit)
      << "\", \"src_lines\": " << src_lines() << ", \"workload\": \""
      << workload_name(args.workload) << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << fmt(args.seconds) << ", \"trace\": "
      << (args.trace ? 1 : 0) << "}";
  return out.str();
}

// --- the oracle ---------------------------------------------------------------

bool is_serving_failure(std::uint8_t kind) {
  const auto k = static_cast<chain::ErrorKind>(kind);
  return k == chain::ErrorKind::kOverloaded || k == chain::ErrorKind::kTimeout ||
         k == chain::ErrorKind::kUnavailable ||
         k == chain::ErrorKind::kMalformedRequest ||
         k == chain::ErrorKind::kInternal;
}

// Recomputes verdicts with a direct ChainVerifier over the store each
// epoch served. Memoised per (store, leaf), where a store is named by its
// content digest: every chain appears in exactly one request frame, so
// the pool the daemon built is known from the leaf, and slices whose
// daemons served identical stores share one recomputation.
class Oracle {
 public:
  struct Verdict {
    std::uint8_t kind = 0;
    bool ok = false;
    std::uint32_t chain_len = 0;
    std::uint64_t chain_hash = 0;
  };

  Oracle(const Inputs& inputs, bool corrupt) : inputs_(inputs), corrupt_(corrupt) {}

  // The epoch → store map of the daemon whose outcomes are checked next.
  void use(std::map<std::uint64_t, std::shared_ptr<const rootstore::StoreReader>>
               stores) {
    epochs_.clear();
    for (auto& [epoch, store] : stores) {
      std::string digest;
      if (auto* view = dynamic_cast<const rootstore::snapshot::StoreView*>(store.get())) {
        digest = view->info().digest_hex;
      } else {
        digest = dynamic_cast<const rootstore::RootStore&>(*store).content_hash_hex();
      }
      digest += "@" + std::to_string(epoch);
      auto& verifier = verifiers_[digest];
      if (!verifier.second) {
        verifier.first = store;  // keeps the store alive for the verifier
        verifier.second = std::make_unique<chain::ChainVerifier>(
            *store, inputs_.corpus.signatures());
      }
      epochs_[epoch] = digest;
    }
  }

  // nullopt when no store is known for `epoch` (itself a mismatch).
  std::optional<Verdict> expect(std::uint64_t epoch, const RequestFrame& frame,
                                std::size_t entry) {
    auto digest = epochs_.find(epoch);
    if (digest == epochs_.end()) return std::nullopt;
    const std::size_t leaf = frame.leaves[entry];
    const auto key = std::make_pair(digest->second, leaf);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    const auto& corpus = inputs_.corpus;
    chain::CertificatePool pool;
    std::set<int> issuers;
    for (std::size_t l : frame.leaves) {
      const int issuer = corpus.leaves()[l].issuer_intermediate;
      if (issuers.insert(issuer).second) {
        pool.add(corpus.intermediates()[static_cast<std::size_t>(issuer)].cert);
      }
    }
    chain::VerifyOptions options;
    options.time = frame.time;
    options.hostname = corpus.leaves()[leaf].domain;
    const chain::VerifyResult result = verifiers_[digest->second].second->verify(
        corpus.leaves()[leaf].cert, pool, options);
    Verdict v;
    v.kind = static_cast<std::uint8_t>(result.kind);
    v.ok = result.ok;
    v.chain_len = static_cast<std::uint32_t>(result.chain.size());
    if (result.ok) {
      std::vector<Bytes> ders;
      for (const auto& cert : result.chain) ders.push_back(cert->der());
      v.chain_hash = chain_hash(ders);
    }
    // Self-test: one deliberately wrong expectation must fail the run.
    if (corrupt_ && memo_.empty()) v.kind ^= 1;
    memo_.emplace(key, v);
    return v;
  }

  std::size_t distinct() const { return memo_.size(); }

 private:
  const Inputs& inputs_;
  bool corrupt_;
  std::map<std::uint64_t, std::string> epochs_;
  std::map<std::string, std::pair<std::shared_ptr<const rootstore::StoreReader>,
                                  std::unique_ptr<chain::ChainVerifier>>>
      verifiers_;
  std::map<std::pair<std::string, std::size_t>, Verdict> memo_;
};

struct Check {
  std::uint64_t attempted = 0;      // verdicts asked for
  std::uint64_t failed = 0;         // not answered, refused, or wrong
  std::uint64_t mismatches = 0;     // answered, and wrong
  std::uint64_t serving_failures = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t epoch_skew = 0;     // see check_outcomes
  std::uint64_t rejected = 0;       // correct non-ok verdicts
  std::array<std::uint64_t, chain::kErrorKindCount> kinds{};  // of rejections

  void add(const Check& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
    serving_failures += o.serving_failures;
    unanswered += o.unanswered;
    epoch_skew += o.epoch_skew;
    rejected += o.rejected;
    for (std::size_t k = 0; k < kinds.size(); ++k) kinds[k] += o.kinds[k];
  }
};

// Compares every answered verdict with the oracle's. A single verify's
// stats.epoch is read after the verdict was computed, so a verdict racing
// an adoption may carry the new epoch while having run on the old store:
// such a verdict is accepted (and counted as epoch_skew) only when it
// matches the predecessor store and the request was sent before that
// adoption completed, i.e. both stores were live while it was in flight.
Check check_outcomes(const Inputs& inputs, const std::vector<Outcome>& outcomes,
                     Oracle& oracle, const std::vector<Adoption>& adoptions) {
  Check c;
  auto same = [](const Oracle::Verdict& want, std::uint8_t kind, bool ok,
                 std::uint32_t len, std::uint64_t hash) {
    return want.kind == kind && want.ok == ok && want.chain_len == len &&
           want.chain_hash == hash;
  };
  for (const Outcome& out : outcomes) {
    const RequestFrame& frame = inputs.requests[out.request];
    const std::size_t n = frame.leaves.size();
    c.attempted += n;
    if (out.done_ns == 0) {
      c.unanswered += n;
      c.failed += n;
      continue;
    }
    if (!frame.batch) {
      if (is_serving_failure(out.kind)) {
        ++c.serving_failures;
        ++c.failed;
        continue;
      }
      auto want = oracle.expect(out.epoch, frame, 0);
      bool good = want && same(*want, out.kind, out.ok, out.chain_len,
                               out.chain_hash);
      if (!good) {
        for (const Adoption& a : adoptions) {
          if (a.epoch_after != out.epoch || out.send_ns > a.end_ns) continue;
          auto prev = oracle.expect(a.epoch_before, frame, 0);
          if (prev && same(*prev, out.kind, out.ok, out.chain_len,
                           out.chain_hash)) {
            good = true;
            ++c.epoch_skew;
          }
        }
      }
      if (!good) {
        ++c.mismatches;
        ++c.failed;
      } else if (!out.ok) {
        ++c.rejected;
        ++c.kinds[out.kind % chain::kErrorKindCount];
      }
      continue;
    }
    if (out.entries.size() != n) {
      if (is_serving_failure(out.kind)) {
        c.serving_failures += n;
      } else {
        c.mismatches += n;
      }
      c.failed += n;
      continue;
    }
    for (std::size_t e = 0; e < n; ++e) {
      const EntryVerdict& got = out.entries[e];
      auto want = oracle.expect(out.epoch, frame, e);
      if (!want || want->kind != got.kind || want->ok != got.ok ||
          want->chain_len != got.chain_len) {
        ++c.mismatches;
        ++c.failed;
      } else if (!got.ok) {
        ++c.rejected;
        ++c.kinds[got.kind % chain::kErrorKindCount];
      }
    }
  }
  return c;
}

// --- running load -------------------------------------------------------------

struct Segment {
  std::vector<Outcome> outcomes;
  std::uint64_t transport_errors = 0;
  std::vector<std::uint64_t> publish_ns;  // Feed::publish start, per update
  std::int64_t queue_depth_max = 0;
};

// Runs the workload's load for `seconds` on `daemon`: slice `slice` of the
// open-loop schedule, or the closed-loop cycle from the slice's start.
// feed_churn also publishes the feed updates about once a second.
Segment run_load(Daemon& daemon, const Inputs& inputs, double seconds,
                 bool publish, std::size_t slice = 0) {
  Segment seg;
  const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t from = limit * slice;
  const std::uint64_t start = now_ns() + 20'000'000ULL;
  const std::uint64_t end = start + limit;
  std::vector<ConnectionRun> runs(kConnections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    const std::uint64_t id_base = (std::uint64_t{c} + 1) << 40;
    if (inputs.workload == Workload::kColdBatch) {
      threads.emplace_back([&, c, id_base] {
        const std::size_t first =
            (slice % kSubRuns) * inputs.cycle[c].size() / kSubRuns;
        runs[c] = run_closed_loop(daemon.client_end(c), inputs, inputs.cycle[c],
                                  first, kFramesInFlight, end, id_base);
      });
    } else {
      std::vector<std::pair<std::uint64_t, std::uint32_t>> schedule;
      for (const auto& item : inputs.schedule[c]) {
        if (item.first >= from && item.first - from < limit) {
          schedule.emplace_back(item.first - from, item.second);
        }
      }
      threads.emplace_back([&, c, id_base, schedule = std::move(schedule)] {
        runs[c] = run_open_loop(daemon.client_end(c), inputs, schedule,
                                start, end + 5'000'000'000ULL, id_base);
      });
    }
  }
  // The main thread publishes feed updates and samples the daemon's queue
  // depth gauge; it does no other work while the load runs.
  metrics::Gauge& queue_depth =
      daemon.registry().gauge("anchor_anchord_queue_depth");
  std::size_t next_update = 0;
  const std::size_t updates = publish ? inputs.timed_updates : 0;
  while (now_ns() < end) {
    const std::uint64_t now = now_ns();
    seg.queue_depth_max = std::max(seg.queue_depth_max, queue_depth.value());
    if (next_update < updates) {
      const auto due = start + static_cast<std::uint64_t>(
                                          (static_cast<double>(next_update) + 0.5) *
                                          kPublishPeriodS * 1e9);
      if (due < end && now >= due) {
        seg.publish_ns.push_back(daemon.publish(next_update));
        ++next_update;
        continue;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (auto& t : threads) t.join();
  for (auto& run : runs) {
    seg.transport_errors += run.transport_errors;
    seg.outcomes.insert(seg.outcomes.end(),
                        std::make_move_iterator(run.outcomes.begin()),
                        std::make_move_iterator(run.outcomes.end()));
  }
  daemon.wait_feed_idle();
  return seg;
}

std::vector<double> latencies_us(const Segment& seg) {
  std::vector<double> out;
  out.reserve(seg.outcomes.size());
  for (const Outcome& o : seg.outcomes) {
    if (o.done_ns != 0) out.push_back(static_cast<double>(o.done_ns - o.due_ns) * 1e-3);
  }
  return out;
}

// The end-to-end latency and throughput figures come from consecutive
// windows of at least 1 s and kWindowRequests answered requests (in
// order of when they were due). Other tenants of a shared host only ever
// slow a window down, in bursts that can cover a good part of a run, so
// a run reports its better-quartile window: the lower quartile of the
// windows' latency percentiles and the upper quartile of their throughput.
struct Windows {
  std::vector<double> p50_us, p95_us, p99_us, leaves_per_s;
  std::size_t samples = 0;

  void add(const Windows& other) {
    p50_us.insert(p50_us.end(), other.p50_us.begin(), other.p50_us.end());
    p95_us.insert(p95_us.end(), other.p95_us.begin(), other.p95_us.end());
    p99_us.insert(p99_us.end(), other.p99_us.begin(), other.p99_us.end());
    leaves_per_s.insert(leaves_per_s.end(), other.leaves_per_s.begin(),
                        other.leaves_per_s.end());
    samples += other.samples;
  }
};

Windows windowed(const Inputs& inputs, const Segment& seg) {
  std::vector<const Outcome*> done;
  for (const Outcome& o : seg.outcomes) {
    if (o.done_ns != 0) done.push_back(&o);
  }
  std::sort(done.begin(), done.end(), [](const Outcome* a, const Outcome* b) {
    return a->due_ns < b->due_ns;
  });
  Windows w;
  w.samples = done.size();
  std::vector<double> lat;
  std::uint64_t leaves = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < done.size(); ++i) {
    lat.push_back(static_cast<double>(done[i]->done_ns - done[i]->due_ns) * 1e-3);
    leaves += inputs.requests[done[i]->request].leaves.size();
    const std::uint64_t span = done[i]->due_ns - done[first]->due_ns;
    const bool last = i + 1 == done.size();
    if ((span >= 1'000'000'000ULL && lat.size() >= kWindowRequests) ||
        (last && w.p50_us.empty())) {
      w.p50_us.push_back(quantile(lat, 0.5));
      w.p95_us.push_back(quantile(lat, 0.95));
      w.p99_us.push_back(quantile(lat, 0.99));
      w.leaves_per_s.push_back(
          span > 0 ? static_cast<double>(leaves) / (static_cast<double>(span) * 1e-9) : 0);
      lat.clear();
      leaves = 0;
      first = i + 1;
    }
  }
  return w;
}

std::uint64_t leaves_done(const Inputs& inputs, const Segment& seg) {
  std::uint64_t n = 0;
  for (const Outcome& o : seg.outcomes) {
    if (o.done_ns != 0) n += inputs.requests[o.request].leaves.size();
  }
  return n;
}

// feed_churn: per publication, publish start → first response carrying the
// epoch that adoption published.
std::vector<double> adopt_from_load(const Segment& seg,
                                    const std::vector<Adoption>& adoptions) {
  std::vector<double> out;
  for (std::uint64_t published : seg.publish_ns) {
    const Adoption* adoption = nullptr;
    for (const Adoption& a : adoptions) {
      if (a.begin_ns >= published) {
        adoption = &a;
        break;
      }
    }
    if (adoption == nullptr) continue;
    std::uint64_t first = 0;
    for (const Outcome& o : seg.outcomes) {
      if (o.done_ns > published && o.epoch >= adoption->epoch_after &&
          (first == 0 || o.done_ns < first)) {
        first = o.done_ns;
      }
    }
    if (first != 0) out.push_back(static_cast<double>(first - published) * 1e-6);
  }
  return out;
}

anchord::Request probe_request(const Inputs& inputs) {
  const Bytes& frame = inputs.probe.frame;
  auto decoded = anchord::decode_request(
      net::MsgType::kRequest, BytesView(frame).subspan(kCorrelationOffset));
  if (!decoded) throw std::runtime_error("probe frame: " + decoded.error());
  return std::move(decoded).take();
}

// Idle adoption: publish, then ask for the probe chain back to back until
// a verdict carries the new epoch. Used by the workloads that do not
// publish under load.
std::vector<double> adopt_probes(Daemon& daemon, const Inputs& inputs,
                                 std::size_t count) {
  std::vector<double> out;
  anchord::AnchordClient client(daemon.client_end(0), 30000);
  const anchord::Request request = probe_request(inputs);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t before = daemon.service().epoch();
    const std::uint64_t published = daemon.publish(k);
    for (;;) {
      auto response = client.call(request);
      if (!response) throw std::runtime_error("probe: " + response.error());
      if (response.value().stats.epoch > before) {
        out.push_back(static_cast<double>(now_ns() - published) * 1e-6);
        break;
      }
      if (now_ns() - published > 30'000'000'000ULL) {
        throw std::runtime_error("probe: adoption never became visible");
      }
    }
    daemon.wait_feed_idle();
  }
  return out;
}

double measure_setup(const Inputs& inputs) {
  const anchord::Request request = probe_request(inputs);
  const std::uint64_t start = now_ns();
  Daemon daemon(inputs, /*traced=*/false);
  anchord::AnchordClient client(daemon.client_end(0), 30000);
  auto response = client.call(request);
  const std::uint64_t end = now_ns();
  if (!response) throw std::runtime_error("setup probe: " + response.error());
  return static_cast<double>(end - start) * 1e-9;
}

// Warms the daemon before slice `slice` is timed. The warm-up traffic comes
// from half a cycle away, so on cold_batch the chains it verifies have left
// the verdict cache long before the timed scan reaches them.
void warm_up(Daemon& daemon, const Inputs& inputs, std::size_t slice) {
  run_load(daemon, inputs, kWarmupSeconds, /*publish=*/false,
           slice + kSubRuns / 2);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

std::string result_line(bool correct, const Check& check,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(check.attempted, 1)
      << ", \"failed\": " << check.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << fmt(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void print_table(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"samples\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": " << metrics[i].samples;
  }
  out << "}}";
  std::cout << out.str() << "\n";
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.4f %-6s (n=%llu)\n", m.name.c_str(),
                 m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
  }
}

void report_check(const char* label, const Check& c, std::size_t distinct) {
  std::fprintf(stderr,
               "%s: %llu verdicts, %llu rejected (correctly), %llu mismatches, "
               "%llu serving failures, %llu unanswered, %llu epoch-skew, "
               "oracle recomputed %zu\n",
               label, static_cast<unsigned long long>(c.attempted),
               static_cast<unsigned long long>(c.rejected),
               static_cast<unsigned long long>(c.mismatches),
               static_cast<unsigned long long>(c.serving_failures),
               static_cast<unsigned long long>(c.unanswered),
               static_cast<unsigned long long>(c.epoch_skew), distinct);
  std::string kinds;
  for (std::size_t k = 0; k < c.kinds.size(); ++k) {
    if (c.kinds[k] == 0) continue;
    kinds += std::string(" ") +
             chain::to_string(static_cast<chain::ErrorKind>(k)) + "=" +
             std::to_string(c.kinds[k]);
  }
  std::fprintf(stderr, "  rejections by kind:%s\n", kinds.c_str());
}

// --- end-to-end run -------------------------------------------------------------

int run_end_to_end(const Args& args, const Inputs& inputs) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(measure_setup(inputs));

  // The timed phase runs as kSubRuns slices, each on a freshly started
  // daemon, so one unlucky placement of the daemon's threads on the shared
  // host moves a quarter of the windows, not the whole run.
  const bool churn = inputs.workload == Workload::kFeedChurn;
  Windows windows;
  Check check;
  std::vector<double> adopt;
  std::uint64_t leaves = 0;
  bool healthy = true;
  Oracle oracle(inputs, args.corrupt_oracle);
  for (std::size_t r = 0; r < kSubRuns; ++r) {
    Daemon daemon(inputs, /*traced=*/false);
    daemon.start_feed();
    warm_up(daemon, inputs, r);
    const Segment seg =
        run_load(daemon, inputs, args.seconds / kSubRuns, churn, r);
    const std::vector<double> adopted =
        churn ? adopt_from_load(seg, daemon.adoptions())
              : adopt_probes(daemon, inputs, kAdoptProbes / kSubRuns);
    adopt.insert(adopt.end(), adopted.begin(), adopted.end());
    oracle.use(daemon.epoch_stores());
    const Check c = check_outcomes(inputs, seg.outcomes, oracle, daemon.adoptions());
    const std::string label = std::string(workload_name(inputs.workload)) +
                              " slice " + std::to_string(r + 1);
    report_check(label.c_str(), c, oracle.distinct());
    check.add(c);
    const Windows w = windowed(inputs, seg);
    windows.add(w);
    leaves += leaves_done(inputs, seg);
    healthy = healthy && seg.transport_errors == 0 &&
              daemon.poller_stats().proof_failures == 0 &&
              daemon.adopt_failures() == 0;
  }
  // The tail is printed, not bounded: see README.md, "verify_p50_us".
  std::fprintf(stderr,
               "%zu windows; better quartile p95 %.1f us, p99 %.1f us; median "
               "window: p50 %.1f us, p95 %.1f us, p99 %.1f us, %.1f leaves/s\n",
               windows.p50_us.size(), quantile(windows.p95_us, 0.25),
               quantile(windows.p99_us, 0.25), quantile(windows.p50_us, 0.5),
               quantile(windows.p95_us, 0.5), quantile(windows.p99_us, 0.5),
               quantile(windows.leaves_per_s, 0.5));
  std::vector<Metric> metrics = {
      {"setup_s", quantile(setups, 0.5), "s", setups.size()},
      {"verify_p50_us", quantile(windows.p50_us, 0.25), "us", windows.samples},
      {"leaves_per_s", quantile(windows.leaves_per_s, 0.75), "1/s", leaves},
      {"adopt_ms", quantile(adopt, 0.5), "ms", adopt.size()},
      {"rss_mb", rss_mb(), "MB", 1},
  };
  print_table(metrics);
  const bool correct = check.mismatches == 0 && healthy && !adopt.empty();
  std::cout << result_line(correct, check, metrics) << std::endl;
  return correct ? 0 : 1;
}

// --- traced run -------------------------------------------------------------------

struct ReplayTotals {
  std::uint64_t verifies = 0;
  std::uint64_t paths = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_verifies = 0;
};

// Calls the layers' public functions one request at a time on `daemon`,
// after the load has stopped: VerifyService::validate, Certificate::parse,
// a ChainVerifier with timing decorators (signature, revocation, GCC
// hook), and the server-side codec on the same frames.
ReplayTotals replay(Daemon& daemon, const Inputs& inputs,
                    const std::vector<std::uint32_t>& sample) {
  ReplayTotals totals;
  Tracer& tracer = Tracer::instance();
  const auto& corpus = inputs.corpus;
  // The store the daemon serves now, as a heap store whose CRLite filter
  // is the timing decorator (same cascade, same answers).
  const auto stores = daemon.epoch_stores();
  const auto& latest = *stores.rbegin()->second;
  rootstore::RootStore store;
  if (auto* view = dynamic_cast<const rootstore::snapshot::StoreView*>(&latest)) {
    store = view->materialize();
  } else {
    store = dynamic_cast<const rootstore::RootStore&>(latest);
  }
  if (auto filter = store.revocation_filter()) {
    store.set_revocation_filter(std::make_shared<TimedCrlite>(*filter));
  }
  TimingScheme scheme(corpus.signatures());
  core::GccExecutor executor;
  chain::ChainVerifier timed(store, scheme);
  timed.set_gcc_hook(timed_gcc_hook(executor));
  chain::ChainVerifier plain(latest, corpus.signatures());
  anchord::VerbDispatcher dispatcher(daemon.backends());

  Tracer::set_thread_parent("replay");
  for (std::uint32_t index : sample) {
    const RequestFrame& frame = inputs.requests[index];
    chain::CertificatePool pool;
    std::vector<Bytes> intermediates;
    std::set<int> issuers;
    for (std::size_t leaf : frame.leaves) {
      const int issuer = corpus.leaves()[leaf].issuer_intermediate;
      if (issuers.insert(issuer).second) {
        const auto& cert =
            corpus.intermediates()[static_cast<std::size_t>(issuer)].cert;
        pool.add(cert);
        intermediates.push_back(cert->der());
      }
    }
    for (std::size_t leaf : frame.leaves) {
      const auto& record = corpus.leaves()[leaf];
      chain::VerifyOptions options;
      options.time = frame.time;
      options.hostname = record.domain;
      {
        ScopedSpan span("chain.validate");
        daemon.service().validate(record.cert->der(), intermediates, options);
      }
      {
        ScopedSpan span("x509.parse");
        auto parsed = x509::Certificate::parse(record.cert->der());
        if (!parsed) throw std::runtime_error("replay parse: " + parsed.error());
      }
      tracer.set_on(false);
      const std::uint64_t a0 = thread_allocs();
      plain.verify(record.cert, pool, options);
      totals.allocs += thread_allocs() - a0;
      ++totals.alloc_verifies;
      tracer.set_on(true);
      Tracer::set_thread_parent("chain.verify");
      const std::uint64_t v0 = now_ns();
      const chain::VerifyResult result = timed.verify(record.cert, pool, options);
      const std::uint64_t v1 = now_ns();
      Tracer::set_thread_parent("replay");
      tracer.record("chain.verify", v0, v1);
      ++totals.verifies;
      totals.paths += result.paths_explored;
    }
    // Server-side codec on the same frame: decode the request, then encode
    // the response the dispatcher gives for it.
    const std::uint64_t d0 = now_ns();
    auto view = net::decode_frame_view(frame.frame);
    auto request = anchord::decode_request(view.value().type, view.value().payload);
    const std::uint64_t d1 = now_ns();
    if (!request) throw std::runtime_error("replay decode: " + request.error());
    const anchord::Response response = dispatcher.dispatch(request.value());
    const std::uint64_t e0 = now_ns();
    Bytes encoded = net::encode_frame(anchord::encode_response(response));
    const std::uint64_t e1 = now_ns();
    tracer.record("anchord.codec_server", d0, d1);
    tracer.record("anchord.codec_server", e0, e1);
  }
  return totals;
}

int run_traced(const Args& args, const Inputs& inputs) {
  const double half = args.seconds / 2;
  const bool churn = inputs.workload == Workload::kFeedChurn;
  Tracer& tracer = Tracer::instance();

  // Untraced half: the baseline for trace.overhead_frac and loadgen lag.
  Oracle oracle(inputs, args.corrupt_oracle);
  Segment plain_seg;
  Check plain_check;
  double deserialize_ms = 0;
  {
    Daemon daemon(inputs, /*traced=*/false);
    daemon.start_feed();
    warm_up(daemon, inputs, 0);
    plain_seg = run_load(daemon, inputs, half, churn);
    oracle.use(daemon.epoch_stores());
    plain_check = check_outcomes(inputs, plain_seg.outcomes, oracle,
                                 daemon.adoptions());
    report_check("untraced half", plain_check, oracle.distinct());
    // Text-store load time, on every workload (cold_batch's set-up path).
    const std::uint64_t t0 = now_ns();
    std::ifstream file(inputs.store_text_path, std::ios::binary);
    std::stringstream text;
    text << file.rdbuf();
    auto parsed = rootstore::RootStore::deserialize(text.str());
    deserialize_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (!parsed) throw std::runtime_error("deserialize: " + parsed.error());
  }

  Daemon daemon(inputs, /*traced=*/true);
  const double snapshot_open_ms = daemon.open_ms();
  daemon.start_feed();
  warm_up(daemon, inputs, 0);
  daemon.wait_feed_idle();
  const std::size_t adoptions_before = daemon.adoptions().size();
  const metrics::Snapshot reg0 = daemon.registry().snapshot();
  const std::uint64_t feed_bytes0 = daemon.feed_wire_bytes();
  const std::uint64_t polls0 = daemon.poller_stats().polls;
  tracer.clear();
  tracer.set_on(true);
  Segment seg = run_load(daemon, inputs, half, churn);
  const metrics::Snapshot reg = metrics::snapshot_delta(reg0, daemon.registry().snapshot());
  // warm_rpc and cold_batch exercise the feed path with idle adoptions.
  const std::size_t probes = churn ? 0 : 3;
  std::vector<double> probe_ms = adopt_probes(daemon, inputs, probes);
  tracer.set_on(false);
  const std::uint64_t feed_bytes = daemon.feed_wire_bytes() - feed_bytes0;
  const std::uint64_t polls = daemon.poller_stats().polls - polls0;
  const auto wire = tracer.totals();

  oracle.use(daemon.epoch_stores());
  const Check check = check_outcomes(inputs, seg.outcomes, oracle, daemon.adoptions());
  report_check("traced half", check, oracle.distinct());

  // Replay a sample: the hot set once each, or cold_batch's first frames.
  std::vector<std::uint32_t> sample;
  if (inputs.workload == Workload::kColdBatch) {
    for (std::size_t i = 0; i < 32 && i < inputs.cycle[0].size(); ++i) {
      sample.push_back(inputs.cycle[0][i]);
    }
  } else {
    for (std::uint32_t i = 0; i < inputs.requests.size(); ++i) sample.push_back(i);
  }
  tracer.set_on(true);
  const ReplayTotals rt = replay(daemon, inputs, sample);
  tracer.set_on(false);
  // Replay spans are told apart from the load's by the layer that made
  // the call: "replay" for the benchmark's own calls, "chain.verify" for
  // the decorators the timed ChainVerifier called.
  const auto replay_spans = tracer.totals("replay");
  const auto verify_children = tracer.totals("chain.verify");
  auto pick = [](const std::map<std::string, SpanTotals>& from,
                 const std::string& name) {
    auto it = from.find(name);
    return it == from.end() ? SpanTotals{} : it->second;
  };
  auto replayed = [&](const std::string& name) { return pick(replay_spans, name); };
  auto wired = [&](const std::string& name) {
    auto it = wire.find(name);
    return it == wire.end() ? SpanTotals{} : it->second;
  };

  // Requests and verdicts in the traced half.
  double requests = 0;
  double verifies = 0;
  double facts = 0;
  std::vector<double> rpc_us;
  std::vector<double> lag_plain;
  for (const Outcome& o : seg.outcomes) {
    if (o.done_ns == 0) continue;
    ++requests;
    verifies += static_cast<double>(inputs.requests[o.request].leaves.size());
    facts += static_cast<double>(o.facts);
    rpc_us.push_back(static_cast<double>(o.done_ns - o.send_ns) * 1e-3);
  }
  for (const Outcome& o : plain_seg.outcomes) {
    if (o.send_ns != 0) lag_plain.push_back(static_cast<double>(o.send_ns - o.due_ns) * 1e-3);
  }
  const std::vector<double> lat_traced = latencies_us(seg);
  const std::vector<double> lat_plain = latencies_us(plain_seg);
  const Windows plain_windows = windowed(inputs, plain_seg);
  const double e2e_us = ratio(wired("loadgen.request").seconds * 1e6,
                              static_cast<double>(wired("loadgen.request").count));
  const double client_rpc_us =
      rpc_us.empty() ? 0 : std::accumulate(rpc_us.begin(), rpc_us.end(), 0.0) /
                               static_cast<double>(rpc_us.size());
  const double handler_us =
      1e6 * ratio(delta_of(reg, "anchor_anchord_serve_seconds_sum"),
                  delta_of(reg, "anchor_anchord_serve_seconds_count"));
  const double served = delta_of(reg, "anchor_anchord_serve_seconds_count");
  const double lag_us = ratio(wired("loadgen.lag").seconds * 1e6, requests);
  const double io_us = ratio(wired("anchord.conduit_io").seconds * 1e6, requests);
  const SpanTotals server_codec = replayed("anchord.codec_server");
  const double codec_us =
      ratio(wired("anchord.codec").seconds * 1e6, requests) +
      ratio(server_codec.seconds * 1e6, static_cast<double>(sample.size()));
  const double sig_us = wired("util.sig_verify").mean_us();
  const double sig_per_req = ratio(static_cast<double>(wired("util.sig_verify").count), requests);
  const double datalog_us =
      1e6 * ratio(delta_of(reg, "anchor_gcc_eval_seconds_sum"),
                  delta_of(reg, "anchor_gcc_eval_seconds_count"));
  const double evals = delta_of(reg, "anchor_gcc_evaluations_total");
  const double handler_children_us =
      sig_us * sig_per_req + ratio(delta_of(reg, "anchor_gcc_eval_seconds_sum") * 1e6, requests);
  const double covered = lag_us + io_us + codec_us + handler_us;
  const double coverage = ratio(covered, e2e_us);
  const double vhit = delta_of(reg, "anchor_verify_cache_total{cache=\"verdict\",result=\"hit\"}");
  const double vmiss = delta_of(reg, "anchor_verify_cache_total{cache=\"verdict\",result=\"miss\"}");
  const double chit = delta_of(reg, "anchor_verify_cache_total{cache=\"cert\",result=\"hit\"}");
  const double cmiss = delta_of(reg, "anchor_verify_cache_total{cache=\"cert\",result=\"miss\"}");

  std::vector<double> write_ms, open_ms, adopt_us;
  const auto adoptions = daemon.adoptions();
  for (std::size_t i = adoptions_before; i < adoptions.size(); ++i) {
    write_ms.push_back(adoptions[i].snapshot_write_ms);
    open_ms.push_back(adoptions[i].snapshot_open_ms);
    adopt_us.push_back(adoptions[i].adopt_view_us);
  }
  const SpanTotals verify = replayed("chain.verify");
  const SpanTotals rsig = pick(verify_children, "util.sig_verify");
  const SpanTotals rrev = pick(verify_children, "revocation.check");
  const SpanTotals rgcc = pick(verify_children, "core.gcc");
  const double verify_self_us = ratio(
      (verify.seconds - rsig.seconds - rrev.seconds - rgcc.seconds) * 1e6,
      static_cast<double>(verify.count));
  const auto rv = static_cast<double>(rt.verifies);
  const double p50_plain = quantile(lat_plain, 0.5);

  std::vector<Metric> metrics = {
      {"anchord.client_rpc_us", client_rpc_us, "us", rpc_us.size()},
      {"anchord.handler_us", handler_us, "us", static_cast<std::uint64_t>(served)},
      {"anchord.handoff_us", client_rpc_us - handler_us, "us", rpc_us.size()},
      {"anchord.conduit_io_us", io_us, "us", wired("anchord.conduit_io").count},
      {"anchord.codec_us", codec_us, "us", wired("anchord.codec").count + server_codec.count},
      {"anchord.wire_bytes_per_req",
       ratio(delta_of(reg, "anchor_anchord_bytes_read_total") +
                 delta_of(reg, "anchor_anchord_bytes_written_total"),
             requests),
       "B", static_cast<std::uint64_t>(requests)},
      {"anchord.queue_depth_max", static_cast<double>(seg.queue_depth_max), "count", 1},
      {"anchord.overloads", delta_of(reg, "anchor_anchord_overloads_total"), "count", 1},
      {"chain.validate_us", replayed("chain.validate").mean_us(), "us", replayed("chain.validate").count},
      {"chain.verify_self_us", verify_self_us, "us", verify.count},
      {"chain.paths_per_verify", ratio(static_cast<double>(rt.paths), rv), "count", rt.verifies},
      {"chain.allocs_per_verify",
       ratio(static_cast<double>(rt.allocs), static_cast<double>(rt.alloc_verifies)),
       "count", rt.alloc_verifies},
      {"chain.verdict_hit_ratio", ratio(vhit, vhit + vmiss), "ratio",
       static_cast<std::uint64_t>(vhit + vmiss)},
      {"chain.cert_hit_ratio", ratio(chit, chit + cmiss), "ratio",
       static_cast<std::uint64_t>(chit + cmiss)},
      {"chain.epoch_flushes", delta_of(reg, "anchor_verify_epoch_flushes_total"), "count", 1},
      {"chain.stale_purged", delta_of(reg, "anchor_verify_stale_purged_total"), "count", 1},
      {"chain.adopt_view_us", quantile(adopt_us, 0.5), "us", adopt_us.size()},
      {"x509.parse_us", replayed("x509.parse").mean_us(), "us", replayed("x509.parse").count},
      {"util.sig_verify_us", sig_us, "us", wired("util.sig_verify").count},
      {"util.sig_verifies_per_verify", ratio(static_cast<double>(wired("util.sig_verify").count), verifies),
       "count", static_cast<std::uint64_t>(verifies)},
      {"revocation.check_us", rrev.mean_us(), "us", rrev.count},
      {"revocation.checks_per_verify", ratio(static_cast<double>(rrev.count), rv), "count", rt.verifies},
      {"core.gcc_us", rgcc.mean_us(), "us", rgcc.count},
      {"core.gccs_per_verify", ratio(delta_of(reg, "anchor_gcc_gccs_evaluated_total"), verifies),
       "count", static_cast<std::uint64_t>(verifies)},
      {"core.facts_per_verify", ratio(facts, verifies), "count", static_cast<std::uint64_t>(verifies)},
      {"datalog.eval_us", datalog_us, "us", static_cast<std::uint64_t>(evals)},
      {"datalog.derived_tuples_per_eval",
       ratio(delta_of(reg, "anchor_datalog_derived_tuples_total"), evals), "count",
       static_cast<std::uint64_t>(evals)},
      {"rootstore.deserialize_ms", deserialize_ms, "ms", 1},
      {"rootstore.snapshot_open_ms",
       inputs.workload == Workload::kColdBatch ? quantile(open_ms, 0.5) : snapshot_open_ms,
       "ms", inputs.workload == Workload::kColdBatch ? open_ms.size() : 1},
      {"rootstore.snapshot_write_ms", quantile(write_ms, 0.5), "ms", write_ms.size()},
      {"rsf.poll_ms", wired("rsf.poll").mean_us() * 1e-3, "ms", wired("rsf.poll").count},
      {"rsf.bytes_per_poll", ratio(static_cast<double>(feed_bytes), static_cast<double>(polls)),
       "B", polls},
      {"rsf.proof_failures", static_cast<double>(daemon.poller_stats().proof_failures), "count", polls},
      {"loadgen.lag_p99_us", quantile(lag_plain, 0.99), "us", lag_plain.size()},
      {"loadgen.verify_p95_us", quantile(plain_windows.p95_us, 0.25), "us",
       plain_windows.samples},
      {"loadgen.verify_p99_us", quantile(plain_windows.p99_us, 0.25), "us",
       plain_windows.samples},
      {"trace.coverage", coverage, "ratio", static_cast<std::uint64_t>(requests)},
      {"trace.overhead_frac", ratio(quantile(lat_traced, 0.5) - p50_plain, p50_plain), "ratio",
       lat_traced.size()},
  };
  print_table(metrics);
  std::fprintf(stderr,
               "per request: e2e %.1f us = lag %.1f + conduit io %.1f + codec "
               "%.1f + handler %.1f (signatures %.1f, datalog %.1f) + unattributed "
               "%.1f\n",
               e2e_us, lag_us, io_us, codec_us, handler_us, sig_us * sig_per_req,
               handler_children_us - sig_us * sig_per_req, e2e_us - covered);
  std::string blind;
  if (coverage < 0.9) {
    blind = "anchord.handoff: reactor wake-up, worker queue wait, response "
            "flush and client wake-up between conduit I/O and the handler (" +
            fmt(e2e_us - covered) + " us of " + fmt(e2e_us) + " us)";
    std::fprintf(stderr, "trace.coverage %.3f < 0.9; blind spot: %s\n", coverage,
                 blind.c_str());
  }

  // Spans out, in the work directory.
  std::ostringstream summary;
  summary << "{\"host\": " << host_record(args) << ", \"probe_adopt_ms\": "
          << fmt(quantile(probe_ms, 0.5)) << ", \"blind_spot\": \""
          << json_escape(blind) << "\", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    summary << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": " << fmt(metrics[i].value);
  }
  summary << "}}";
  const std::string trace_path = args.work_dir + "/trace-" +
                                 workload_name(inputs.workload) + "-" +
                                 std::to_string(args.seed) + ".json";
  if (!tracer.write_json(trace_path, summary.str(), 200000)) {
    std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
  }
  std::fprintf(stderr, "spans: %zu recorded, written to %s\n", tracer.span_count(),
               trace_path.c_str());

  Check total = check;
  total.attempted += plain_check.attempted;
  total.failed += plain_check.failed;
  total.mismatches += plain_check.mismatches;
  const bool correct = total.mismatches == 0 && seg.transport_errors == 0 &&
                       plain_seg.transport_errors == 0 &&
                       daemon.poller_stats().proof_failures == 0 &&
                       daemon.adopt_failures() == 0;
  std::cout << result_line(correct, total, metrics) << std::endl;
  return correct ? 0 : 1;
}

// Closed-loop capacity of the warm_rpc request mix (2 connections, 8 in
// flight each): the number kOpenLoopRate is set against.
int run_calibrate(const Args& args, const Inputs& inputs) {
  Daemon daemon(inputs, /*traced=*/false);
  std::vector<std::vector<std::uint32_t>> cycles(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (const auto& item : inputs.schedule[c]) cycles[c].push_back(item.second);
  }
  std::vector<ConnectionRun> runs(kConnections);
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      runs[c] = run_closed_loop(daemon.client_end(c), inputs, cycles[c], 0, 8,
                                end, (std::uint64_t{c} + 1) << 40);
    });
  }
  for (auto& t : threads) t.join();
  std::size_t done = 0;
  for (const auto& run : runs) {
    for (const auto& o : run.outcomes) done += o.done_ns != 0;
  }
  std::printf("closed-loop capacity: %.1f verify/s\n",
              static_cast<double>(done) / (static_cast<double>(now_ns() - start) * 1e-9));
  return 0;
}

}  // namespace
}  // namespace anchorbench

int main(int argc, char** argv) {
  using namespace anchorbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: anchorbench --workload warm_rpc|cold_batch|feed_churn "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--commit SHA] [--corrupt-oracle] [--calibrate]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(args.work_dir);
    std::fprintf(stderr, "anchorbench %s: %s\n", workload_name(args.workload),
                 workload_why(args.workload));
    const std::uint64_t t0 = now_ns();
    const Inputs inputs =
        make_inputs(args.workload, args.seed, args.seconds, args.work_dir);
    std::fprintf(stderr, "inputs: %zu leaves, %zu request frames, %zu updates (%.2f s)\n",
                 inputs.corpus.leaves().size(), inputs.requests.size(),
                 inputs.updates.size(), static_cast<double>(now_ns() - t0) * 1e-9);
    std::cout << "{\"host\": " << host_record(args) << "}\n";
    if (args.calibrate) return run_calibrate(args, inputs);
    return args.trace ? run_traced(args, inputs) : run_end_to_end(args, inputs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anchorbench: %s\n", e.what());
    return 1;
  }
}
