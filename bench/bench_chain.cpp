// Experiment E9 — GCC execution placement (§3.1's three deployment
// options) measured on the chain-validation hot path:
//
//   user-agent   — GCCs execute in-process inside the verifier (default);
//   platform     — a trustd-style daemon: certificates cross a DER
//                  serialize/parse boundary plus a simulated IPC round trip
//                  (latency swept);
//   redesign     — the daemon performs complete validation (Hammurabi
//                  model): one IPC round trip for everything.
//
// Baseline: plain validation with no GCCs, to isolate the GCC tax.
//
// The service-mode runs measure the shared VerifyService (the paper's
// machine-wide daemon made concurrent): N caller threads against one
// service whose epoch-keyed verdict cache and DER parse cache are warm.
// Acceptance target: >= 3x the single-threaded BM_Validate_UserAgentGcc
// throughput at 8 threads.
// Experiment E16 — warm start from an mmap snapshot (ColdStart / SteadyAllocs
// benchmarks below): time from "store on disk" to first verdict, text-parse
// vs snapshot-mmap, plus steady-state allocation-per-verify for heap store
// vs StoreView. Cold-start runs print the operator-visible registry gauges
// (anchor_store_*) the started store would expose, so the numbers in
// EXPERIMENTS.md are the counters an operator would scrape.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <set>

#include "anchord/daemon.hpp"
#include "chain/service.hpp"
#include "corpus/corpus.hpp"
#include "incidents/listings.hpp"
#include "revocation/crlite.hpp"
#include "rootstore/snapshot/view.hpp"
#include "rootstore/snapshot/writer.hpp"
#include "util/rng.hpp"

// Allocation probe for the SteadyAllocs benchmarks: every operator new in
// the process bumps one relaxed counter. Deltas are read around
// single-threaded measurement loops, so cross-benchmark noise is nil.
std::atomic<std::uint64_t> g_alloc_calls{0};

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace anchor;

struct Fixture {
  corpus::Corpus corpus;
  rootstore::RootStore store_plain;
  rootstore::RootStore store_gcc;
  chain::CertificatePool pool;
  std::vector<std::size_t> leaf_indices;
  std::int64_t now;

  Fixture()
      : corpus([] {
          corpus::CorpusConfig config;
          config.num_roots = 40;
          config.num_intermediates = 120;
          config.roots_with_path_len = 2;
          config.intermediates_with_path_len = 100;
          config.intermediates_with_name_constraints = 6;
          config.roots_with_constrained_chain = 3;
          config.leaves_per_intermediate_mean = 10.0;
          return corpus::Corpus::generate(config);
        }()),
        store_plain(corpus.make_root_store()),
        store_gcc(corpus.make_root_store()),
        pool(corpus.intermediate_pool()),
        now(corpus.config().validation_time()) {
    // Attach a Listing-1-style GCC to every root: the worst-case "every
    // root constrained" deployment.
    for (const auto& root : corpus.roots()) {
      store_gcc.attach_gcc(
          core::Gcc::for_certificate("date-usage", *root.cert,
                                     incidents::listing1_trustcor())
              .take());
    }
    // Pick TLS leaves that are valid at `now` and predate the Listing 1
    // cutoff (so the GCC accepts them and the full path executes).
    for (std::size_t i = 0; i < corpus.leaves().size(); ++i) {
      const auto& record = corpus.leaves()[i];
      if (record.smime) continue;
      if (!record.cert->valid_at(now)) continue;
      if (record.cert->not_before() >= 1669784400) continue;
      leaf_indices.push_back(i);
      if (leaf_indices.size() >= 200) break;
    }
  }

  chain::VerifyOptions options_for(std::size_t leaf_index) const {
    chain::VerifyOptions options;
    options.time = now;
    options.hostname = corpus.leaves()[leaf_index].domain;
    return options;
  }
};

// Non-const: the service benchmarks hand store_gcc to VerifyService, whose
// constructor takes a mutable reference (mutations flow through mutate()).
// No benchmark actually mutates the stores.
Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void BM_Validate_NoGcc(benchmark::State& state) {
  const Fixture& f = fixture();
  chain::ChainVerifier verifier(f.store_plain, f.corpus.signatures());
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_Validate_NoGcc);

void BM_Validate_UserAgentGcc(benchmark::State& state) {
  const Fixture& f = fixture();
  chain::ChainVerifier verifier(f.store_gcc, f.corpus.signatures());
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_Validate_UserAgentGcc);

// Platform daemon: the verifier delegates GCC execution across a simulated
// IPC boundary. Latency per leg swept: 0 (colocated), 50us (UNIX socket),
// 500us (loaded system).
void BM_Validate_PlatformDaemon(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto latency_ns = static_cast<std::uint64_t>(state.range(0));
  anchord::TrustDaemon daemon(anchord::TrustDaemonConfig{
      .store = &f.store_gcc,
      .scheme = &f.corpus.signatures(),
      .latency_ns = latency_ns});
  chain::ChainVerifier verifier(f.store_gcc, f.corpus.signatures());
  verifier.set_gcc_hook([&daemon](const core::Chain& chain,
                                  std::string_view usage,
                                  std::span<const core::Gcc>,
                                  const core::FactSet*,
                                  core::GccVerdict&) {
    std::vector<Bytes> der;
    der.reserve(chain.size());
    for (const auto& cert : chain) der.push_back(cert->der());
    return daemon.evaluate_gccs(der, usage);
  });
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_Validate_PlatformDaemon)
    ->Arg(0)
    ->Arg(50000)
    ->Arg(500000)
    ->ArgNames({"ipc_ns"});

// One service shared by every service-mode benchmark: the point is a
// machine-wide daemon whose caches stay warm across callers. Leaked on
// purpose (benchmark process lifetime).
chain::VerifyService& shared_service() {
  static chain::VerifyService* service = [] {
    Fixture& f = fixture();
    chain::ServiceConfig config;
    config.threads = 8;
    auto* s = new chain::VerifyService(f.store_gcc, f.corpus.signatures(),
                                       config);
    // Warm the verdict + parse caches: one pass over the whole workload.
    for (std::size_t leaf : f.leaf_indices) {
      (void)s->verify(f.corpus.leaves()[leaf].cert, f.pool,
                      f.options_for(leaf));
    }
    return s;
  }();
  return *service;
}

// Concurrency sweep: N benchmark threads call the shared service
// synchronously on the warm-cache workload. Throughput (items/s, real
// time) at Threads(8) vs BM_Validate_UserAgentGcc is the E9 service-mode
// headline.
void BM_Validate_ServiceWarm(benchmark::State& state) {
  Fixture& f = fixture();
  chain::VerifyService& service = shared_service();
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = service.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                 f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    i += static_cast<std::size_t>(state.threads());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const chain::ServiceStats stats = service.stats();
    const double lookups =
        static_cast<double>(stats.verdict_hits + stats.verdict_misses);
    state.counters["verdict_hit_rate"] =
        lookups > 0 ? static_cast<double>(stats.verdict_hits) / lookups : 0.0;
    state.counters["epoch"] = static_cast<double>(stats.epoch);
  }
}
BENCHMARK(BM_Validate_ServiceWarm)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Batch front end: one caller hands the whole workload to the service,
// which fans it across its own worker pool.
void BM_Validate_ServiceBatch(benchmark::State& state) {
  Fixture& f = fixture();
  chain::VerifyService& service = shared_service();
  std::vector<x509::CertPtr> batch;
  batch.reserve(f.leaf_indices.size());
  for (std::size_t leaf : f.leaf_indices) {
    batch.push_back(f.corpus.leaves()[leaf].cert);
  }
  chain::VerifyOptions options;
  options.time = f.now;
  for (auto _ : state) {
    auto results = service.verify_batch(batch, f.pool, options);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_Validate_ServiceBatch)->UseRealTime();

// Concurrency x IPC latency: the platform daemon routes GCC execution
// through the shared service while N user agents validate in parallel.
void BM_Validate_PlatformDaemonService(benchmark::State& state) {
  Fixture& f = fixture();
  const auto latency_ns = static_cast<std::uint64_t>(state.range(0));
  // One shared daemon per latency point, never deleted (threads from a
  // previous measurement may still hold the pointer briefly).
  static std::map<std::uint64_t, anchord::TrustDaemon*> daemons;
  static std::mutex daemon_mu;
  anchord::TrustDaemon* daemon;
  {
    std::lock_guard<std::mutex> lock(daemon_mu);
    anchord::TrustDaemon*& slot = daemons[latency_ns];
    if (slot == nullptr) {
      slot = new anchord::TrustDaemon(anchord::TrustDaemonConfig{
          .store = &f.store_gcc,
          .scheme = &f.corpus.signatures(),
          .latency_ns = latency_ns,
          .service = &shared_service()});
    }
    daemon = slot;
  }
  chain::ChainVerifier verifier(f.store_gcc, f.corpus.signatures());
  verifier.set_gcc_hook([daemon](const core::Chain& chain,
                                 std::string_view usage,
                                 std::span<const core::Gcc>,
                                 const core::FactSet*,
                                 core::GccVerdict&) {
    std::vector<Bytes> der;
    der.reserve(chain.size());
    for (const auto& cert : chain) der.push_back(cert->der());
    return daemon->evaluate_gccs(der, usage);
  });
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    i += static_cast<std::size_t>(state.threads());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Validate_PlatformDaemonService)
    ->ArgsProduct({{0, 50000}})
    ->ArgNames({"ipc_ns"})
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

// Complete redesign: full validation inside the daemon.
void BM_Validate_DaemonRedesign(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto latency_ns = static_cast<std::uint64_t>(state.range(0));
  anchord::TrustDaemon daemon(anchord::TrustDaemonConfig{
      .store = &f.store_gcc,
      .scheme = &f.corpus.signatures(),
      .latency_ns = latency_ns});
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    const auto& record = f.corpus.leaves()[leaf];
    const auto& intermediate =
        f.corpus.intermediates()[static_cast<std::size_t>(
            record.issuer_intermediate)];
    std::vector<Bytes> intermediates{intermediate.cert->der()};
    auto result = daemon.validate(record.cert->der(), intermediates,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_Validate_DaemonRedesign)->Arg(0)->Arg(50000)->ArgNames({"ipc_ns"});

// ---------------------------------------------------------------------------
// The cold verify path without the daemon: VerifyService::validate_batch
// over 32-leaf frames of distinct census-corpus chains, the shape of
// anchorbench's cold_batch requests. Leaves are taken in notBefore order and
// a frame closes early when the next leaf would leave no instant inside
// every member's validity window. The verdict cache holds a quarter of the
// chains, so the cyclic scan misses on every verify and parse, path
// search, signatures, CRLite revocation, fact encoding and Datalog all run.
// Profile it with a -pg build: `bench_chain --benchmark_filter=Cold`.

struct ColdFrame {
  std::vector<Bytes> leaf_ders;
  std::vector<std::string> hostnames;
  std::vector<Bytes> intermediate_ders;
  std::int64_t time = 0;
};

struct ColdBatchFixture {
  corpus::Corpus corpus = corpus::Corpus::generate({});  // census-sized
  rootstore::RootStore store;
  std::vector<ColdFrame> frames;
  std::size_t chains = 0;

  ColdBatchFixture() : store(corpus.make_root_store()) {
    for (const auto& root : corpus.roots()) {
      store.attach_gcc(core::Gcc::for_certificate(
                           "date-usage", *root.cert,
                           incidents::listing1_trustcor())
                           .take());
    }
    // CRLite over every intermediate's leaves, a seeded ~5% revoked.
    Rng rng(0xc01dULL);
    revocation::CompressedRevocationSet::Builder builder;
    for (const auto& ca : corpus.intermediates()) builder.enroll(*ca.cert);
    for (const auto& leaf : corpus.leaves()) {
      const auto& issuer = *corpus.intermediates()[static_cast<std::size_t>(
                                leaf.issuer_intermediate)].cert;
      if (rng.chance(0.05)) {
        builder.add_revoked(issuer, *leaf.cert);
      } else {
        builder.add_valid(issuer, *leaf.cert);
      }
    }
    store.set_revocation_filter(
        std::make_shared<const revocation::CompressedRevocationSet>(
            builder.build().take()));

    const auto& leaves = corpus.leaves();
    std::vector<std::size_t> tls;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (!leaves[i].smime) tls.push_back(i);
    }
    std::sort(tls.begin(), tls.end(), [&](std::size_t a, std::size_t b) {
      return leaves[a].cert->not_before() < leaves[b].cert->not_before();
    });
    ColdFrame frame;
    std::set<int> issuers;
    std::int64_t min_not_after = 0;
    auto close = [&] {
      if (frame.leaf_ders.empty()) return;
      chains += frame.leaf_ders.size();
      frames.push_back(std::move(frame));
      frame = ColdFrame{};
      issuers.clear();
    };
    for (std::size_t leaf : tls) {
      const auto& record = leaves[leaf];
      if (!frame.leaf_ders.empty() &&
          record.cert->not_before() > min_not_after) {
        close();
      }
      if (frame.leaf_ders.empty()) min_not_after = record.cert->not_after();
      min_not_after = std::min(min_not_after, record.cert->not_after());
      frame.time = record.cert->not_before();
      frame.leaf_ders.push_back(record.cert->der());
      frame.hostnames.push_back(record.domain);
      if (issuers.insert(record.issuer_intermediate).second) {
        frame.intermediate_ders.push_back(
            corpus.intermediates()[static_cast<std::size_t>(
                                       record.issuer_intermediate)]
                .cert->der());
      }
      if (frame.leaf_ders.size() == 32) close();
    }
    close();
  }
};

void BM_ValidateBatch_Cold(benchmark::State& state) {
  static ColdBatchFixture f;
  chain::ServiceConfig config;
  config.threads = 1;
  config.verdict_capacity = f.chains / 4;
  chain::VerifyService service(f.store, f.corpus.signatures(), config);
  std::size_t next = 0;
  std::int64_t leaves = 0;
  for (auto _ : state) {
    const ColdFrame& frame = f.frames[next];
    next = (next + 1) % f.frames.size();
    chain::VerifyOptions options;
    options.time = frame.time;
    auto results = service.validate_batch(frame.leaf_ders, frame.hostnames,
                                          frame.intermediate_ders, options);
    benchmark::DoNotOptimize(results);
    leaves += static_cast<std::int64_t>(results.size());
  }
  state.SetItemsProcessed(leaves);
  const chain::ServiceStats stats = service.stats();
  const double lookups =
      static_cast<double>(stats.verdict_hits + stats.verdict_misses);
  state.counters["verdict_hit_rate"] =
      lookups > 0 ? static_cast<double>(stats.verdict_hits) / lookups : 0.0;
  state.counters["frames"] = static_cast<double>(f.frames.size());
}
BENCHMARK(BM_ValidateBatch_Cold)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// E16 — warm start from an mmap snapshot.

struct ColdStartAssets {
  std::string text;       // RSF-grammar text form (what a mirror stores)
  std::string snap_path;  // mmap snapshot written from the same store
};

ColdStartAssets& cold_start_assets() {
  static ColdStartAssets assets = [] {
    Fixture& f = fixture();
    ColdStartAssets a;
    a.text = f.store_gcc.serialize();
    const char* tmp = std::getenv("TMPDIR");
    a.snap_path = std::string(tmp != nullptr ? tmp : "/tmp") +
                  "/anchor-bench-e16.snap";
    auto status =
        rootstore::snapshot::write_snapshot_file(f.store_gcc, a.snap_path);
    if (!status.ok()) {
      fprintf(stderr, "E16: snapshot write failed: %s\n",
              status.error().c_str());
      std::abort();
    }
    return a;
  }();
  return assets;
}

// The registry delta a cold start produces: the anchor_store_* gauges the
// freshly started store would expose to the first scrape.
void report_cold_start_registry(benchmark::State& state,
                                const rootstore::StoreReader& store) {
  metrics::Registry registry;
  rootstore::export_store_metrics(store, registry);
  state.counters["trusted_roots"] = static_cast<double>(
      registry.gauge("anchor_store_trusted_roots").value());
  state.counters["gccs"] =
      static_cast<double>(registry.gauge("anchor_store_gccs").value());
  state.counters["store_epoch"] =
      static_cast<double>(registry.gauge("anchor_store_epoch").value());
}

// Baseline cold start: parse the text serialization — which re-parses and
// re-compiles every GCC's Datalog source — then serve one verdict.
void BM_ColdStart_TextParse(benchmark::State& state) {
  const Fixture& f = fixture();
  const ColdStartAssets& assets = cold_start_assets();
  const std::size_t leaf = f.leaf_indices[0];
  for (auto _ : state) {
    auto store = rootstore::RootStore::deserialize(assets.text);
    if (!store) std::abort();
    chain::ChainVerifier verifier(store.value(), f.corpus.signatures());
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
  }
  report_cold_start_registry(state, f.store_gcc);
}
BENCHMARK(BM_ColdStart_TextParse);

// Snapshot cold start: mmap the snapshot — compiled GCC programs
// deserialize without touching the Datalog front end, certificates load
// from DER — then serve the same verdict through the StoreView.
void BM_ColdStart_SnapshotMmap(benchmark::State& state) {
  const Fixture& f = fixture();
  const ColdStartAssets& assets = cold_start_assets();
  const std::size_t leaf = f.leaf_indices[0];
  for (auto _ : state) {
    auto opened = rootstore::snapshot::StoreView::open(assets.snap_path);
    if (!opened.ok()) std::abort();
    chain::ChainVerifier verifier(*opened.view, f.corpus.signatures());
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
  }
  auto opened = rootstore::snapshot::StoreView::open(assets.snap_path);
  if (opened.ok()) report_cold_start_registry(state, *opened.view);
}
BENCHMARK(BM_ColdStart_SnapshotMmap);

// Steady state: allocations per verify through the heap store vs through
// the mmap StoreView. The snapshot claim is that the *start* gets cheap
// without the *serving* path paying for it — allocs_per_verify must match.
void BM_SteadyAllocs_HeapStore(benchmark::State& state) {
  const Fixture& f = fixture();
  chain::ChainVerifier verifier(f.store_gcc, f.corpus.signatures());
  std::size_t i = 0;
  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
  const auto delta =
      g_alloc_calls.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_verify"] =
      static_cast<double>(delta) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_SteadyAllocs_HeapStore);

void BM_SteadyAllocs_SnapshotView(benchmark::State& state) {
  const Fixture& f = fixture();
  const ColdStartAssets& assets = cold_start_assets();
  auto opened = rootstore::snapshot::StoreView::open(assets.snap_path);
  if (!opened.ok()) std::abort();
  chain::ChainVerifier verifier(*opened.view, f.corpus.signatures());
  std::size_t i = 0;
  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  for (auto _ : state) {
    std::size_t leaf = f.leaf_indices[i % f.leaf_indices.size()];
    auto result = verifier.verify(f.corpus.leaves()[leaf].cert, f.pool,
                                  f.options_for(leaf));
    benchmark::DoNotOptimize(result);
    ++i;
  }
  const auto delta =
      g_alloc_calls.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_verify"] =
      static_cast<double>(delta) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_SteadyAllocs_SnapshotView);

}  // namespace

BENCHMARK_MAIN();
