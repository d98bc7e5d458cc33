#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "anchord/wire.hpp"
#include "incidents/listings.hpp"
#include "net/transport.hpp"
#include "revocation/crlite.hpp"
#include "rootstore/chromeproto.hpp"
#include "rootstore/constraint_compile.hpp"
#include "rootstore/snapshot/writer.hpp"
#include "util/rng.hpp"

namespace anchorbench {

using namespace anchor;

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kWarmRpc: return "warm_rpc";
    case Workload::kColdBatch: return "cold_batch";
    case Workload::kFeedChurn: return "feed_churn";
  }
  return "?";
}

const char* workload_why(Workload workload) {
  switch (workload) {
    case Workload::kWarmRpc:
      return "Zipf-hot chains keep the verdict and cert caches hot: prices "
             "hand-off, codec, parse, path search and signatures, not GCCs";
    case Workload::kColdBatch:
      return "every chain misses the verdict cache: prices fact encoding, "
             "Datalog, revocation, signatures and parse, framing amortised";
    case Workload::kFeedChurn:
      return "warm_rpc reads plus a feed update each second: every adoption "
             "flushes the verdict cache, so read and adoption costs trade off";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kWarmRpc, Workload::kColdBatch,
                     Workload::kFeedChurn}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

void patch_correlation_id(Bytes& frame, std::uint64_t id) {
  for (int i = 7; i >= 0; --i) {
    frame[kCorrelationOffset + static_cast<std::size_t>(7 - i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
  }
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

// The corpus and the served store are fixed, like the real root store and
// CT corpus they stand in for; the workload seed varies the traffic (which
// chains are hot, arrival times, scan offset, feed update contents), so
// runs with different seeds stay comparable.
constexpr std::uint64_t kCorpusSeed = 0x616e63686f72ULL;

corpus::CorpusConfig corpus_config() {
  corpus::CorpusConfig config;  // census-sized: 140 roots, 776 intermediates
  config.seed = kCorpusSeed;
  // ~28k leaves, ~25k of them TLS: cold_batch scans three times
  // ServiceConfig::verdict_capacity (8192) distinct chains.
  config.leaves_per_intermediate_mean = 36.0;
  return config;
}

std::string root_hash(const corpus::CaProfile& ca) {
  return ca.cert->fingerprint_hex();
}

// A CRLite filter over every intermediate's issued leaves, revoking a
// seeded ~5% of them.
std::shared_ptr<const revocation::CompressedRevocationSet> make_filter(
    const corpus::Corpus& corpus, std::uint64_t seed) {
  Rng rng(seed);
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
  auto built = builder.build(0x43524c6974ULL ^ seed);
  if (!built) fail("crlite build: " + built.error());
  return std::make_shared<const revocation::CompressedRevocationSet>(
      std::move(built).take());
}

// The GCC every root carries: Listing 1's TrustCor date cutoff, without
// its EV clause (with it, every EV leaf in the corpus is denied and
// rejections swamp the other verdict paths).
constexpr const char* kDateUsageGcc = R"(nov30th2022(1669784400).
valid(Chain, "S/MIME") :- leaf(Chain, Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
valid(Chain, "TLS") :- leaf(Chain, Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
)";

// The served store: every corpus root with the date-usage GCC,
// Chrome Root Store DNS constraints on a few roots (compiled from a
// textproto), a few distrusted roots, and a CRLite filter.
rootstore::RootStore make_store(const corpus::Corpus& corpus, Rng& rng,
                                std::set<std::size_t>& constrained,
                                std::set<std::size_t>& distrusted) {
  rootstore::RootStore store = corpus.make_root_store();
  for (const auto& root : corpus.roots()) {
    store.attach_gcc(core::Gcc::for_certificate(
                         "date-usage", *root.cert, kDateUsageGcc)
                         .take());
  }
  const std::size_t roots = corpus.roots().size();
  while (distrusted.size() < 3) distrusted.insert(rng.uniform(roots));
  std::string proto = "version_major: 1\n";
  for (std::size_t guard = 0; constrained.size() < 6 && guard < 10000; ++guard) {
    const std::size_t r = rng.uniform(roots);
    const auto& scope = corpus.roots()[r].tld_scope;
    if (distrusted.count(r) != 0 || scope.size() < 2) continue;
    if (!constrained.insert(r).second) continue;
    proto += "trust_anchors {\n  sha256_hex: \"" + root_hash(corpus.roots()[r]) +
             "\"\n  constraints {\n";
    for (std::size_t t = 0; t < (scope.size() + 1) / 2; ++t) {
      proto += "    permitted_dns_names: \"" + scope[t] + "\"\n";
    }
    proto += "  }\n}\n";
  }
  auto parsed = rootstore::chromeproto::parse_store(proto);
  if (!parsed.ok()) fail("chromeproto: " + parsed.error.to_string());
  auto resolve = [&corpus](const std::string& hash) -> x509::CertPtr {
    for (const auto& root : corpus.roots()) {
      if (root_hash(root) == hash) return root.cert;
    }
    return nullptr;
  };
  auto compiled = rootstore::compile_store(*parsed.store, resolve, store);
  if (!compiled) fail("compile_store: " + compiled.error());
  for (std::size_t r : distrusted) {
    store.distrust(root_hash(corpus.roots()[r]), "anchorbench");
  }
  store.set_revocation_filter(make_filter(corpus, rng.next_u64()));
  return store;
}

RequestFrame verify_frame(const corpus::Corpus& corpus, std::size_t leaf,
                          std::int64_t time) {
  const auto& record = corpus.leaves()[leaf];
  anchord::Request request;
  request.verb = anchord::Verb::kVerify;
  request.usage = "TLS";
  request.time = time;
  request.hostname = record.domain;
  request.leaf_der = record.cert->der();
  request.intermediates_der = {
      corpus.intermediates()[static_cast<std::size_t>(record.issuer_intermediate)]
          .cert->der()};
  RequestFrame frame;
  frame.frame = net::encode_frame(anchord::encode_request(request));
  frame.leaves = {leaf};
  frame.time = time;
  return frame;
}

RequestFrame batch_frame(const corpus::Corpus& corpus,
                         const std::vector<std::size_t>& leaves,
                         std::int64_t time) {
  anchord::Request request;
  request.verb = anchord::Verb::kVerifyBatch;
  request.usage = "TLS";
  request.time = time;
  std::set<int> issuers;
  for (std::size_t leaf : leaves) {
    const auto& record = corpus.leaves()[leaf];
    request.batch.push_back({record.domain, record.cert->der()});
    if (issuers.insert(record.issuer_intermediate).second) {
      request.intermediates_der.push_back(
          corpus.intermediates()[static_cast<std::size_t>(
                                     record.issuer_intermediate)]
              .cert->der());
    }
  }
  RequestFrame frame;
  frame.frame = net::encode_frame(anchord::encode_request(request));
  frame.leaves = leaves;
  frame.time = time;
  frame.batch = true;
  return frame;
}

// cold_batch: every TLS leaf, in notBefore order, cut into frames of
// kBatchSize whose shared validation instant lies inside every member's
// validity window (a frame closes early if the next leaf would empty the
// window's intersection).
void make_cold_frames(Inputs& in, Rng& rng) {
  const auto& leaves = in.corpus.leaves();
  std::vector<std::size_t> tls;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (!leaves[i].smime) tls.push_back(i);
  }
  std::sort(tls.begin(), tls.end(), [&](std::size_t a, std::size_t b) {
    return leaves[a].cert->not_before() < leaves[b].cert->not_before();
  });
  std::vector<std::size_t> group;
  std::int64_t min_not_after = 0;
  auto close = [&] {
    if (group.empty()) return;
    const std::int64_t at = leaves[group.back()].cert->not_before();
    in.requests.push_back(batch_frame(in.corpus, group, at));
    group.clear();
  };
  for (std::size_t leaf : tls) {
    const auto& cert = *leaves[leaf].cert;
    if (!group.empty() && cert.not_before() > min_not_after) close();
    if (group.empty()) min_not_after = cert.not_after();
    group.push_back(leaf);
    min_not_after = std::min(min_not_after, cert.not_after());
    if (group.size() == kBatchSize) close();
  }
  close();
  std::size_t chains = 0;
  for (const auto& r : in.requests) chains += r.leaves.size();
  if (chains < 3 * 8192) fail("cold_batch: fewer than 3x8192 distinct chains");
  // Cyclic scan from a seeded offset; connection c takes every
  // kConnections-th frame so the two never send the same chain together.
  const std::size_t frames = in.requests.size();
  const std::size_t offset = rng.uniform(frames);
  in.cycle.assign(kConnections, {});
  for (std::size_t i = 0; i < frames; ++i) {
    in.cycle[i % kConnections].push_back(
        static_cast<std::uint32_t>((offset + i) % frames));
  }
}

// warm_rpc / feed_churn: kHotChains TLS chains valid at one instant,
// requested with Zipf(kZipfS) popularity at Poisson arrival times.
void make_hot_schedule(Inputs& in, Rng& rng, double seconds,
                       std::vector<std::size_t>& hot) {
  const std::int64_t at = in.corpus.config().validation_time();
  const auto& leaves = in.corpus.leaves();
  std::vector<std::size_t> valid;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (!leaves[i].smime && leaves[i].cert->valid_at(at)) valid.push_back(i);
  }
  if (valid.size() < kHotChains) fail("hot set: too few valid TLS leaves");
  for (std::size_t i = 0; i < kHotChains; ++i) {
    std::swap(valid[i], valid[i + rng.uniform(valid.size() - i)]);
    hot.push_back(valid[i]);
    in.requests.push_back(verify_frame(in.corpus, valid[i], at));
  }
  std::vector<double> cdf(kHotChains);
  double total = 0;
  for (std::size_t r = 0; r < kHotChains; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[r] = total;
  }
  const double rate = kOpenLoopRate / static_cast<double>(kConnections);
  in.schedule.assign(kConnections, {});
  for (auto& conn : in.schedule) {
    double t = 0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform01()) / rate;
      if (t >= seconds) break;
      const double u = rng.uniform01() * total;
      const auto rank = static_cast<std::uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      conn.emplace_back(static_cast<std::uint64_t>(t * 1e9),
                        std::min<std::uint32_t>(rank, kHotChains - 1));
    }
  }
}

// The feed's updates, cumulative from the initial store, rotating through
// distrust-a-hot-root, attach-a-GCC, swap-the-CRLite-filter, then undoing
// the first two, so the hot set's acceptance does not decay over a run.
void make_updates(Inputs& in, Rng& rng, const std::vector<std::size_t>& hot,
                  const std::set<std::size_t>& constrained,
                  const std::set<std::size_t>& distrusted,
                  std::size_t count) {
  const auto& corpus = in.corpus;
  // Roots of the hottest chains, most popular first.
  std::vector<std::size_t> hot_roots;
  for (std::size_t leaf : hot) {
    const auto& issuer = corpus.intermediates()[static_cast<std::size_t>(
        corpus.leaves()[leaf].issuer_intermediate)];
    const auto root = static_cast<std::size_t>(issuer.parent_root);
    if (distrusted.count(root) != 0 || constrained.count(root) != 0) continue;
    if (std::find(hot_roots.begin(), hot_roots.end(), root) == hot_roots.end()) {
      hot_roots.push_back(root);
    }
    if (hot_roots.size() == 4) break;
  }
  if (hot_roots.size() < 4) fail("feed updates: too few hot roots");
  const std::size_t gcc_root = hot_roots[3];
  const std::string gcc_hash = root_hash(corpus.roots()[gcc_root]);
  rootstore::RootStore current = in.store;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t victim = hot_roots[(k / 6) % 3];
    const std::string victim_hash = root_hash(corpus.roots()[victim]);
    std::string note;
    switch (k % 6) {
      case 0:
        current.distrust(victim_hash, "anchorbench churn");
        note = "distrust hot root";
        break;
      case 1:
        current.attach_gcc(core::Gcc::for_certificate(
                               "preemptive", *corpus.roots()[gcc_root].cert,
                               incidents::listing3_preemptive())
                               .take());
        note = "attach GCC";
        break;
      case 3: {
        current.forget(victim_hash);
        const rootstore::RootEntry* entry = in.store.find(victim_hash);
        if (entry == nullptr) fail("feed updates: victim root not in store");
        if (!current.add_trusted(entry->cert, entry->metadata)) {
          fail("feed updates: could not re-trust root");
        }
        note = "re-trust root";
        break;
      }
      case 4:
        current.detach_gcc(gcc_hash, "preemptive");
        note = "detach GCC";
        break;
      default:
        current.set_revocation_filter(make_filter(corpus, rng.next_u64()));
        note = "swap CRLite filter";
        break;
    }
    in.updates.emplace_back(current, note);
  }
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  if (!out) fail("cannot write " + path);
}

}  // namespace

Inputs make_inputs(Workload workload, std::uint64_t seed, double seconds,
                   const std::string& work_dir) {
  Inputs in;
  in.workload = workload;
  in.corpus = corpus::Corpus::generate(corpus_config());
  Rng store_rng(kCorpusSeed);
  std::set<std::size_t> constrained;
  std::set<std::size_t> distrusted;
  in.store = make_store(in.corpus, store_rng, constrained, distrusted);
  Rng rng(0x62656e6368ULL ^ (seed * 0x9e3779b97f4a7c15ULL));

  std::vector<std::size_t> hot;
  if (workload == Workload::kColdBatch) {
    make_cold_frames(in, rng);
    // The probe request and the feed updates' churned roots come from
    // chains valid at one instant, as on the other workloads.
    const std::int64_t at = in.corpus.config().validation_time();
    for (std::size_t i = 0; i < in.corpus.leaves().size() && hot.size() < 64; ++i) {
      if (!in.corpus.leaves()[i].smime && in.corpus.leaves()[i].cert->valid_at(at)) {
        hot.push_back(i);
      }
    }
  } else {
    make_hot_schedule(in, rng, seconds, hot);
  }
  in.probe = verify_frame(in.corpus, hot.front(),
                          in.corpus.config().validation_time());
  // feed_churn publishes about once a second while timed; the other
  // workloads publish only for their idle adoption probes. Every timed
  // slice starts a fresh feed, so one list of updates serves them all.
  in.timed_updates = workload == Workload::kFeedChurn
                         ? static_cast<std::size_t>(seconds / kPublishPeriodS)
                         : 0;
  make_updates(in, rng, hot, constrained, distrusted,
               std::max<std::size_t>(in.timed_updates, 8));

  const std::string tag = std::string(workload_name(workload)) + "-" +
                          std::to_string(seed);
  in.store_text_path = work_dir + "/store-" + tag + ".txt";
  in.snapshot_path = work_dir + "/store-" + tag + ".snap";
  write_file(in.store_text_path, in.store.serialize());
  Status written =
      rootstore::snapshot::write_snapshot_file(in.store, in.snapshot_path);
  if (!written) fail("snapshot write: " + written.error());
  return in;
}

// ---------------------------------------------------------------------------

namespace {
std::int64_t sim_time(std::uint64_t sequence) {
  return 1700000000 + static_cast<std::int64_t>(sequence) * 3600;
}
}  // namespace

Daemon::Daemon(const Inputs& inputs, bool traced)
    : inputs_(inputs) {
  const SignatureScheme* scheme = &inputs.corpus.signatures();
  if (traced) {
    timing_scheme_ = std::make_unique<TimingScheme>(*scheme);
    scheme = timing_scheme_.get();
  }
  chain::ServiceConfig service_config;
  service_config.threads = kWorkers;
  const std::uint64_t start = now_ns();
  if (inputs.workload == Workload::kColdBatch) {
    std::ifstream file(inputs.store_text_path, std::ios::binary);
    std::stringstream text;
    text << file.rdbuf();
    auto parsed = rootstore::RootStore::deserialize(text.str());
    if (!parsed) fail("store deserialize: " + parsed.error());
    live_ = std::move(parsed).take();
    open_ms_ = static_cast<double>(now_ns() - start) * 1e-6;
    service_ = std::make_unique<chain::VerifyService>(live_, *scheme,
                                                      service_config, registry_);
    text_epoch_ = service_->epoch();
  } else {
    auto opened = rootstore::snapshot::StoreView::open(inputs.snapshot_path);
    if (!opened.ok()) fail("snapshot open: " + opened.error.to_string());
    open_ms_ = static_cast<double>(now_ns() - start) * 1e-6;
    service_ = std::make_unique<chain::VerifyService>(live_, *scheme,
                                                      service_config, registry_);
    service_->adopt_view(opened.view);
    epochs_[service_->epoch()] = opened.view;
  }
  backends_.service = service_.get();
  backends_.registry = &registry_;
  anchord::AnchordConfig config;
  config.workers = kWorkers;
  // Headroom: a scheduling stall on a shared host should show up as tail
  // latency, not as kOverloaded refusals (which still count as failures).
  config.max_in_flight = 512;
  server_ = std::make_unique<anchord::AnchordServer>(backends_, config, registry_);
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto pair = anchord::make_socketpair_conduit();
    if (!pair) fail("socketpair: " + pair.error());
    anchord::ConduitPair conduits = std::move(pair).take();
    if (traced) {
      conduits.second = std::make_unique<TimingConduit>(std::move(conduits.second));
    }
    connections_.push_back(std::move(conduits));
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    serve_threads_.emplace_back(
        [this, c] { server_->serve(*connections_[c].second); });
  }
}

Daemon::~Daemon() {
  if (poll_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(feed_mu_);
      stop_ = true;
    }
    feed_cv_.notify_all();
    poll_thread_.join();
  }
  if (feed_link_.first) feed_link_.first->close();
  if (upstream_thread_.joinable()) upstream_thread_.join();
  for (auto& conduits : connections_) conduits.first->close();
  for (auto& t : serve_threads_) t.join();
}

std::map<std::uint64_t, std::shared_ptr<const rootstore::StoreReader>>
Daemon::epoch_stores() const {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  auto stores = epochs_;
  // The text-started store, copied on demand so set-up does not pay for
  // it; live_ is never mutated (adoptions swap views in instead).
  if (text_epoch_) {
    stores[*text_epoch_] = std::make_shared<const rootstore::RootStore>(live_);
  }
  return stores;
}

std::vector<Adoption> Daemon::adoptions() const {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  return adoptions_;
}

void Daemon::start_feed() {
  feed_ = std::make_unique<rsf::Feed>("primary", feed_keys_);
  chain::ServiceConfig upstream_config;
  upstream_config.threads = 1;
  upstream_service_ = std::make_unique<chain::VerifyService>(
      upstream_store_, inputs_.corpus.signatures(), upstream_config,
      upstream_registry_);
  anchord::VerbDispatcher::Backends backends;
  backends.service = upstream_service_.get();
  backends.feed_source = feed_.get();
  backends.registry = &upstream_registry_;
  anchord::AnchordConfig config;
  config.workers = 1;
  upstream_ = std::make_unique<anchord::AnchordServer>(backends, config,
                                                       upstream_registry_);
  auto pair = anchord::make_socketpair_conduit();
  if (!pair) fail("socketpair: " + pair.error());
  feed_link_ = std::move(pair).take();
  upstream_thread_ = std::thread([this] { upstream_->serve(*feed_link_.second); });
  feed_client_ =
      std::make_unique<anchord::AnchordClient>(*feed_link_.first, 30000);
  feed_transport_ =
      std::make_unique<anchord::WireFeedTransport>(*feed_client_, "primary");
  poller_ = std::make_unique<rsf::RsfClient>(*feed_transport_, 3600,
                                             rsf::MergePolicy::kPrimaryWins,
                                             rsf::Transport::kDelta);
  poller_->bind_metrics(registry_, "primary");
  poller_->set_adoption_hook(
      [this](const rootstore::RootStore& adopted) { on_adopt(adopted); });
  feed_->publish(inputs_.store, sim_time(1), "initial store");
  if (poller_->poll_now(sim_time(1) + 1) != 1) fail("initial feed poll failed");
  published_ = polled_ = 1;
  poll_thread_ = std::thread([this] { poll_loop(); });
}

std::uint64_t Daemon::publish(std::size_t update) {
  const auto& [store, note] = inputs_.updates.at(update);
  const std::uint64_t sequence = update + 2;
  const std::uint64_t start = now_ns();
  feed_->publish(store, sim_time(sequence), note);
  {
    std::lock_guard<std::mutex> lock(feed_mu_);
    published_ = sequence;
  }
  feed_cv_.notify_all();
  return start;
}

void Daemon::wait_feed_idle() {
  std::unique_lock<std::mutex> lock(feed_mu_);
  feed_cv_.wait(lock, [this] { return polled_ >= published_; });
}

std::uint64_t Daemon::adopt_failures() const {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  return adopt_failures_;
}

std::uint64_t Daemon::feed_wire_bytes() const {
  const metrics::Snapshot snap = upstream_registry_.snapshot();
  double bytes = 0;
  for (const char* key : {"anchor_anchord_bytes_read_total",
                          "anchor_anchord_bytes_written_total"}) {
    auto it = snap.find(key);
    if (it != snap.end()) bytes += it->second;
  }
  return static_cast<std::uint64_t>(bytes);
}

void Daemon::poll_loop() {
  Tracer::set_thread_parent("rsf.poll");
  std::unique_lock<std::mutex> lock(feed_mu_);
  for (;;) {
    feed_cv_.wait(lock, [this] { return stop_ || published_ > polled_; });
    if (stop_) return;
    const std::uint64_t target = published_;
    lock.unlock();
    {
      ScopedSpan span("rsf.poll");
      poller_->poll_now(sim_time(target) + 1);
    }
    lock.lock();
    polled_ = target;
    feed_cv_.notify_all();
  }
}

void Daemon::on_adopt(const rootstore::RootStore& adopted) {
  Adoption a;
  ScopedSpan span("rsf.adopt");
  std::uint64_t t0 = now_ns();
  Bytes image = rootstore::snapshot::write_snapshot(adopted);
  std::uint64_t t1 = now_ns();
  auto opened = rootstore::snapshot::StoreView::from_bytes(std::move(image));
  std::uint64_t t2 = now_ns();
  Tracer::instance().record("rootstore.snapshot_write", t0, t1);
  Tracer::instance().record("rootstore.snapshot_open", t1, t2);
  if (!opened.ok()) {
    // Runs on the poller thread inside RsfClient::poll_now: count it and
    // let the run report itself incorrect instead of throwing through the
    // library.
    std::fprintf(stderr, "adopted snapshot rejected: %s\n",
                 opened.error.to_string().c_str());
    std::lock_guard<std::mutex> lock(epochs_mu_);
    ++adopt_failures_;
    return;
  }
  a.view = opened.view;
  a.epoch_before = service_->epoch();
  a.begin_ns = now_ns();
  service_->adopt_view(opened.view);
  a.end_ns = now_ns();
  a.epoch_after = service_->epoch();
  Tracer::instance().record("chain.adopt_view", a.begin_ns, a.end_ns);
  a.snapshot_write_ms = static_cast<double>(t1 - t0) * 1e-6;
  a.snapshot_open_ms = static_cast<double>(t2 - t1) * 1e-6;
  a.adopt_view_us = static_cast<double>(a.end_ns - a.begin_ns) * 1e-3;
  std::lock_guard<std::mutex> lock(epochs_mu_);
  epochs_[a.epoch_after] = a.view;
  adoptions_.push_back(std::move(a));
}

}  // namespace anchorbench
