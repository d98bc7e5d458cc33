// Benchmark inputs and the daemon under test.
//
// Inputs are generated from the workload seed before anything is timed:
// the corpus and its DER, the served root store (as a text file and as an
// mmap snapshot file), every request frame, and the feed's publish
// schedule. The daemon only ever receives wire bytes.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "anchord/client.hpp"
#include "anchord/feed_transport.hpp"
#include "anchord/server.hpp"
#include "chain/service.hpp"
#include "corpus/corpus.hpp"
#include "rootstore/snapshot/view.hpp"
#include "rsf/client.hpp"
#include "rsf/feed.hpp"
#include "trace.hpp"

namespace anchorbench {

enum class Workload { kWarmRpc, kColdBatch, kFeedChurn };

// The one-line reason each workload exists (also in README.md).
const char* workload_why(Workload workload);
std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

// Load shape. Fixed per workload; recorded in BENCHMARK.json and README.md.
inline constexpr double kOpenLoopRate = 6000.0;  // verify req/s, 2 conns
inline constexpr std::size_t kHotChains = 256;
inline constexpr double kZipfS = 1.1;
inline constexpr std::size_t kBatchSize = 32;
inline constexpr std::size_t kFramesInFlight = 2;  // per connection
inline constexpr std::size_t kConnections = 2;
inline constexpr std::size_t kWorkers = 2;
inline constexpr double kPublishPeriodS = 1.0;

// One pre-encoded request: a complete wire frame whose correlation id is
// patched in at send time, plus what the oracle needs to recompute it.
struct RequestFrame {
  anchor::Bytes frame;
  std::vector<std::size_t> leaves;  // corpus leaf indices, batch order
  std::int64_t time = 0;
  bool batch = false;
};

// Where the 8-byte correlation id sits in an encoded request frame:
// after the 5-byte frame header, first field of the payload.
inline constexpr std::size_t kCorrelationOffset = 5;
void patch_correlation_id(anchor::Bytes& frame, std::uint64_t id);

struct Inputs {
  Workload workload = Workload::kWarmRpc;
  anchor::corpus::Corpus corpus;
  anchor::rootstore::RootStore store;  // what the daemon serves at start
  std::string store_text_path;         // RootStore::serialize() of `store`
  std::string snapshot_path;           // write_snapshot_file() of `store`

  std::vector<RequestFrame> requests;
  // A single verify of one hot chain: set-up's first verdict and the
  // adoption probes ask for it.
  RequestFrame probe;
  // Open loop: (due offset ns, request index) per connection.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>> schedule;
  // Closed loop: request indices each connection cycles through.
  std::vector<std::vector<std::uint32_t>> cycle;

  // Feed: the initial store is publication 1; updates[k] is the full store
  // of publication k+2, with a one-line annotation.
  std::vector<std::pair<anchor::rootstore::RootStore, std::string>> updates;
  std::size_t timed_updates = 0;  // published during the timed phase
};

Inputs make_inputs(Workload workload, std::uint64_t seed, double seconds,
                   const std::string& work_dir);

// What every adoption looked like, for adopt_ms and the oracle's epoch map.
struct Adoption {
  std::uint64_t epoch_before = 0;
  std::uint64_t epoch_after = 0;
  std::uint64_t begin_ns = 0;  // adopt_view called
  std::uint64_t end_ns = 0;    // adopt_view returned
  std::shared_ptr<const anchor::rootstore::snapshot::StoreView> view;
  double snapshot_write_ms = 0;
  double snapshot_open_ms = 0;
  double adopt_view_us = 0;
};

// The served daemon: a VerifyService behind an AnchordServer with
// kConnections socketpair connections, plus the feed pipeline (primary
// Feed → upstream AnchordServer → WireFeedTransport → RsfClient → adopt).
class Daemon {
 public:
  // Cold start from disk, timed by the caller: text store
  // (RootStore::deserialize) for cold_batch, else the mmap snapshot
  // (StoreView::open + adopt_view). `traced` installs the decorators.
  Daemon(const Inputs& inputs, bool traced);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  anchor::anchord::Conduit& client_end(std::size_t connection) {
    return *connections_[connection].first;
  }
  anchor::chain::VerifyService& service() { return *service_; }
  anchor::metrics::Registry& registry() { return registry_; }
  const anchor::anchord::VerbDispatcher::Backends& backends() const {
    return backends_;
  }
  double open_ms() const { return open_ms_; }

  // The store each published epoch served, for the oracle.
  std::map<std::uint64_t, std::shared_ptr<const anchor::rootstore::StoreReader>>
  epoch_stores() const;
  std::vector<Adoption> adoptions() const;

  // Feed pipeline. start_feed() publishes the initial store and adopts it
  // (untimed); publish(k) publishes inputs.updates[k] and wakes the poller.
  void start_feed();
  std::uint64_t publish(std::size_t update);
  // Blocks until every publication so far has been polled and adopted.
  void wait_feed_idle();
  const anchor::rsf::ClientStats& poller_stats() const { return poller_->stats(); }
  // Bytes the upstream feed daemon read and wrote so far.
  std::uint64_t feed_wire_bytes() const;
  // Adopted stores whose snapshot image failed to reopen (must stay 0).
  std::uint64_t adopt_failures() const;

 private:
  void on_adopt(const anchor::rootstore::RootStore& adopted);
  void poll_loop();

  const Inputs& inputs_;
  anchor::metrics::Registry registry_;
  std::unique_ptr<TimingScheme> timing_scheme_;
  anchor::rootstore::RootStore live_;
  std::unique_ptr<anchor::chain::VerifyService> service_;
  anchor::anchord::VerbDispatcher::Backends backends_;
  std::unique_ptr<anchor::anchord::AnchordServer> server_;
  std::vector<anchor::anchord::ConduitPair> connections_;
  std::vector<std::thread> serve_threads_;
  double open_ms_ = 0;
  std::optional<std::uint64_t> text_epoch_;  // epoch of the text-store start

  mutable std::mutex epochs_mu_;  // guards epochs_, adoptions_, adopt_failures_
  std::map<std::uint64_t, std::shared_ptr<const anchor::rootstore::StoreReader>>
      epochs_;
  std::vector<Adoption> adoptions_;
  std::uint64_t adopt_failures_ = 0;

  // Feed pipeline (constructed by start_feed).
  anchor::SimSig feed_keys_;
  std::unique_ptr<anchor::rsf::Feed> feed_;
  anchor::metrics::Registry upstream_registry_;
  anchor::rootstore::RootStore upstream_store_;
  std::unique_ptr<anchor::chain::VerifyService> upstream_service_;
  std::unique_ptr<anchor::anchord::AnchordServer> upstream_;
  anchor::anchord::ConduitPair feed_link_;
  std::thread upstream_thread_;
  std::unique_ptr<anchor::anchord::AnchordClient> feed_client_;
  std::unique_ptr<anchor::anchord::WireFeedTransport> feed_transport_;
  std::unique_ptr<anchor::rsf::RsfClient> poller_;
  std::thread poll_thread_;
  std::mutex feed_mu_;  // guards the fields below
  std::condition_variable feed_cv_;
  std::uint64_t published_ = 0;
  std::uint64_t polled_ = 0;
  bool stop_ = false;
};

}  // namespace anchorbench
