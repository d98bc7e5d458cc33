// In-memory span recording and the timing decorators the traced run
// installs at libanchor's public seams (SignatureScheme, Conduit,
// revocation::Provider, GccHook). Nothing here reaches inside the library:
// every span brackets a call into a public function, from the benchmark's
// own code.
//
// Spans are appended to a per-thread buffer (no lock on the hot path) and
// only while recording is switched on, so the untraced run pays one
// relaxed load per decorated call — and the untraced end-to-end run does
// not install the decorators at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "anchord/conduit.hpp"
#include "chain/verifier.hpp"
#include "revocation/crlite.hpp"
#include "util/simsig.hpp"

namespace anchorbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Allocations made by the calling thread (the operator-new probe in
// trace.cpp counts per thread, so daemon threads never perturb a reading
// and the probe adds no shared cache line to the hot path).
std::uint64_t thread_allocs();

struct Span {
  const char* name = "";
  const char* parent = "";  // the layer that made the call
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;  // request id where known, else 0
  std::uint32_t thread = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double seconds = 0;
  double mean_us() const { return count == 0 ? 0 : seconds * 1e6 / count; }
};

class Tracer {
 public:
  static Tracer& instance();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  // Appends a span to the calling thread's buffer (no-op while off).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t request = 0);

  // The parent name stamped on spans this thread records from now on.
  static void set_thread_parent(const char* parent);

  // Count and summed duration per span name, over every thread; only
  // spans recorded under `parent` when one is given.
  std::map<std::string, SpanTotals> totals(const char* parent = nullptr) const;
  std::size_t span_count() const;
  void clear();

  // Writes every recorded span (up to `max_spans`) plus `summary` as JSON.
  bool write_json(const std::string& path, const std::string& summary,
                  std::size_t max_spans) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;  // guards buffers_ (registration and readout)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span: records [construction, destruction) under `name`.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), start_(Tracer::instance().on() ? now_ns() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (start_ != 0) Tracer::instance().record(name_, start_, now_ns());
  }

 private:
  const char* name_;
  std::uint64_t start_;
};

// SignatureScheme decorator: one "util.sig_verify" span per verify.
class TimingScheme final : public anchor::SignatureScheme {
 public:
  explicit TimingScheme(const anchor::SignatureScheme& inner) : inner_(inner) {}
  bool verify(anchor::BytesView key_id, anchor::BytesView message,
              anchor::BytesView signature) const override;

 private:
  const anchor::SignatureScheme& inner_;
};

// Conduit decorator for the daemon's end of a connection: one
// "anchord.conduit_io" span per read_some/write/write_some that moved bytes.
class TimingConduit final : public anchor::anchord::Conduit {
 public:
  explicit TimingConduit(std::unique_ptr<anchor::anchord::Conduit> inner)
      : inner_(std::move(inner)) {}
  bool write(anchor::BytesView data) override;
  int read_some(anchor::Bytes& out, std::size_t max, int timeout_ms) override;
  void close() override { inner_->close(); }
  int readiness_fd() const override { return inner_->readiness_fd(); }
  int write_some(anchor::BytesView data) override;
  int writable_fd() const override { return inner_->writable_fd(); }

 private:
  std::unique_ptr<anchor::anchord::Conduit> inner_;
};

// revocation::Provider decorator. ChainVerifier registers a store's
// filter by its concrete type, so the decorator is a CompressedRevocationSet
// carrying the same cascade: a store holding it answers every lookup
// exactly as the original would, and each check() records a
// "revocation.check" span.
class TimedCrlite final : public anchor::revocation::CompressedRevocationSet {
 public:
  explicit TimedCrlite(const CompressedRevocationSet& filter)
      : CompressedRevocationSet(filter) {}
  anchor::revocation::RevocationStatus check(
      const anchor::x509::Certificate& cert,
      anchor::BytesView issuer_spki) const override;
};

// GccHook that wraps GccExecutor::evaluate with a "core.gcc" span and
// folds the verdict exactly as ChainVerifier's default hook does.
anchor::chain::GccHook timed_gcc_hook(const anchor::core::GccExecutor& executor);

}  // namespace anchorbench
