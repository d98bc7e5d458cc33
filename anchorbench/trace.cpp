#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>

// Operator-new probe (as in bench_chain): every allocation bumps a
// thread-local counter, read through thread_allocs() around single-thread
// measurement loops.
namespace {
constinit thread_local std::uint64_t t_allocs = 0;
// Threads the benchmark does not own (the daemon's reactor and workers)
// record under "anchord.daemon".
constinit thread_local const char* t_parent = "anchord.daemon";
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace anchorbench {

std::uint64_t thread_allocs() { return t_allocs; }

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t request) {
  if (!on()) return;
  Buffer& buffer = local();
  buffer.spans.push_back(
      Span{name, t_parent, start_ns, end_ns, request, buffer.thread});
}

void Tracer::set_thread_parent(const char* parent) { t_parent = parent; }

std::map<std::string, SpanTotals> Tracer::totals(const char* parent) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> out;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (parent != nullptr && std::strcmp(span.parent, parent) != 0) continue;
      SpanTotals& t = out[span.name];
      ++t.count;
      t.seconds += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans.size();
  return n;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) buffer->spans.clear();
}

bool Tracer::write_json(const std::string& path, const std::string& summary,
                        std::size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"summary\": " << summary << ",\n"
      << "\"span_fields\": [\"name\", \"parent\", \"thread\", \"request\", "
         "\"start_ns\", \"end_ns\"],\n\"spans\": [";
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t written = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (written == max_spans) break;
      out << (written == 0 ? "\n" : ",\n") << "[\"" << span.name << "\", \""
          << span.parent << "\", " << span.thread << ", " << span.request
          << ", " << span.start_ns << ", " << span.end_ns << "]";
      ++written;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

bool TimingScheme::verify(anchor::BytesView key_id, anchor::BytesView message,
                          anchor::BytesView signature) const {
  ScopedSpan span("util.sig_verify");
  return inner_.verify(key_id, message, signature);
}

bool TimingConduit::write(anchor::BytesView data) {
  ScopedSpan span("anchord.conduit_io");
  return inner_->write(data);
}

int TimingConduit::read_some(anchor::Bytes& out, std::size_t max,
                             int timeout_ms) {
  const std::uint64_t start = now_ns();
  const int n = inner_->read_some(out, max, timeout_ms);
  // Only non-blocking reads are I/O time; a blocking read would be idle
  // waiting. The reactor always reads with timeout 0.
  if (timeout_ms == 0 && n > 0) {
    Tracer::instance().record("anchord.conduit_io", start, now_ns());
  }
  return n;
}

int TimingConduit::write_some(anchor::BytesView data) {
  ScopedSpan span("anchord.conduit_io");
  return inner_->write_some(data);
}

anchor::revocation::RevocationStatus TimedCrlite::check(
    const anchor::x509::Certificate& cert,
    anchor::BytesView issuer_spki) const {
  ScopedSpan span("revocation.check");
  return CompressedRevocationSet::check(cert, issuer_spki);
}

anchor::chain::GccHook timed_gcc_hook(
    const anchor::core::GccExecutor& executor) {
  return [&executor](const anchor::core::Chain& chain, std::string_view usage,
                     std::span<const anchor::core::Gcc> gccs,
                     const anchor::core::FactSet* context,
                     anchor::core::GccVerdict& verdict) {
    anchor::core::GccVerdict v;
    {
      ScopedSpan span("core.gcc");
      v = executor.evaluate(chain, usage, gccs, context);
    }
    verdict.gccs_evaluated += v.gccs_evaluated;
    verdict.facts_encoded += v.facts_encoded;
    verdict.stats.accumulate(v.stats);
    if (!v.allowed) verdict.failed_gcc = v.failed_gcc;
    return v.allowed;
  };
}

}  // namespace anchorbench
