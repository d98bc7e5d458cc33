#include "loadgen.hpp"

#include <poll.h>
#include <sys/prctl.h>

#include <ctime>

#include "anchord/wire.hpp"
#include "net/transport.hpp"

namespace anchorbench {

using namespace anchor;

std::uint64_t chain_hash(const std::vector<Bytes>& chain_der) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Bytes& der : chain_der) {
    for (std::uint8_t b : der) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // separator, so certificate boundaries count
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr std::size_t kReadChunk = 1 << 16;

// The generator sleeps in ppoll until the next request is due; the default
// 50 us timer slack would make it send that much late.
void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

// Reads whatever the daemon has sent and records each decoded response in
// the outcome its correlation id names.
class Receiver {
 public:
  Receiver(anchord::Conduit& conduit, std::uint64_t id_base,
           std::vector<Outcome>& outcomes)
      : conduit_(conduit), id_base_(id_base), outcomes_(outcomes) {}

  // Waits up to `timeout_ns` for readability, then drains. Returns the
  // number of responses completed, or -1 when the stream broke.
  long poll_and_drain(std::uint64_t timeout_ns) {
    struct pollfd pfd {};
    pfd.fd = conduit_.readiness_fd();
    pfd.events = POLLIN;
    struct timespec ts {};
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ULL);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ULL);
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc <= 0) return 0;
    return drain();
  }

 private:
  long drain() {
    long completed = 0;
    for (;;) {
      std::uint64_t t0 = now_ns();
      const int n = conduit_.read_some(buffer_, kReadChunk, 0);
      if (n < 0) return -1;
      if (n == 0) break;
      Tracer::instance().record("anchord.conduit_io", t0, now_ns());
    }
    std::size_t offset = 0;
    for (;;) {
      auto frame = net::decode_frame_view(
          BytesView(buffer_).subspan(offset));
      if (!frame) return -1;
      if (!frame.value().complete) break;
      offset += frame.value().consumed;
      if (frame.value().type != net::MsgType::kResponse) continue;  // alert
      const std::uint64_t t0 = now_ns();
      auto response =
          anchord::decode_response(frame.value().type, frame.value().payload);
      const std::uint64_t t1 = now_ns();
      if (!response) return -1;
      const anchord::Response& r = response.value();
      const std::uint64_t index = r.correlation_id - id_base_;
      if (index >= outcomes_.size() || outcomes_[index].done_ns != 0) return -1;
      Outcome& out = outcomes_[index];
      out.done_ns = t1;
      out.kind = static_cast<std::uint8_t>(r.kind);
      out.ok = r.ok;
      out.chain_len = r.stats.chain_len;
      out.epoch = r.stats.epoch;
      out.facts = r.stats.facts_encoded;
      if (!r.chain_der.empty()) out.chain_hash = chain_hash(r.chain_der);
      for (const auto& v : r.batch) {
        out.entries.push_back(
            {static_cast<std::uint8_t>(v.kind), v.ok, v.chain_len});
      }
      Tracer& tracer = Tracer::instance();
      tracer.record("anchord.codec", t0, t1, r.correlation_id);
      tracer.record("loadgen.request", out.due_ns, t1, r.correlation_id);
      ++completed;
    }
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset));
    return completed;
  }

  anchord::Conduit& conduit_;
  std::uint64_t id_base_;
  std::vector<Outcome>& outcomes_;
  Bytes buffer_;
};

bool send_frame(anchord::Conduit& conduit, const Inputs& inputs,
                Outcome& out, std::uint64_t id, Bytes& scratch) {
  scratch = inputs.requests[out.request].frame;
  patch_correlation_id(scratch, id);
  out.send_ns = now_ns();
  const bool sent = conduit.write(scratch);
  Tracer& tracer = Tracer::instance();
  tracer.record("loadgen.lag", out.due_ns, out.send_ns, id);
  tracer.record("anchord.conduit_io", out.send_ns, now_ns(), id);
  return sent;
}

}  // namespace

ConnectionRun run_open_loop(
    anchord::Conduit& conduit, const Inputs& inputs,
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& schedule,
    std::uint64_t start_ns, std::uint64_t drain_until_ns,
    std::uint64_t id_base) {
  Tracer::set_thread_parent("loadgen.request");
  tighten_timer_slack();
  ConnectionRun run;
  run.outcomes.resize(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    run.outcomes[i].request = schedule[i].second;
    run.outcomes[i].due_ns = start_ns + schedule[i].first;
  }
  Receiver receiver(conduit, id_base, run.outcomes);
  Bytes scratch;
  std::size_t next = 0;
  std::size_t done = 0;
  while (done < schedule.size()) {
    const std::uint64_t now = now_ns();
    if (next < schedule.size() && now >= run.outcomes[next].due_ns) {
      if (!send_frame(conduit, inputs, run.outcomes[next], id_base + next,
                      scratch)) {
        ++run.transport_errors;
        break;
      }
      ++next;
      continue;
    }
    std::uint64_t wait = 0;
    if (next < schedule.size()) {
      wait = run.outcomes[next].due_ns - now;
    } else if (now < drain_until_ns) {
      wait = drain_until_ns - now;
    } else {
      break;  // stragglers past the drain deadline count as failed
    }
    const long completed = receiver.poll_and_drain(wait);
    if (completed < 0) {
      ++run.transport_errors;
      break;
    }
    done += static_cast<std::size_t>(completed);
  }
  return run;
}

ConnectionRun run_closed_loop(anchord::Conduit& conduit, const Inputs& inputs,
                              const std::vector<std::uint32_t>& cycle,
                              std::size_t first, std::size_t depth,
                              std::uint64_t end_ns, std::uint64_t id_base) {
  Tracer::set_thread_parent("loadgen.request");
  tighten_timer_slack();
  ConnectionRun run;
  Receiver receiver(conduit, id_base, run.outcomes);
  Bytes scratch;
  std::size_t sent = 0;
  std::size_t done = 0;
  const std::uint64_t drain_until = end_ns + 5'000'000'000ULL;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now < end_ns && sent - done < depth) {
      Outcome& out = run.outcomes.emplace_back();
      out.request = cycle[(first + sent) % cycle.size()];
      out.due_ns = now;
      if (!send_frame(conduit, inputs, out, id_base + sent, scratch)) {
        ++run.transport_errors;
        break;
      }
      ++sent;
      continue;
    }
    if (done == sent && now >= end_ns) break;
    if (now >= drain_until) break;
    const long completed = receiver.poll_and_drain(
        now < end_ns ? end_ns - now : drain_until - now);
    if (completed < 0) {
      ++run.transport_errors;
      break;
    }
    done += static_cast<std::size_t>(completed);
  }
  return run;
}

}  // namespace anchorbench
