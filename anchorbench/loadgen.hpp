// The load generator: one thread per connection, speaking the anchord
// wire protocol directly (pre-encoded frames, correlation id patched at
// send time), so the timed loop does no request assembly.
//
//   * open loop  — requests go out at their scheduled (Poisson) instants
//     whether or not earlier ones were answered; latency is measured from
//     when each request was due, so a stall shows up in every request it
//     delays, and `lag` records how late the generator itself ran;
//   * closed loop — a connection keeps a fixed number of frames in flight
//     and sends the next one only when a response arrives.
#pragma once

#include <cstdint>
#include <vector>

#include "anchord/conduit.hpp"
#include "harness.hpp"

namespace anchorbench {

// A batch entry's verdict, as far as the oracle compares it.
struct EntryVerdict {
  std::uint8_t kind = 0;
  bool ok = false;
  std::uint32_t chain_len = 0;
};

struct Outcome {
  std::uint32_t request = 0;  // index into Inputs::requests
  std::uint64_t due_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t done_ns = 0;  // 0: no response
  // Single verify: the verdict; verify-batch: kind/ok are the frame's.
  std::uint8_t kind = 0;
  bool ok = false;
  std::uint32_t chain_len = 0;
  std::uint64_t chain_hash = 0;  // FNV-1a over the accepted chain's DER
  std::uint64_t epoch = 0;
  std::uint64_t facts = 0;
  std::vector<EntryVerdict> entries;  // verify-batch only
};

// FNV-1a over the concatenated DER of a chain (what the oracle compares).
std::uint64_t chain_hash(const std::vector<anchor::Bytes>& chain_der);

struct ConnectionRun {
  std::vector<Outcome> outcomes;
  std::uint64_t transport_errors = 0;  // undecodable stream or closed
};

// Sends schedule[i] at start_ns + its offset; then waits for stragglers
// until `drain_until_ns`. Request ids are id_base + i.
ConnectionRun run_open_loop(
    anchor::anchord::Conduit& conduit, const Inputs& inputs,
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& schedule,
    std::uint64_t start_ns, std::uint64_t drain_until_ns, std::uint64_t id_base);

// Cycles through `cycle` from position `first`, `depth` frames in flight,
// until `end_ns`, then collects what is still in flight.
ConnectionRun run_closed_loop(anchor::anchord::Conduit& conduit,
                              const Inputs& inputs,
                              const std::vector<std::uint32_t>& cycle,
                              std::size_t first, std::size_t depth,
                              std::uint64_t end_ns, std::uint64_t id_base);

}  // namespace anchorbench
