#pragma once
// Execution statistics for a CONGEST run.
//
// Rounds are the paper's complexity measure; messages and bits are tracked
// so benches can verify the Appendix B claim that every message fits in
// O(log n) bits (E9 in DESIGN.md).

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace hypercover::congest {

class ThreadPool;

struct RoundStats {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint32_t max_message_bits = 0;
};

struct RunStats {
  /// Number of synchronous communication rounds executed.
  std::uint32_t rounds = 0;
  /// True if every node halted before the round limit.
  bool completed = false;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  /// Largest single message observed, in bits.
  std::uint32_t max_message_bits = 0;
  /// The CONGEST bandwidth bound this run was checked against
  /// (bandwidth_factor * ceil(log2(#network nodes))), in bits.
  std::uint32_t bandwidth_limit_bits = 0;
  /// Messages that exceeded the bound (0 in a compliant protocol).
  std::uint64_t bandwidth_violations = 0;
  /// Digest of the full message transcript: which link carried how many
  /// bits in which round and direction. Each round that carried a message
  /// chains the sum mod 2^64 of its messages' terms (an AdHash multiset
  /// hash), so the value does not depend on the order of sends within a
  /// round, nor on the thread count; equal inputs give equal hashes.
  std::uint64_t transcript_hash = 0;
  /// Per-round breakdown (kept only when Options::keep_round_stats).
  std::vector<RoundStats> per_round;

  // Engine work accounting (scheduler cost, not protocol semantics).
  // These measure how many items the engine touched, so the frontier
  // optimization is verifiable: a late sparse round costs O(live acting
  // agents + presence lines hit). None of them feed the transcript hash.
  /// step() invocations: in each round, the acting side's live agents
  /// (vertices in even rounds, edges in odd ones). The idle side is never
  /// stepped, so this counts each live agent about every other round.
  std::uint64_t agent_steps = 0;
  /// Presence bytes wiped when a direction that was read retires: 64 per
  /// marked presence line, capped at the link count, so a round that
  /// retires a saturated direction counts every link.
  std::uint64_t slots_processed = 0;
  /// CPU timestamp-counter ticks (congest::cycle_now) spent in the
  /// agent-stepping phase, summed over rounds. A wall-clock-like work
  /// metric — NOT deterministic, never part of the transcript hash;
  /// consumers derive cycles-per-agent-step as step_cycles / agent_steps.
  std::uint64_t step_cycles = 0;
  /// The same kind of ticks spent closing rounds: folding the shards'
  /// send tallies plus buffer retirement. (Each message is tallied at
  /// send time, inside step_cycles.) Not deterministic, never hashed,
  /// never on the wire.
  std::uint64_t account_cycles = 0;
};

std::ostream& operator<<(std::ostream& os, const RunStats& s);

/// Engine configuration.
struct Options {
  /// Hard stop against non-terminating protocols.
  std::uint32_t max_rounds = 1u << 20;
  /// CONGEST allows messages of c * log2(network size) bits; this is c.
  /// Violations are recorded, not fatal (tests assert the count is 0).
  std::uint32_t bandwidth_factor = 4;
  /// Retain per-round message statistics (costs memory on long runs).
  bool keep_round_stats = false;
  /// Worker threads used to step agents inside a round. 1 = sequential,
  /// 0 = one per hardware thread. Any value produces bit-identical runs:
  /// agents only touch their own state plus per-link slots, and each
  /// shard's send tally is folded by sums and a max, so neither the
  /// totals nor the order-free transcript hash depend on scheduling.
  std::uint32_t threads = 1;
  /// External-pool mode: a borrowed worker pool the engine dispatches its
  /// rounds on instead of constructing one of its own. Non-owning; the
  /// pool must outlive the engine, and `threads` is ignored (the pool's
  /// size governs sharding). Engines sharing one pool must not execute
  /// rounds concurrently — a scheduler (api::BatchScheduler) serializes
  /// or isolates them. Transcripts stay bit-identical: the pool size only
  /// changes how work is sharded, never what the protocol observes.
  ThreadPool* pool = nullptr;
};

}  // namespace hypercover::congest
