// faultnet — deterministic, scripted fault injection for the socket/wire
// layer.
//
// A *fault plan* is a seeded script of rules, each naming a trigger (which
// rank, which wire operation or trainer phase, which epoch/step, the Nth
// matching occurrence) and an action:
//
//   refuse       a connect attempt fails as if ECONNREFUSED
//   reset        the connection is shut down mid-operation (both ends see
//                a typed "peer closed" error)
//   stall        the operation sleeps, driving the peer into its deadline
//                (typed "timed out" error — never a hang)
//   short_write  only a prefix of the frame leaves before the connection
//                is shut down
//   bitflip      one seeded payload bit is flipped AFTER the CRC is
//                computed, so the receiver's checksum check converts the
//                corruption into a typed dkfac::Error
//   abort        the process SIGKILLs itself (supervisor-visible death)
//
// Plans are parsed from `--fault-plan` / the DKFAC_FAULT_PLAN environment
// variable (grammar below) and execute deterministically: rule matching
// counts operations in program order and the bitflip position comes from a
// seeded splitmix64 stream, so the same plan reproduces the same fault at
// the same byte on every run.
//
// Grammar (semicolon-separated rules of comma-separated key=value fields):
//
//   plan   := rule (';' rule)*
//   rule   := field (',' field)*         e.g. "rank=2,op=send,nth=3,action=bitflip"
//   fields:
//     seed=N       (alone in a rule) seeds the plan's RNG (default 1)
//     rank=R       only this data-plane rank (default: any rank)
//     op=connect|send|recv|any          wire operation trigger
//     phase=step|forward|backward|grad_comm|apply   trainer-phase trigger
//                  (mutually exclusive with op=; supports stall and abort)
//     epoch=E      only while the rank's trainer is in epoch E
//     step=S       only while the rank's trainer is in step S of the epoch
//     nth=N        fire on the Nth matching occurrence (1-based, default 1)
//     times=K      keep firing for K consecutive matches (default 1)
//     action=refuse|reset|stall|short_write|bitflip|abort   (required)
//     arg=X        action argument: stall seconds (float, default 0.05) or
//                  short_write byte cap (default: half the frame)
//
// Numbers are plain decimal digits, no sign: seed, nth and times up to
// 2^64−1 with nth + times ≤ 2^64−1, rank and epoch up to 2^31−1, step up
// to 2^63−1; arg is a finite X with 0 ≤ X < 2^63 ns (about 292 years, what
// sleep_for can convert). Anything else throws dkfac::Error.
//
// When no plan is installed every hook reduces to one relaxed atomic load
// (`active()`), taken on the false branch — zero overhead and byte-
// identical wire traffic, which the socket/thread parity tests pin down.
// Every injection increments a `faultnet.injected.*` counter (surfaced in
// the per-step metrics) and emits a `faultnet.inject` trace instant.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dkfac::comm::net::faultnet {

enum class Op : uint8_t { kAny = 0, kConnect, kSend, kRecv };

enum class Phase : uint8_t {
  kNone = 0,  // not a phase-triggered rule
  kStep,
  kForward,
  kBackward,
  kGradComm,
  kApply,
};

enum class Action : uint8_t {
  kRefuse,
  kReset,
  kStall,
  kShortWrite,
  kBitflip,
  kAbort,
};

struct Rule {
  int rank = -1;           // -1 = any rank
  Op op = Op::kAny;        // wire-operation trigger (unless phase is set)
  Phase phase = Phase::kNone;
  int epoch = -1;          // -1 = any epoch
  int64_t step = -1;       // -1 = any step
  uint64_t nth = 1;        // fire on the Nth matching occurrence (1-based)
  uint64_t times = 1;      // consecutive matches to keep firing for
  Action action = Action::kReset;
  double stall_s = 0.05;   // action=stall sleep
  uint64_t write_cap = 0;  // action=short_write byte cap (0 = half frame)
};

struct Plan {
  uint64_t seed = 1;
  std::vector<Rule> rules;
};

/// Cumulative injections by action since the plan was installed.
struct InjectCounts {
  uint64_t refused = 0;
  uint64_t resets = 0;
  uint64_t stalls = 0;
  uint64_t short_writes = 0;
  uint64_t bitflips = 0;
  uint64_t aborts = 0;
  uint64_t total = 0;
};

/// Parses the plan grammar above; throws dkfac::Error naming the offending
/// field on any malformed rule.
Plan parse_plan(const std::string& text);

/// Installs `plan` process-wide (resetting all rule state and counters)
/// and flips active() on. An empty rule list flips it off.
void install(Plan plan);

/// Uninstalls any plan: active() turns false, hooks become no-ops.
void clear();

/// One-time pickup of DKFAC_FAULT_PLAN for this process (cheap no-op when
/// already attempted). A malformed env plan throws — a chaos experiment
/// silently running faultless would defeat its purpose.
void load_from_env();

namespace detail {
extern std::atomic<bool> g_active;
}

/// The single branch every wire hook sits behind. No plan → one relaxed
/// atomic load, false, and byte-identical traffic.
inline bool active() {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Data-plane rank of this process, for rank= rule matching. Set by
/// SocketComm after the rendezvous welcome; -1 (no rank-targeted rule
/// fires) until then.
void set_rank(int rank);

/// Training context for epoch=/step= rule matching, called by the trainer
/// at the top of every step. Also fires phase=step rules.
void set_step(int epoch, int64_t step);

/// Fires phase-triggered rules (stall or abort) at a trainer phase
/// boundary. Call only when active().
void at_phase(Phase phase);

/// Connect-attempt hook: true = this attempt must fail as ECONNREFUSED.
bool on_connect_attempt();

/// What the send path must do for the frame about to leave on `fd`.
/// Evaluated once per frame, AFTER the CRC is computed over `payload`.
struct SendFault {
  /// Payload to put on the wire — `payload` itself, or a scratch copy with
  /// one seeded bit flipped (the CRC in the header still covers the
  /// original, so the receiver detects the corruption).
  std::span<const uint8_t> payload;
  /// When set: send only this many bytes of header+payload, then shut the
  /// connection down and throw a typed error (injected short write).
  std::optional<size_t> truncate_after;
};

/// Send hook: may sleep (stall), shut `fd` down (reset), or SIGKILL the
/// process (abort) before returning. `scratch` backs a corrupted copy when
/// a bitflip rule fires. Call only when active().
SendFault on_send(int fd, std::span<const uint8_t> payload,
                  std::vector<uint8_t>& scratch);

/// Receive hook: may sleep, shut `fd` down, or SIGKILL the process before
/// the receive starts. Call only when active().
void on_recv(int fd);

/// Snapshot of the injection counters (atomics; safe from any thread).
InjectCounts counts();

}  // namespace dkfac::comm::net::faultnet
