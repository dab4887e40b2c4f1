#include "comm/net/faultnet.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "comm/net/wire.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace dkfac::comm::net::faultnet {

namespace detail {
std::atomic<bool> g_active{false};
}

namespace {

/// Per-rule runtime trigger state, parallel to the installed rule list.
struct RuleState {
  uint64_t matched = 0;
  uint64_t fired = 0;
};

// All mutable plan state behind one mutex: the hooks run from the training
// thread and the async comm executor, and injection frequency is low
// enough (bounded by the plan) that a lock is irrelevant next to a
// syscall. The off path never takes it.
std::mutex g_mu;
Plan g_plan;
std::vector<RuleState> g_state;
int g_rank = -1;
int g_epoch = -1;
int64_t g_step = -1;

std::atomic<uint64_t> g_refused{0};
std::atomic<uint64_t> g_resets{0};
std::atomic<uint64_t> g_stalls{0};
std::atomic<uint64_t> g_short_writes{0};
std::atomic<uint64_t> g_bitflips{0};
std::atomic<uint64_t> g_aborts{0};

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void count(Action action) {
  switch (action) {
    case Action::kRefuse: g_refused.fetch_add(1, std::memory_order_relaxed); break;
    case Action::kReset: g_resets.fetch_add(1, std::memory_order_relaxed); break;
    case Action::kStall: g_stalls.fetch_add(1, std::memory_order_relaxed); break;
    case Action::kShortWrite:
      g_short_writes.fetch_add(1, std::memory_order_relaxed);
      break;
    case Action::kBitflip: g_bitflips.fetch_add(1, std::memory_order_relaxed); break;
    case Action::kAbort: g_aborts.fetch_add(1, std::memory_order_relaxed); break;
  }
  DKFAC_TRACE_INSTANT("faultnet.inject");
}

/// First rule whose trigger matches this occurrence and whose nth/times
/// window admits a firing; advances every matching rule's counter either
/// way. Returns the rule index, or -1.
int match_locked(Op op, Phase phase) {
  int firing = -1;
  for (size_t i = 0; i < g_plan.rules.size(); ++i) {
    const Rule& rule = g_plan.rules[i];
    if (phase == Phase::kNone) {
      if (rule.phase != Phase::kNone) continue;
      if (rule.op != Op::kAny && rule.op != op) continue;
    } else {
      if (rule.phase != phase) continue;
    }
    if (rule.rank >= 0 && rule.rank != g_rank) continue;
    if (rule.epoch >= 0 && rule.epoch != g_epoch) continue;
    if (rule.step >= 0 && rule.step != g_step) continue;
    RuleState& state = g_state[i];
    ++state.matched;
    if (firing < 0 && state.matched >= rule.nth &&
        state.matched < rule.nth + rule.times) {
      ++state.fired;
      firing = static_cast<int>(i);
    }
  }
  return firing;
}

[[noreturn]] void abort_self() {
  DKFAC_LOG_WARN << "faultnet: injected abort — SIGKILLing this process";
  ::kill(::getpid(), SIGKILL);
  _exit(137);  // unreachable; keeps [[noreturn]] honest if SIGKILL races
}

void stall(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

const char* action_name(Action a) {
  switch (a) {
    case Action::kRefuse: return "refuse";
    case Action::kReset: return "reset";
    case Action::kStall: return "stall";
    case Action::kShortWrite: return "short_write";
    case Action::kBitflip: return "bitflip";
    case Action::kAbort: return "abort";
  }
  return "?";
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::string trim(const std::string& s) {
  const size_t a = s.find_first_not_of(" \t\n");
  if (a == std::string::npos) return "";
  const size_t z = s.find_last_not_of(" \t\n");
  return s.substr(a, z - a + 1);
}

/// A field's decimal value: digits only (no sign, no blank) and no larger
/// than the field's type holds.
template <typename T>
T parse_number(const std::string& value, const std::string& field) {
  constexpr auto kMax = static_cast<uint64_t>(std::numeric_limits<T>::max());
  uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [stop, err] = std::from_chars(value.data(), end, v);
  if (err != std::errc() || stop != end || v > kMax) {
    throw Error("faultnet: fault plan field '" + field + "=" + value +
                "' is not a whole number in [0, " + std::to_string(kMax) +
                "]");
  }
  return static_cast<T>(v);
}

/// Longest stall: sleep_for converts its argument to an integer count of
/// the clock's nanoseconds, which holds about 292 years.
constexpr double kMaxStallSeconds =
    std::chrono::duration<double>(std::chrono::nanoseconds::max()).count();

/// arg=X for any action but short_write: a finite, non-negative number of
/// stall seconds below kMaxStallSeconds.
double parse_arg(const std::string& value) {
  double v = 0.0;
  const char* end = value.data() + value.size();
  const auto [stop, err] = std::from_chars(value.data(), end, v);
  if (err != std::errc() || stop != end || !(v >= 0.0) ||
      !(v < kMaxStallSeconds)) {
    throw Error("faultnet: bad arg '" + value +
                "' in fault plan: want a number in [0, " +
                std::to_string(kMaxStallSeconds) + ")");
  }
  return v;
}

}  // namespace

Plan parse_plan(const std::string& text) {
  Plan plan;
  for (const std::string& raw_rule : split(text, ';')) {
    const std::string rule_text = trim(raw_rule);
    if (rule_text.empty()) continue;
    Rule rule;
    bool has_action = false;
    bool seed_only = false;
    bool has_op = false;
    std::optional<std::string> arg;  // read once the action is known
    for (const std::string& raw_field : split(rule_text, ',')) {
      const std::string field = trim(raw_field);
      const size_t eq = field.find('=');
      DKFAC_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < field.size())
          << "faultnet: fault plan field '" << field << "' is not key=value";
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "seed") {
        plan.seed = parse_number<uint64_t>(value, key);
        seed_only = true;
      } else if (key == "rank") {
        rule.rank = parse_number<int>(value, key);
      } else if (key == "op") {
        has_op = true;
        if (value == "connect") rule.op = Op::kConnect;
        else if (value == "send") rule.op = Op::kSend;
        else if (value == "recv") rule.op = Op::kRecv;
        else if (value == "any") rule.op = Op::kAny;
        else throw Error("faultnet: unknown op '" + value + "' in fault plan");
      } else if (key == "phase") {
        if (value == "step") rule.phase = Phase::kStep;
        else if (value == "forward") rule.phase = Phase::kForward;
        else if (value == "backward") rule.phase = Phase::kBackward;
        else if (value == "grad_comm") rule.phase = Phase::kGradComm;
        else if (value == "apply") rule.phase = Phase::kApply;
        else throw Error("faultnet: unknown phase '" + value + "' in fault plan");
      } else if (key == "epoch") {
        rule.epoch = parse_number<int>(value, key);
      } else if (key == "step") {
        rule.step = parse_number<int64_t>(value, key);
      } else if (key == "nth") {
        rule.nth = parse_number<uint64_t>(value, key);
        DKFAC_CHECK(rule.nth >= 1) << "faultnet: nth is 1-based";
      } else if (key == "times") {
        rule.times = parse_number<uint64_t>(value, key);
        DKFAC_CHECK(rule.times >= 1) << "faultnet: times must be >= 1";
      } else if (key == "action") {
        has_action = true;
        if (value == "refuse") rule.action = Action::kRefuse;
        else if (value == "reset") rule.action = Action::kReset;
        else if (value == "stall") rule.action = Action::kStall;
        else if (value == "short_write") rule.action = Action::kShortWrite;
        else if (value == "bitflip") rule.action = Action::kBitflip;
        else if (value == "abort") rule.action = Action::kAbort;
        else throw Error("faultnet: unknown action '" + value + "' in fault plan");
      } else if (key == "arg") {
        arg = value;
      } else {
        throw Error("faultnet: unknown fault plan key '" + key + "'");
      }
    }
    if (arg && rule.action == Action::kShortWrite) {
      rule.write_cap = parse_number<uint64_t>(*arg, "arg");
    } else if (arg) {
      rule.stall_s = parse_arg(*arg);
    }
    if (seed_only && !has_action && !has_op && rule.phase == Phase::kNone) {
      continue;  // a bare "seed=N" rule only configures the plan RNG
    }
    DKFAC_CHECK(has_action)
        << "faultnet: fault plan rule '" << rule_text << "' has no action=";
    // The firing window is [nth, nth + times): its end must not wrap.
    DKFAC_CHECK(rule.times <= std::numeric_limits<uint64_t>::max() - rule.nth)
        << "faultnet: nth + times overflows in rule '" << rule_text << "'";
    if (rule.phase != Phase::kNone) {
      DKFAC_CHECK(!has_op)
          << "faultnet: rule '" << rule_text << "' mixes op= and phase=";
      DKFAC_CHECK(rule.action == Action::kStall || rule.action == Action::kAbort)
          << "faultnet: phase rules support only stall/abort, got "
          << action_name(rule.action);
    }
    if (rule.action == Action::kRefuse) {
      DKFAC_CHECK(rule.op == Op::kConnect)
          << "faultnet: action=refuse requires op=connect";
    }
    if (rule.action == Action::kBitflip || rule.action == Action::kShortWrite) {
      DKFAC_CHECK(rule.op == Op::kSend)
          << "faultnet: action=" << action_name(rule.action)
          << " requires op=send";
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

void install(Plan plan) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_plan = std::move(plan);
  g_state.assign(g_plan.rules.size(), RuleState{});
  g_rank = -1;
  g_epoch = -1;
  g_step = -1;
  g_refused = g_resets = g_stalls = 0;
  g_short_writes = g_bitflips = g_aborts = 0;
  detail::g_active.store(!g_plan.rules.empty(), std::memory_order_relaxed);
}

void clear() { install(Plan{}); }

void load_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* text = std::getenv("DKFAC_FAULT_PLAN");
    if (text == nullptr || *text == '\0') return;
    install(parse_plan(text));
    DKFAC_LOG_INFO << "faultnet: fault plan armed (" << text << ")";
  });
}

void set_rank(int rank) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_rank = rank;
}

void at_phase(Phase phase) {
  Action action;
  double stall_s;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    const int idx = match_locked(Op::kAny, phase);
    if (idx < 0) return;
    action = g_plan.rules[static_cast<size_t>(idx)].action;
    stall_s = g_plan.rules[static_cast<size_t>(idx)].stall_s;
  }
  count(action);
  if (action == Action::kAbort) abort_self();
  stall(stall_s);
}

void set_step(int epoch, int64_t step) {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_epoch = epoch;
    g_step = step;
  }
  at_phase(Phase::kStep);
}

bool on_connect_attempt() {
  Action action;
  double stall_s;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    const int idx = match_locked(Op::kConnect, Phase::kNone);
    if (idx < 0) return false;
    action = g_plan.rules[static_cast<size_t>(idx)].action;
    stall_s = g_plan.rules[static_cast<size_t>(idx)].stall_s;
  }
  count(action);
  switch (action) {
    case Action::kAbort:
      abort_self();
    case Action::kStall:
      stall(stall_s);
      return false;
    default:
      // refuse (and reset, which a connect cannot distinguish from): the
      // attempt fails as ECONNREFUSED and rides the normal retry/backoff.
      return true;
  }
}

SendFault on_send(int fd, std::span<const uint8_t> payload,
                  std::vector<uint8_t>& scratch) {
  SendFault fault{payload, std::nullopt};
  int idx;
  Rule rule;
  uint64_t fired;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    idx = match_locked(Op::kSend, Phase::kNone);
    if (idx < 0) return fault;
    rule = g_plan.rules[static_cast<size_t>(idx)];
    fired = g_state[static_cast<size_t>(idx)].fired;
  }
  count(rule.action);
  switch (rule.action) {
    case Action::kAbort:
      abort_self();
    case Action::kStall:
      stall(rule.stall_s);
      return fault;
    case Action::kReset:
      // Both directions die: our pending send fails with EPIPE, the peer's
      // read sees EOF — each side gets its typed "peer closed" error.
      ::shutdown(fd, SHUT_RDWR);
      return fault;
    case Action::kShortWrite: {
      const size_t total = kFrameHeaderBytes + payload.size();
      size_t cap = rule.write_cap > 0
                       ? static_cast<size_t>(rule.write_cap)
                       : total / 2;
      fault.truncate_after = std::min(cap, total > 0 ? total - 1 : 0);
      return fault;
    }
    case Action::kBitflip: {
      if (payload.empty()) return fault;  // nothing to corrupt — header CRC
                                          // already covers length 0
      scratch.assign(payload.begin(), payload.end());
      const uint64_t pick =
          splitmix64(g_plan.seed ^
                     (static_cast<uint64_t>(idx) * 0x100000001B3ull + fired));
      const uint64_t bit = pick % (scratch.size() * 8);
      scratch[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      fault.payload = std::span<const uint8_t>(scratch.data(), scratch.size());
      return fault;
    }
    default:
      return fault;
  }
}

void on_recv(int fd) {
  Action action;
  double stall_s;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    const int idx = match_locked(Op::kRecv, Phase::kNone);
    if (idx < 0) return;
    action = g_plan.rules[static_cast<size_t>(idx)].action;
    stall_s = g_plan.rules[static_cast<size_t>(idx)].stall_s;
  }
  count(action);
  switch (action) {
    case Action::kAbort:
      abort_self();
    case Action::kStall:
      stall(stall_s);
      return;
    default:
      // reset: kill the connection under the pending receive — it fails
      // with a typed "peer closed the connection".
      ::shutdown(fd, SHUT_RDWR);
      return;
  }
}

InjectCounts counts() {
  InjectCounts c;
  c.refused = g_refused.load(std::memory_order_relaxed);
  c.resets = g_resets.load(std::memory_order_relaxed);
  c.stalls = g_stalls.load(std::memory_order_relaxed);
  c.short_writes = g_short_writes.load(std::memory_order_relaxed);
  c.bitflips = g_bitflips.load(std::memory_order_relaxed);
  c.aborts = g_aborts.load(std::memory_order_relaxed);
  c.total = c.refused + c.resets + c.stalls + c.short_writes + c.bitflips +
            c.aborts;
  return c;
}

}  // namespace dkfac::comm::net::faultnet
