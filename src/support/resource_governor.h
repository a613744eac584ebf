// Per-request resource governor: cooperative budgets for adversarial input.
//
// The frontend lexes and parses arbitrary user-supplied C with a recursive-
// descent parser over a bump-pointer Arena — without limits, one pathological
// source (`((((…))))`, a megabyte of nested blocks, a token bomb) can blow
// the stack or exhaust memory and kill a process the chaos harness certifies
// as highly available. The governor closes that gap: a `ResourceBudget`
// travels with each request from SuggestServer admission through lexing,
// parsing, loop extraction, aug-AST build, and verification, and every
// allocation/recursion site charges it cooperatively. Exceeding any
// dimension throws the typed `ResourceExhausted` (serve/errors.h), which the
// serving layer treats as a *request-scoped* error: it fails only the
// offending slot — never batch-mates — and triggers no retry.
//
// The budget is carried by a thread-local `GovernorScope` (the same RAII
// idiom as NoGradGuard) rather than threaded through every frontend
// signature: one request's frontend work runs entirely on one worker thread
// per stage, and code that runs outside serving (training, tests, tools)
// simply sees no governor and only the parser's built-in depth backstop.
#pragma once

#include <chrono>
#include <cstdint>

#include "serve/errors.h"

namespace g2p {

/// Per-request caps. A cap of 0 disables that dimension. Defaults are sized
/// for generous real-world translation units (whole benchmark files), yet
/// small enough that a poison request dies in milliseconds, not seconds.
struct ResourceBudget {
  std::uint64_t max_source_bytes = 2ull << 20;  // 2 MiB of raw source
  std::uint64_t max_tokens = 1u << 20;          // ~1M lexed tokens
  std::uint64_t max_ast_nodes = 1u << 19;       // parser + aug-AST nodes
  std::uint64_t max_arena_bytes = 64ull << 20;  // 64 MiB bump-allocated
  std::uint32_t max_parse_depth = 200;          // recursive-descent nesting
  std::uint64_t max_loops = 4096;               // loops extracted per TU
  std::uint32_t frontend_budget_ms = 0;         // soft wall clock (0 = off)

  /// All dimensions disabled (the pre-governor behaviour, minus the
  /// parser's hard depth backstop which always applies).
  static ResourceBudget unlimited();
};

/// Mutable per-request tally against one ResourceBudget. Not thread-safe:
/// one request's frontend stage runs on one thread (install via
/// GovernorScope); successive stages of the same request may run on
/// different threads, which is safe because stages never overlap.
class ResourceGovernor {
 public:
  explicit ResourceGovernor(const ResourceBudget& budget);

  const ResourceBudget& budget() const { return budget_; }

  /// Static admission check: throws ResourceExhausted(kSourceBytes) if the
  /// raw source alone exceeds the budget.
  void charge_source_bytes(std::uint64_t bytes);

  /// Cumulative charges; each throws the matching ResourceExhausted once
  /// the running total crosses its cap.
  void charge_tokens(std::uint64_t n);
  void charge_nodes(std::uint64_t n);
  void charge_loops(std::uint64_t n);

  /// Recursion accounting for the parser's depth guard.
  void enter_recursion();
  void leave_recursion() { --depth_; }
  std::uint32_t depth() const { return depth_; }

  /// Soft wall-clock check (also hosts the `governor.check` failpoint).
  /// Called between frontend stages and per aug-AST graph — cooperative.
  /// The forward is not checked: the node caps already bound its work.
  void checkpoint() const;

  /// The wall-clock budget charges only time spent inside this request's
  /// governed work (frontend, verify) — never the shared model stage or
  /// batch queueing, which would let a batch-mate's latency trip a clean
  /// request's budget. A stage that hands off pauses the clock; the next
  /// governed stage resumes it. The clock starts running at construction.
  void clock_pause();
  void clock_resume();

  std::uint64_t tokens() const { return tokens_; }
  std::uint64_t nodes() const { return nodes_; }
  std::uint64_t loops() const { return loops_; }

  /// Governor installed on this thread by the innermost GovernorScope, or
  /// nullptr outside serving.
  static ResourceGovernor* current();

 private:
  ResourceBudget budget_;
  std::uint64_t tokens_ = 0;
  std::uint64_t nodes_ = 0;
  std::uint64_t loops_ = 0;
  std::uint32_t depth_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::duration spent_{};  // completed governed spans
  bool clock_running_ = true;
};

/// RAII installer of the thread-local current governor. Accepts nullptr,
/// which installs an *ungoverned* scope — it clears any governor an outer
/// scope left on this thread, so work under a null scope never charges an
/// unrelated request's budget — and restores the previous governor on exit.
class GovernorScope {
 public:
  explicit GovernorScope(ResourceGovernor* governor);
  ~GovernorScope();

  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  ResourceGovernor* prev_;
};

}  // namespace g2p
