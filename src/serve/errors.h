// Typed errors of the fault-tolerant serving layer.
//
// The contract this taxonomy exists for: a slow or dropped answer must
// become a *typed* error on one future, never a hung client or a poisoned
// batch. Every way SuggestServer can decline a request has its own
// exception type, all rooted at ServeError, so clients can branch on
// catch clauses (retry Overloaded, surface DeadlineExceeded, re-resolve on
// ServerStopped) instead of parsing what() strings. Per-source *content*
// errors (a file that does not parse) keep surfacing as whatever the
// frontend threw — they are properties of the request, not of the server.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace g2p {

/// Root of the serving-layer error taxonomy.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The request's deadline expired before a result was produced. Raised by
/// the scheduler when it expels expired requests ahead of the batched
/// forward, and by the retry ladder when the remaining budget cannot cover
/// another attempt.
class DeadlineExceeded final : public ServeError {
 public:
  DeadlineExceeded() : ServeError("deadline exceeded before the request was served") {}
  explicit DeadlineExceeded(const std::string& what) : ServeError(what) {}
};

/// The server shed this request to protect itself: the scheduler popped it
/// in cache-only mode and it missed the cache. The request was never
/// partially executed — safe to retry elsewhere/later.
class Overloaded final : public ServeError {
 public:
  Overloaded() : ServeError("server overloaded: request shed") {}
  explicit Overloaded(const std::string& what) : ServeError(what) {}
};

/// The server stopped while this request was waiting: a submitter blocked
/// on backpressure when shutdown() arrived, or a request still queued when
/// the drain was abandoned.
class ServerStopped final : public ServeError {
 public:
  ServerStopped() : ServeError("server stopped before the request was served") {}
  explicit ServerStopped(const std::string& what) : ServeError(what) {}
};

/// Which per-request budget dimension a request exceeded. Order matches the
/// `ResourceBudget` fields (support/resource_governor.h) and the per-limit
/// counters in ServerStats.
enum class ResourceLimit : int {
  kSourceBytes = 0,  // raw source length (statically checkable at admission)
  kTokens,           // tokens produced by the lexer
  kAstNodes,         // parser AST nodes + aug-AST graph nodes
  kArenaBytes,       // bytes bump-allocated into the request's Arena
  kParseDepth,       // recursive-descent nesting depth
  kLoops,            // loops extracted from one translation unit
  kWallClock,        // soft frontend wall-clock budget
};

inline constexpr int kNumResourceLimits = 7;

/// Stable lowercase name for a limit (stats fields, bench JSON, messages).
const char* resource_limit_name(ResourceLimit limit);

/// The request exceeded one dimension of its ResourceBudget. A property of
/// the request, not of the server: fails only the offending slot (batch-mates
/// are unaffected) and is never retried by the SuggestServer ladder.
/// Carries which limit tripped plus the observed value and the cap so
/// callers and stats can attribute it.
class ResourceExhausted final : public ServeError {
 public:
  ResourceExhausted(ResourceLimit limit, std::uint64_t observed, std::uint64_t cap)
      : ServeError(std::string("resource budget exceeded: ") + resource_limit_name(limit) +
                   " (observed " + std::to_string(observed) + ", cap " +
                   std::to_string(cap) + ")"),
        limit_(limit),
        observed_(observed),
        cap_(cap) {}

  ResourceLimit limit() const { return limit_; }
  std::uint64_t observed() const { return observed_; }
  std::uint64_t cap() const { return cap_; }

 private:
  ResourceLimit limit_;
  std::uint64_t observed_;
  std::uint64_t cap_;
};

}  // namespace g2p
