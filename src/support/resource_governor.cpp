#include "support/resource_governor.h"

#include "support/failpoint.h"

namespace g2p {
namespace {

thread_local ResourceGovernor* t_current = nullptr;

[[noreturn]] void exhausted(ResourceLimit limit, std::uint64_t observed,
                            std::uint64_t cap) {
  throw ResourceExhausted(limit, observed, cap);
}

}  // namespace

const char* resource_limit_name(ResourceLimit limit) {
  switch (limit) {
    case ResourceLimit::kSourceBytes: return "source_bytes";
    case ResourceLimit::kTokens: return "tokens";
    case ResourceLimit::kAstNodes: return "ast_nodes";
    case ResourceLimit::kArenaBytes: return "arena_bytes";
    case ResourceLimit::kParseDepth: return "parse_depth";
    case ResourceLimit::kLoops: return "loops";
    case ResourceLimit::kWallClock: return "wall_clock";
  }
  return "unknown";
}

ResourceBudget ResourceBudget::unlimited() {
  ResourceBudget budget;
  budget.max_source_bytes = 0;
  budget.max_tokens = 0;
  budget.max_ast_nodes = 0;
  budget.max_arena_bytes = 0;
  budget.max_parse_depth = 0;
  budget.max_loops = 0;
  budget.frontend_budget_ms = 0;
  return budget;
}

ResourceGovernor::ResourceGovernor(const ResourceBudget& budget)
    : budget_(budget), start_(std::chrono::steady_clock::now()) {}

void ResourceGovernor::charge_source_bytes(std::uint64_t bytes) {
  if (budget_.max_source_bytes != 0 && bytes > budget_.max_source_bytes) {
    exhausted(ResourceLimit::kSourceBytes, bytes, budget_.max_source_bytes);
  }
}

void ResourceGovernor::charge_tokens(std::uint64_t n) {
  tokens_ += n;
  if (budget_.max_tokens != 0 && tokens_ > budget_.max_tokens) {
    exhausted(ResourceLimit::kTokens, tokens_, budget_.max_tokens);
  }
}

void ResourceGovernor::charge_nodes(std::uint64_t n) {
  nodes_ += n;
  if (budget_.max_ast_nodes != 0 && nodes_ > budget_.max_ast_nodes) {
    exhausted(ResourceLimit::kAstNodes, nodes_, budget_.max_ast_nodes);
  }
}

void ResourceGovernor::charge_loops(std::uint64_t n) {
  loops_ += n;
  if (budget_.max_loops != 0 && loops_ > budget_.max_loops) {
    exhausted(ResourceLimit::kLoops, loops_, budget_.max_loops);
  }
}

void ResourceGovernor::enter_recursion() {
  ++depth_;
  if (budget_.max_parse_depth != 0 && depth_ > budget_.max_parse_depth) {
    // Roll back the rejected entry so a caller that catches and continues
    // (or a non-local unwind past the guard) sees a consistent depth.
    --depth_;
    exhausted(ResourceLimit::kParseDepth, depth_ + 1, budget_.max_parse_depth);
  }
}

void ResourceGovernor::checkpoint() const {
  if (failpoint::triggered("governor.check")) {
    throw failpoint::FailpointError("governor.check");
  }
  if (budget_.frontend_budget_ms == 0) return;
  auto governed = spent_;
  if (clock_running_) governed += std::chrono::steady_clock::now() - start_;
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(governed);
  if (elapsed.count() >= 0 &&
      static_cast<std::uint64_t>(elapsed.count()) > budget_.frontend_budget_ms) {
    exhausted(ResourceLimit::kWallClock, static_cast<std::uint64_t>(elapsed.count()),
              budget_.frontend_budget_ms);
  }
}

void ResourceGovernor::clock_pause() {
  if (!clock_running_) return;
  spent_ += std::chrono::steady_clock::now() - start_;
  clock_running_ = false;
}

void ResourceGovernor::clock_resume() {
  if (clock_running_) return;
  start_ = std::chrono::steady_clock::now();
  clock_running_ = true;
}

ResourceGovernor* ResourceGovernor::current() { return t_current; }

GovernorScope::GovernorScope(ResourceGovernor* governor) : prev_(t_current) {
  // nullptr installs an ungoverned scope: clearing (not keeping) any outer
  // governor means a no-op scope can never silently charge an unrelated
  // request's budget when scopes nest.
  t_current = governor;
}

GovernorScope::~GovernorScope() { t_current = prev_; }

}  // namespace g2p
