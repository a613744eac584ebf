#include "core/suggest_cache.h"

#include "support/failpoint.h"

namespace g2p {

namespace {

std::size_t suggestions_bytes(const std::vector<LoopSuggestion>& suggestions) {
  std::size_t bytes = sizeof(std::vector<LoopSuggestion>);
  for (const auto& s : suggestions) {
    bytes += sizeof(LoopSuggestion) + s.loop_source.capacity() +
             s.function_name.capacity() + s.suggested_pragma.capacity() +
             s.veto_reason.capacity();
    for (const auto& clause : s.repaired_clauses) {
      bytes += sizeof(std::string) + clause.capacity();
    }
  }
  return bytes;
}

}  // namespace

std::size_t FrontendArtifact::approx_bytes() const {
  std::size_t bytes = sizeof(FrontendArtifact);
  if (parsed.arena) bytes += parsed.arena->bytes_reserved();
  for (const auto& loop : loops) {
    bytes += sizeof(ExtractedLoop) + loop.source.capacity();
  }
  for (const auto& g : graphs) {
    bytes += g.graph.nodes.capacity() * sizeof(HetNode) +
             g.graph.edges.capacity() * sizeof(HetEdge) +
             // unordered_map node overhead: bucket pointer + node (key,
             // value, hash, next) — ~6 words per entry in libstdc++.
             g.index_of.size() * 6 * sizeof(void*);
  }
  return bytes;
}

void SuggestCache::set_byte_cap(std::size_t byte_cap) {
  std::list<ResultEntry> result_victims;
  std::list<FrontendEntry> frontend_victims;
  std::lock_guard<std::mutex> lock(mutex_);
  byte_cap_ = byte_cap;
  results_.cap = byte_cap / 8;
  frontend_.cap = byte_cap - results_.cap;
  evict_to_cap(results_, result_victims);
  evict_to_cap(frontend_, frontend_victims);
}

template <typename Entry>
void SuggestCache::evict_to_cap(Tier<Entry>& tier, std::list<Entry>& victims) {
  while (tier.bytes > tier.cap && !tier.lru.empty()) {
    const Entry& victim = tier.lru.back();
    tier.bytes -= victim.bytes;
    tier.index.erase(victim.key);
    victims.splice(victims.end(), tier.lru, std::prev(tier.lru.end()));
    ++stats_.evictions;
  }
}

template <typename Entry>
void SuggestCache::remove(Tier<Entry>& tier, typename Tier<Entry>::Index::iterator it,
                          std::list<Entry>& victims) {
  tier.bytes -= it->second->bytes;
  victims.splice(victims.end(), tier.lru, it->second);
  tier.index.erase(it);
}

std::shared_ptr<const std::vector<LoopSuggestion>> SuggestCache::get_result(
    const Hash128& key, std::uint64_t model_stamp) {
  if (!enabled()) return nullptr;
  std::list<ResultEntry> victims;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = results_.index.find(key);
  if (it == results_.index.end()) return nullptr;
  if (it->second->model_stamp != model_stamp) {
    remove(results_, it, victims);  // stale checkpoint generation: drop on sight
    return nullptr;
  }
  results_.lru.splice(results_.lru.begin(), results_.lru, it->second);
  ++stats_.full_hits;
  stats_.frontend_saved_ns += it->second->frontend_ns;
  return it->second->value;
}

void SuggestCache::put_result(const Hash128& key, std::uint64_t model_stamp,
                              std::shared_ptr<const std::vector<LoopSuggestion>> value,
                              std::uint64_t frontend_ns) {
  if (!enabled() || !value) return;
  // Failpoint: a failed insert degrades the cache, never correctness — the
  // caller already holds the rendered result it is publishing.
  if (failpoint::triggered("cache.insert")) return;
  const std::size_t bytes = suggestions_bytes(*value) + sizeof(ResultEntry);
  std::list<ResultEntry> victims;
  std::lock_guard<std::mutex> lock(mutex_);
  if (bytes > results_.cap) return;  // would evict the whole tier for one entry
  auto it = results_.index.find(key);
  // Refresh (new stamp after reload, or concurrent builders racing).
  if (it != results_.index.end()) remove(results_, it, victims);
  results_.lru.push_front(ResultEntry{key, model_stamp, std::move(value), frontend_ns, bytes});
  results_.index[key] = results_.lru.begin();
  results_.bytes += bytes;
  evict_to_cap(results_, victims);
}

std::shared_ptr<const FrontendArtifact> SuggestCache::get_frontend(const Hash128& key) {
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = frontend_.index.find(key);
  if (it == frontend_.index.end()) return nullptr;
  frontend_.lru.splice(frontend_.lru.begin(), frontend_.lru, it->second);
  ++stats_.frontend_hits;
  stats_.frontend_saved_ns += it->second->value->frontend_ns;
  return it->second->value;
}

void SuggestCache::put_frontend(const Hash128& key,
                                std::shared_ptr<const FrontendArtifact> value) {
  if (!enabled() || !value) return;
  // Failpoint (checked outside the lock — a delay-action must not wedge
  // readers): the artifact is dropped, but the miss still happened and
  // stays counted so hit-rate stats remain truthful under injection.
  const bool drop = failpoint::triggered("cache.insert");
  const std::size_t bytes = value->approx_bytes() + sizeof(FrontendEntry);
  std::list<FrontendEntry> victims;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;  // a frontend insert happens exactly once per cold source
  if (drop) return;
  if (bytes > frontend_.cap) return;
  auto it = frontend_.index.find(key);
  if (it != frontend_.index.end()) remove(frontend_, it, victims);
  frontend_.lru.push_front(FrontendEntry{key, std::move(value), bytes});
  frontend_.index[key] = frontend_.lru.begin();
  frontend_.bytes += bytes;
  evict_to_cap(frontend_, victims);
}

void SuggestCache::invalidate_results() {
  std::list<ResultEntry> victims;
  std::lock_guard<std::mutex> lock(mutex_);
  victims.swap(results_.lru);
  results_.index.clear();
  results_.bytes = 0;
}

void SuggestCache::clear() {
  std::list<ResultEntry> result_victims;
  std::list<FrontendEntry> frontend_victims;
  std::lock_guard<std::mutex> lock(mutex_);
  result_victims.swap(results_.lru);
  results_.index.clear();
  results_.bytes = 0;
  frontend_victims.swap(frontend_.lru);
  frontend_.index.clear();
  frontend_.bytes = 0;
}

SuggestCache::Stats SuggestCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.result_entries = results_.lru.size();
  out.frontend_entries = frontend_.lru.size();
  out.result_bytes = results_.bytes;
  out.frontend_bytes = frontend_.bytes;
  return out;
}

}  // namespace g2p
