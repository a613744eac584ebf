#include "nn/module.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "support/failpoint.h"

namespace g2p {

namespace {

// Trailing integrity record appended after the parameter payload:
// 8 magic bytes + FNV-1a 64 of every payload byte that precedes it. A
// bit-flipped checkpoint passes the structural checks (counts and sizes
// still parse) but not this one. The trailer is required: a stream that ends
// at the last float, or carries a partial or mismatched trailer, is
// corruption and rejects.
constexpr char kChecksumMagic[8] = {'G', '2', 'P', 'C', 'K', 'S', 'M', '1'};

std::uint64_t fnv1a64_update(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

}  // namespace

void Module::save(std::ostream& out) const {
  std::uint64_t sum = kFnvOffset;
  const std::uint64_t count = params_.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  sum = fnv1a64_update(sum, &count, sizeof(count));
  for (const auto& p : params_) {
    const std::uint64_t n = p.numel();
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(p.data().data()),
              static_cast<std::streamsize>(n * sizeof(float)));
    sum = fnv1a64_update(sum, &n, sizeof(n));
    sum = fnv1a64_update(sum, p.data().data(), n * sizeof(float));
  }
  out.write(kChecksumMagic, sizeof(kChecksumMagic));
  out.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
}

void Module::load(std::istream& in) {
  // Two phases: stage the whole stream into scratch, then commit. A
  // truncated or corrupt checkpoint must throw *before* any parameter is
  // touched — a mid-serving reload that fails leaves the previous
  // generation's weights fully intact, never a half-loaded model.
  std::uint64_t sum = kFnvOffset;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || count != params_.size()) {
    throw std::runtime_error("Module::load: parameter count mismatch (" +
                             std::to_string(count) + " vs " + std::to_string(params_.size()) +
                             ")");
  }
  sum = fnv1a64_update(sum, &count, sizeof(count));
  std::vector<std::vector<float>> staged(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in || n != params_[i].numel()) {
      throw std::runtime_error("Module::load: parameter size mismatch");
    }
    staged[i].resize(n);
    in.read(reinterpret_cast<char*>(staged[i].data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (!in) throw std::runtime_error("Module::load: truncated stream");
    sum = fnv1a64_update(sum, &n, sizeof(n));
    sum = fnv1a64_update(sum, staged[i].data(), n * sizeof(float));
  }
  // Integrity trailer: exactly magic + matching checksum of the payload
  // above, and nothing after it.
  char trailer[sizeof(kChecksumMagic) + sizeof(std::uint64_t)];
  in.read(trailer, sizeof(trailer));
  if (in.gcount() != sizeof(trailer) ||
      std::memcmp(trailer, kChecksumMagic, sizeof(kChecksumMagic)) != 0) {
    throw std::runtime_error("Module::load: missing or malformed checksum trailer");
  }
  std::uint64_t recorded = 0;
  std::memcpy(&recorded, trailer + sizeof(kChecksumMagic), sizeof(recorded));
  if (recorded != sum) {
    throw std::runtime_error("Module::load: checksum mismatch (corrupt checkpoint)");
  }
  char extra = 0;
  in.read(&extra, 1);
  if (in.gcount() != 0) throw std::runtime_error("Module::load: trailing garbage");
  // Commit: every read succeeded. data() bumps each TensorImpl::version, so
  // fused-weight caches keyed on parameter stamps rebuild as usual.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), params_[i].data().begin());
  }
}

bool Module::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  save(out);
  out.flush();
  return out.good();
}

bool Module::load_file(const std::string& path) {
  // Failpoint: a checkpoint-IO fault fails the load exactly like a missing
  // file — the caller keeps the weights it already had (load() is staged).
  if (failpoint::triggered("checkpoint.load")) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  try {
    load(in);
  } catch (const std::exception&) {
    return false;  // truncated/corrupt file; previous parameters are intact
  }
  return true;
}

}  // namespace g2p
