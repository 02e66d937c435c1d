#include "serve/persist.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>

#include "support/json.h"

namespace capellini::serve {
namespace {

constexpr char kMagic[8] = {'C', 'A', 'P', 'A', 'N', 'L', '1', '\0'};
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(std::uint64_t& hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
}

void Append(std::string& buf, const void* data, std::size_t bytes) {
  buf.append(static_cast<const char*>(data), bytes);
}

}  // namespace

std::uint64_t StructureFingerprint(const Csr& lower) {
  std::uint64_t hash = kFnvOffset;
  const std::int64_t dims[2] = {lower.rows(), lower.cols()};
  FnvMix(hash, dims, sizeof(dims));
  FnvMix(hash, lower.row_ptr().data(), lower.row_ptr().size() * sizeof(Idx));
  FnvMix(hash, lower.col_idx().data(), lower.col_idx().size() * sizeof(Idx));
  return hash;
}

std::string AnalysisCache::PathFor(const std::string& name) const {
  std::string file;
  file.reserve(name.size());
  for (char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    file.push_back(safe ? c : '_');
  }
  if (file.empty()) file = "unnamed";
  return dir_ + "/" + file + ".capan";
}

Status AnalysisCache::Store(const std::string& name, const Csr& lower,
                            const LevelSets& levels,
                            double cost_seed_ms) const {
  if (levels.level_of.size() != static_cast<std::size_t>(lower.rows())) {
    return InvalidArgument("level_of does not describe the matrix");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return IoError("cannot create analysis cache dir '" + dir_ +
                   "': " + ec.message());
  }

  std::string buf;
  const std::uint64_t fingerprint = StructureFingerprint(lower);
  const std::int64_t rows = lower.rows();
  Append(buf, kMagic, sizeof(kMagic));
  Append(buf, &fingerprint, sizeof(fingerprint));
  Append(buf, &rows, sizeof(rows));
  Append(buf, &cost_seed_ms, sizeof(cost_seed_ms));
  Append(buf, levels.level_of.data(), levels.level_of.size() * sizeof(Idx));
  std::uint64_t checksum = kFnvOffset;
  FnvMix(checksum, buf.data(), buf.size());
  Append(buf, &checksum, sizeof(checksum));

  const std::string path = PathFor(name);
  const std::string tmp = path + ".tmp";
  if (Status written = WriteFile(tmp, buf); !written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return IoError("cannot rename '" + tmp + "' to '" + path +
                   "': " + ec.message());
  }
  return Status::Ok();
}

Expected<PersistedAnalysis> AnalysisCache::Load(const std::string& name,
                                                const Csr& lower) const {
  const std::string path = PathFor(name);
  auto file = ReadFile(path);
  if (!file.ok()) return file.status();  // kNotFound: no cache file yet
  const std::string& buf = *file;

  constexpr std::size_t kHeaderBytes =
      sizeof(kMagic) + sizeof(std::uint64_t) + sizeof(std::int64_t) +
      sizeof(double);
  if (buf.size() < kHeaderBytes + sizeof(std::uint64_t)) {
    return DataLoss("analysis cache file '" + path + "' is truncated");
  }
  std::uint64_t checksum = kFnvOffset;
  FnvMix(checksum, buf.data(), buf.size() - sizeof(std::uint64_t));
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, buf.data() + buf.size() - sizeof(checksum),
              sizeof(checksum));
  if (checksum != stored_checksum) {
    return DataLoss("analysis cache file '" + path +
                    "' fails its checksum (corrupted)");
  }
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return DataLoss("analysis cache file '" + path + "' has a bad magic");
  }

  std::size_t off = sizeof(kMagic);
  std::uint64_t fingerprint = 0;
  std::memcpy(&fingerprint, buf.data() + off, sizeof(fingerprint));
  off += sizeof(fingerprint);
  std::int64_t rows = 0;
  std::memcpy(&rows, buf.data() + off, sizeof(rows));
  off += sizeof(rows);
  PersistedAnalysis persisted;
  std::memcpy(&persisted.cost_seed_ms, buf.data() + off,
              sizeof(persisted.cost_seed_ms));
  off += sizeof(persisted.cost_seed_ms);

  if (fingerprint != StructureFingerprint(lower)) {
    return DataLoss("analysis cache file '" + path +
                    "' is stale: structure fingerprint mismatch");
  }
  if (rows != lower.rows()) {
    return DataLoss("analysis cache file '" + path + "' is stale: row count " +
                    std::to_string(rows) + " != " +
                    std::to_string(lower.rows()));
  }
  const std::size_t level_bytes =
      static_cast<std::size_t>(rows) * sizeof(Idx);
  if (buf.size() != off + level_bytes + sizeof(std::uint64_t)) {
    return DataLoss("analysis cache file '" + path +
                    "' has the wrong payload size");
  }
  persisted.level_of.resize(static_cast<std::size_t>(rows));
  std::memcpy(persisted.level_of.data(), buf.data() + off, level_bytes);
  return persisted;
}

}  // namespace capellini::serve
