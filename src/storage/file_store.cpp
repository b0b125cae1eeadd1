#include "storage/file_store.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "util/format.hpp"

namespace mrts::storage {
namespace fs = std::filesystem;

FileStore::FileStore(fs::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

FileStore::~FileStore() { clear(); }

fs::path FileStore::path_for(ObjectKey key) const {
  return dir_ / util::format("{:016x}.mob", key);
}

util::Status FileStore::store(ObjectKey key, std::span<const std::byte> bytes) {
  const fs::path final_path = path_for(key);
  const fs::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return {util::StatusCode::kIoError, "cannot open " + tmp_path.string()};
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      return {util::StatusCode::kIoError, "short write to " + tmp_path.string()};
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return {util::StatusCode::kIoError, "rename failed: " + ec.message()};
  }
  std::lock_guard lock(mutex_);
  auto [it, inserted] = sizes_.try_emplace(key, 0);
  stored_bytes_ -= it->second;
  it->second = bytes.size();
  stored_bytes_ += bytes.size();
  stats_.bytes_written += bytes.size();
  ++stats_.store_ops;
  // Blob-per-object pricing: the payload write and the publishing rename are
  // separate physical operations.
  stats_.device_write_ops += 2;
  return util::Status::ok();
}

util::Result<std::vector<std::byte>> FileStore::load(ObjectKey key) {
  {
    std::lock_guard lock(mutex_);
    if (!sizes_.contains(key)) {
      return util::Status(util::StatusCode::kNotFound, "no such object");
    }
  }
  std::ifstream in(path_for(key), std::ios::binary | std::ios::ate);
  if (!in) {
    return util::Status(util::StatusCode::kIoError,
                        "cannot open " + path_for(key).string());
  }
  std::vector<std::byte> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) {
    return util::Status(util::StatusCode::kIoError, "short read");
  }
  std::lock_guard lock(mutex_);
  stats_.bytes_read += bytes.size();
  ++stats_.load_ops;
  ++stats_.device_read_ops;
  return bytes;
}

util::Status FileStore::erase(ObjectKey key) {
  {
    std::lock_guard lock(mutex_);
    auto it = sizes_.find(key);
    if (it == sizes_.end()) {
      return {util::StatusCode::kNotFound, "no such object"};
    }
    stored_bytes_ -= it->second;
    sizes_.erase(it);
    ++stats_.erase_ops;
    ++stats_.device_write_ops;  // the unlink
  }
  std::error_code ec;
  fs::remove(path_for(key), ec);
  if (ec) {
    return {util::StatusCode::kIoError, "remove failed: " + ec.message()};
  }
  return util::Status::ok();
}

bool FileStore::contains(ObjectKey key) const {
  std::lock_guard lock(mutex_);
  return sizes_.contains(key);
}

std::size_t FileStore::count() const {
  std::lock_guard lock(mutex_);
  return sizes_.size();
}

std::uint64_t FileStore::stored_bytes() const {
  std::lock_guard lock(mutex_);
  return stored_bytes_;
}

BackendStats FileStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void FileStore::clear() {
  std::lock_guard lock(mutex_);
  std::error_code ec;
  for (const auto& [key, size] : sizes_) {
    fs::remove(path_for(key), ec);
  }
  sizes_.clear();
  stored_bytes_ = 0;
}

fs::path make_temp_spill_dir(const std::string& tag) {
  static std::atomic<std::uint64_t> counter{0};
  const auto n = counter.fetch_add(1);
  auto dir = fs::temp_directory_path() /
             util::format("mrts-{}-{}-{}", tag, ::getpid(), n);
  fs::create_directories(dir);
  return dir;
}

}  // namespace mrts::storage
