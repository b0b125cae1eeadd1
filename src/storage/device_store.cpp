#include "storage/device_store.hpp"

#include <algorithm>
#include <thread>

namespace mrts::storage {

std::chrono::nanoseconds DeviceModel::cost(std::size_t bytes) const {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(access_latency);
  if (bandwidth_bytes_per_sec > 0.0) {
    ns += std::chrono::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(bytes) / bandwidth_bytes_per_sec * 1e9));
  }
  return ns;
}

void DeviceStore::charge_degraded(std::uint64_t* bucket) {
  if (plan_.base_op_us == 0) return;
  std::lock_guard lock(mutex_);
  const std::uint64_t op = op_index_++;
  std::uint64_t cost = plan_.base_op_us;
  for (const auto& w : plan_.windows) {
    if (op >= w.begin_op && op < w.end_op) {
      cost = plan_.base_op_us * std::max<std::uint32_t>(w.inflation, 1);
      ++degraded_ops_;
      break;
    }
  }
  *bucket += cost;
}

void DeviceStore::charge_device(std::uint64_t* bucket, std::size_t bytes) {
  const auto cost = model_.cost(bytes);
  if (cost.count() == 0) return;
  {
    std::lock_guard lock(mutex_);
    *bucket += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(cost).count());
  }
  std::this_thread::sleep_for(cost);
}

util::Status DeviceStore::store(ObjectKey key,
                                std::span<const std::byte> bytes) {
  charge_degraded(&virtual_store_us_);
  charge_device(&virtual_store_us_, bytes.size());
  return inner_->store(key, bytes);
}

util::Status DeviceStore::store(ObjectKey key, std::vector<std::byte>&& bytes) {
  charge_degraded(&virtual_store_us_);
  charge_device(&virtual_store_us_, bytes.size());
  return inner_->store(key, std::move(bytes));
}

util::Result<std::vector<std::byte>> DeviceStore::load(ObjectKey key) {
  charge_degraded(&virtual_load_us_);
  auto result = inner_->load(key);
  if (result.is_ok()) charge_device(&virtual_load_us_, result.value().size());
  return result;
}

BackendStats DeviceStore::stats() const {
  BackendStats s = inner_->stats();
  std::lock_guard lock(mutex_);
  s.virtual_store_latency_us += virtual_store_us_;
  s.virtual_load_latency_us += virtual_load_us_;
  return s;
}

std::uint64_t DeviceStore::degraded_ops() const {
  std::lock_guard lock(mutex_);
  return degraded_ops_;
}

}  // namespace mrts::storage
