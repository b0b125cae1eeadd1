#pragma once

// Decorator that owns a node's modeled device cost. It prices every
// store/load of an inner backend with two terms and charges both into the
// virtual_*_latency_us BackendStats fields:
//
//   DeviceModel   a fixed access cost plus a bytes/bandwidth transfer term,
//                 slept in wall time so the runtime can overlap it
//                 (Tables IV-VI emulate the paper's cluster-era disks on fast
//                 local storage this way). Stores pay it before the inner
//                 store; loads pay it after the inner load, sized by the
//                 bytes read, and only when the load succeeds.
//   DegradedPlan  the gray-failure term (storage/degraded_store.hpp):
//                 charged only, never slept, on every store and load before
//                 the inner call, inflated inside op-index windows.
//
// Placement: directly above the base medium and under FaultStore /
// ReplicatedStore, i.e. inside the replicated store's *primary* chain — a
// degraded device is still the same device, and being under the mirror is
// what lets hedged reads dodge it.

#include <chrono>
#include <memory>
#include <mutex>

#include "storage/backend.hpp"
#include "storage/degraded_store.hpp"

namespace mrts::storage {

struct DeviceModel {
  /// Per-operation fixed cost (seek + controller).
  std::chrono::microseconds access_latency{0};
  /// Sustained transfer rate; <= 0 disables the transfer term.
  double bandwidth_bytes_per_sec = 0.0;

  [[nodiscard]] std::chrono::nanoseconds cost(std::size_t bytes) const;
};

class DeviceStore final : public StorageBackend {
 public:
  /// `degraded` defaults to a zero-cost plan: a pure device model.
  DeviceStore(std::unique_ptr<StorageBackend> inner, DeviceModel model,
              DegradedPlan degraded = {.base_op_us = 0, .windows = {}})
      : inner_(std::move(inner)), model_(model), plan_(std::move(degraded)) {}

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Status store(ObjectKey key, std::vector<std::byte>&& bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override { return inner_->erase(key); }
  bool contains(ObjectKey key) const override { return inner_->contains(key); }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override { return inner_->stored_bytes(); }
  /// Inner stats plus both modeled terms charged into the
  /// virtual_*_latency_us fields, so health scoring and the stall figures
  /// see the device without timing real sleeps.
  BackendStats stats() const override;
  void tick(std::uint64_t virtual_now) override { inner_->tick(virtual_now); }

  /// Ops that fell inside a degradation window so far.
  [[nodiscard]] std::uint64_t degraded_ops() const;

 private:
  /// Charges the degradation term of the next op into `*bucket`.
  void charge_degraded(std::uint64_t* bucket);
  /// Charges the device-model term of a `bytes`-sized transfer into
  /// `*bucket` and sleeps it.
  void charge_device(std::uint64_t* bucket, std::size_t bytes);

  std::unique_ptr<StorageBackend> inner_;
  DeviceModel model_;
  DegradedPlan plan_;
  mutable std::mutex mutex_;  // guards the op index and the charges below
  std::uint64_t op_index_ = 0;
  std::uint64_t degraded_ops_ = 0;
  std::uint64_t virtual_store_us_ = 0;
  std::uint64_t virtual_load_us_ = 0;
};

}  // namespace mrts::storage
