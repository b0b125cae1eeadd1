#include "core/checkpoint.hpp"

#include <fstream>
#include <unordered_set>

#include "storage/sealed_blob.hpp"
#include "util/format.hpp"

namespace mrts::core {
namespace {

constexpr std::uint64_t kMagic = 0x4D52545343503032ull;  // "MRTSCP02"

// Checkpoint files are sealed blobs (storage/sealed_blob.hpp): the image
// followed by its CRC32, the same envelope the spill path uses.
util::Status write_sealed_file(const std::filesystem::path& path,
                               util::ByteWriter&& image) {
  const auto bytes = storage::seal_blob(std::move(image));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return {util::StatusCode::kIoError, "cannot open " + path.string()};
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return {util::StatusCode::kIoError, "short write to " + path.string()};
  }
  return util::Status::ok();
}

/// Reads a sealed file and returns its verified image (seal stripped).
util::Result<std::vector<std::byte>> read_sealed_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return util::Status(util::StatusCode::kNotFound,
                        "cannot open " + path.string());
  }
  std::vector<std::byte> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) {
    return util::Status(util::StatusCode::kIoError, "short read");
  }
  auto image = storage::unseal_blob(bytes);
  if (!image.is_ok()) {
    return util::Status(util::StatusCode::kCorruption,
                        "checkpoint " + path.string() + ": " +
                            image.status().message());
  }
  bytes.resize(image.value().size());
  return bytes;
}

std::filesystem::path node_file(const std::filesystem::path& dir, NodeId n) {
  return dir / util::format("node{}.ckpt", n);
}

}  // namespace

util::Status checkpoint_cluster(Cluster& cluster,
                                const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return {util::StatusCode::kIoError,
            "cannot create " + dir.string() + ": " + ec.message()};
  }
  // Manifest: magic + node count + registered type count (sanity only).
  {
    util::ByteWriter w;
    w.write(kMagic);
    w.write<std::uint64_t>(cluster.size());
    w.write<std::uint64_t>(cluster.registry().type_count());
    if (auto s = write_sealed_file(dir / "manifest", std::move(w));
        !s.is_ok()) {
      return s;
    }
  }
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    util::ByteWriter w;
    if (auto s = cluster.node(static_cast<NodeId>(n)).checkpoint_to(w);
        !s.is_ok()) {
      return s;
    }
    if (auto s = write_sealed_file(node_file(dir, static_cast<NodeId>(n)),
                                   std::move(w));
        !s.is_ok()) {
      return s;
    }
  }
  return util::Status::ok();
}

util::Status restore_cluster(Cluster& cluster,
                             const std::filesystem::path& dir) {
  auto manifest = read_sealed_file(dir / "manifest");
  if (!manifest.is_ok()) return manifest.status();
  {
    util::ByteReader r(manifest.value());
    if (r.read<std::uint64_t>() != kMagic) {
      return {util::StatusCode::kCorruption, "not an MRTS checkpoint"};
    }
    if (r.read<std::uint64_t>() != cluster.size()) {
      return {util::StatusCode::kInvalidArgument,
              "checkpoint node count does not match the cluster"};
    }
    if (r.read<std::uint64_t>() != cluster.registry().type_count()) {
      return {util::StatusCode::kInvalidArgument,
              "checkpoint type count does not match the registry"};
    }
  }
  // Two-phase: read, unseal and parse every node image before installing a
  // single object, so a damaged file or image anywhere leaves the whole
  // cluster unchanged (no partial restore). An object id that appears in
  // two node images would be installed twice, so that is corruption too.
  std::vector<Runtime::RestoreImage> images;
  images.reserve(cluster.size());
  std::unordered_set<MobilePtr> ids;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    auto bytes = read_sealed_file(node_file(dir, static_cast<NodeId>(n)));
    if (!bytes.is_ok()) return bytes.status();
    util::ByteReader r(bytes.value());
    auto image = cluster.node(static_cast<NodeId>(n)).parse_restore_image(r);
    if (!image.is_ok()) return image.status();
    for (MobilePtr ptr : image.value().ids()) {
      if (!ids.insert(ptr).second) {
        return {util::StatusCode::kCorruption,
                util::format("checkpoint names {} in two node images",
                             to_string(ptr))};
      }
    }
    images.push_back(std::move(image).value());
  }
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    cluster.node(static_cast<NodeId>(n))
        .install_restore_image(std::move(images[n]));
  }
  // Teach every home node where its migrated objects live now.
  std::vector<std::pair<MobilePtr, NodeId>> locations;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    Runtime& rt = cluster.node(static_cast<NodeId>(n));
    rt.for_each_local_object([&](MobilePtr ptr) {
      locations.emplace_back(ptr, static_cast<NodeId>(n));
    });
  }
  for (const auto& [ptr, where] : locations) {
    const NodeId home = ptr.home_node();
    if (home != where && home < cluster.size()) {
      cluster.node(home).note_remote_location(ptr, where);
    }
  }
  return util::Status::ok();
}

}  // namespace mrts::core
