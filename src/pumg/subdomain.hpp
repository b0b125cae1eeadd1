#pragma once

// Subdomain: one cell of a domain decomposition, owning its own conforming
// Delaunay triangulation. This is the unit all three PUMG methods (and
// their out-of-core ports) operate on.
//
// Conformity protocol across cells. A cell is an axis-aligned rectangle of
// the decomposition; its four sides are constrained segments shared with
// neighbouring cells. Both sides of a shared border start from the same
// discretization (corners, clipped input-segment crossings, T-junction
// points of finer neighbours) and split subsegments only at exact midpoints,
// so a split performed in one cell can be mirrored bitwise-identically by
// its neighbour: that mirroring is the inter-subdomain communication of
// UPDR/NUPDR/PCDM. Interior pieces of the global PSLG's input segments are
// wholly owned by one cell (clipping is snapped to the cell border, and the
// snap is reproducible on both sides), so only rectangle-side splits are
// ever exchanged.
//
// Region classification: the cell's rectangle is meshed entirely; regions
// outside the global domain (identified per flooded region against the
// global PSLG) are marked outside and never refined.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mesh/refine.hpp"
#include "mesh/triangulation.hpp"

namespace mrts::pumg {

/// Sides of a cell rectangle.
enum Side : int { kWest = 0, kEast = 1, kSouth = 2, kNorth = 3 };

[[nodiscard]] constexpr Side opposite(Side s) {
  switch (s) {
    case kWest: return kEast;
    case kEast: return kWest;
    case kSouth: return kNorth;
    case kNorth: return kSouth;
  }
  return kWest;
}

/// One boundary-subsegment split to mirror onto the neighbour across `side`.
struct BoundarySplit {
  mesh::Point2 a, b;  // subsegment endpoints (order as stored locally)
  mesh::Point2 m;     // split point (exact midpoint of a and b)
  std::int32_t side = -1;

  void serialize(util::ByteWriter& out) const;
  static BoundarySplit deserialized(util::ByteReader& in);
};

/// A split list as the out-of-core drivers carry it in messages and
/// coordinator state: [count:u32] count x BoundarySplit. read_splits throws
/// util::ArchiveError for a count larger than the remaining payload.
void write_splits(util::ByteWriter& w, const std::vector<BoundarySplit>& v);
std::vector<BoundarySplit> read_splits(util::ByteReader& r);

/// Hashable bitwise key for exact point identity.
struct PointKey {
  std::uint64_t x = 0, y = 0;
  explicit PointKey(const mesh::Point2& p);
  PointKey() = default;
  friend bool operator==(const PointKey&, const PointKey&) = default;
};

struct PointKeyHash {
  std::size_t operator()(const PointKey& k) const noexcept;
};

class Subdomain {
 public:
  Subdomain() = default;

  /// Builds the cell's initial conforming triangulation.
  ///   global      — the global PSLG (domain geometry)
  ///   cell        — this cell's rectangle
  ///   extra_border_points — additional required border points (T-junctions
  ///                 of finer neighbours in a quadtree decomposition)
  Subdomain(const mesh::Pslg& global, const mesh::Rect& cell,
            const std::vector<mesh::Point2>& extra_border_points = {});

  struct RefineOutcome {
    mesh::RefineResult result;
    std::vector<BoundarySplit> splits;  // to forward to neighbours
  };

  /// Refines to the given quality/size goals; returns the rectangle-side
  /// splits performed (input-segment splits are internal and not reported).
  RefineOutcome refine(const mesh::RefineOptions& options,
                       const mesh::RefineLimits& limits = {});

  /// Mirrors a neighbour's boundary split. Returns true if a split was
  /// performed, false if this cell already has the point (concurrent
  /// identical split). After mirroring, call refine() again to restore
  /// quality around the new point.
  bool apply_mirror_split(const BoundarySplit& split);

  // --- inspection -----------------------------------------------------------

  [[nodiscard]] const mesh::Triangulation& tri() const { return tri_; }
  [[nodiscard]] const mesh::Rect& cell() const { return cell_; }
  [[nodiscard]] std::size_t inside_elements() const {
    return tri_.inside_triangles();
  }
  [[nodiscard]] double min_inside_angle_deg() const {
    return tri_.min_inside_angle_deg();
  }
  [[nodiscard]] double inside_area() const;
  /// Ordered list of current border vertex positions on a side (for
  /// conformity checks between neighbours).
  [[nodiscard]] std::vector<mesh::Point2> border_points(Side side) const;

  /// Side splits performed during initial segment recovery; a driver must
  /// exchange these with neighbours exactly like refinement splits.
  [[nodiscard]] const std::vector<BoundarySplit>& initial_splits() const {
    return initial_splits_;
  }

  // --- serialization -----------------------------------------------------------

  void serialize(util::ByteWriter& out) const;
  void deserialize(util::ByteReader& in);
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  [[nodiscard]] int side_of_local_seg(mesh::SegId id) const;

  mesh::Rect cell_;
  mesh::Triangulation tri_{mesh::Rect{0, 0, 1, 1}};
  /// Local PSLG segment id -> side (0..3) or -1 for input-segment pieces.
  std::vector<std::int32_t> seg_side_;
  /// Exact coordinates -> vertex id, for all border vertices.
  std::unordered_map<PointKey, mesh::VertexId, PointKeyHash> border_verts_;
  std::vector<BoundarySplit> initial_splits_;
};

/// Clips segment (a, b) to `r` like clip_segment, but snaps clipped
/// endpoints exactly onto the border line they were cut by, so both cells
/// sharing that border compute bitwise-identical crossing points.
std::optional<std::pair<mesh::Point2, mesh::Point2>> clip_segment_snapped(
    const mesh::Point2& a, const mesh::Point2& b, const mesh::Rect& r);

}  // namespace mrts::pumg
