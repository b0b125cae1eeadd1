#include "mesh/pslg.hpp"

#include <cmath>
#include <limits>

namespace mrts::mesh {

Rect Pslg::bounding_box() const {
  Rect r{std::numeric_limits<double>::infinity(),
         std::numeric_limits<double>::infinity(),
         -std::numeric_limits<double>::infinity(),
         -std::numeric_limits<double>::infinity()};
  for (const Point2& p : points) {
    r.xlo = std::min(r.xlo, p.x);
    r.ylo = std::min(r.ylo, p.y);
    r.xhi = std::max(r.xhi, p.x);
    r.yhi = std::max(r.yhi, p.y);
  }
  return r;
}

std::uint32_t Pslg::add_polygon(const std::vector<Point2>& ring) {
  const auto base = static_cast<std::uint32_t>(points.size());
  points.insert(points.end(), ring.begin(), ring.end());
  const auto n = static_cast<std::uint32_t>(ring.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    segments.emplace_back(base + i, base + (i + 1) % n);
  }
  return base;
}

void Pslg::serialize(util::ByteWriter& out) const {
  out.write<std::uint64_t>(points.size());
  for (const Point2& p : points) {
    out.write(p.x);
    out.write(p.y);
  }
  out.write<std::uint64_t>(segments.size());
  for (auto [a, b] : segments) {
    out.write(a);
    out.write(b);
  }
  out.write<std::uint64_t>(holes.size());
  for (const Point2& p : holes) {
    out.write(p.x);
    out.write(p.y);
  }
}

Pslg Pslg::deserialized(util::ByteReader& in) {
  // Counts go through read_vector_with, which rejects one larger than the
  // remaining payload before anything is reserved.
  const auto read_point = [](util::ByteReader& r) {
    const double x = r.read<double>();
    const double y = r.read<double>();
    return Point2{x, y};
  };
  Pslg g;
  g.points = in.read_vector_with<Point2>(read_point);
  g.segments = in.read_vector_with<std::pair<std::uint32_t, std::uint32_t>>(
      [](util::ByteReader& r) {
        const auto a = r.read<std::uint32_t>();
        const auto b = r.read<std::uint32_t>();
        return std::pair{a, b};
      });
  g.holes = in.read_vector_with<Point2>(read_point);
  return g;
}

bool Pslg::contains(const Point2& p) const {
  // Even-odd ray cast along +x. Uses a slightly perturbed ray height to
  // dodge exact vertex hits; domains in this codebase are built away from
  // such alignments, and callers only classify interior sample points.
  const double py = p.y + 1e-12;
  bool inside = false;
  for (auto [ia, ib] : segments) {
    const Point2& a = points[ia];
    const Point2& b = points[ib];
    if ((a.y > py) == (b.y > py)) continue;
    const double t = (py - a.y) / (b.y - a.y);
    const double x = a.x + t * (b.x - a.x);
    if (x > p.x) inside = !inside;
  }
  return inside;
}

Pslg make_rectangle(const Rect& r) {
  Pslg g;
  g.add_polygon({{r.xlo, r.ylo}, {r.xhi, r.ylo}, {r.xhi, r.yhi}, {r.xlo, r.yhi}});
  return g;
}

Pslg make_unit_square() { return make_rectangle(Rect{0.0, 0.0, 1.0, 1.0}); }

Pslg make_perforated_plate(const Rect& r, int nx, int ny,
                           double hole_fraction) {
  Pslg g = make_rectangle(r);
  const double cw = r.width() / nx;
  const double ch = r.height() / ny;
  const double hw = 0.5 * hole_fraction * cw;
  const double hh = 0.5 * hole_fraction * ch;
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) {
      const double cx = r.xlo + (i + 0.5) * cw;
      const double cy = r.ylo + (j + 0.5) * ch;
      g.add_polygon({{cx - hw, cy - hh},
                     {cx + hw, cy - hh},
                     {cx + hw, cy + hh},
                     {cx - hw, cy + hh}});
      g.holes.push_back({cx, cy});
    }
  }
  return g;
}

Pslg make_pipe_section(double router, double rinner, int sides) {
  Pslg g;
  std::vector<Point2> outer, inner;
  outer.reserve(sides);
  inner.reserve(sides);
  for (int i = 0; i < sides; ++i) {
    // Offset the starting angle so no vertex lands exactly on the axes,
    // keeping decomposition cut lines away from input vertices.
    const double t = (static_cast<double>(i) + 0.37) / sides * 2.0 *
                     3.14159265358979323846;
    outer.push_back({router * std::cos(t), router * std::sin(t)});
    inner.push_back({rinner * std::cos(t), rinner * std::sin(t)});
  }
  g.add_polygon(outer);
  g.add_polygon(inner);
  g.holes.push_back({0.0, 0.0});
  return g;
}

Pslg make_key_shape() {
  Pslg g;
  // Non-convex "key": round head approximated by an octagon-ish outline
  // merged with a rectangular shank with teeth.
  g.add_polygon({{0.00, 0.35},  {0.18, 0.08},  {0.55, 0.08},  {0.55, -0.06},
                 {0.72, -0.06}, {0.72, 0.08},  {0.86, 0.08},  {0.86, -0.12},
                 {1.02, -0.12}, {1.02, 0.08},  {1.25, 0.08},  {1.25, 0.62},
                 {0.18, 0.62}});
  // Hole in the key head.
  g.add_polygon({{0.16, 0.30}, {0.30, 0.22}, {0.40, 0.35}, {0.28, 0.46}});
  g.holes.push_back({0.28, 0.33});
  return g;
}

}  // namespace mrts::mesh
