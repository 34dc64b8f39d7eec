// Bounding hyper-spheres — the SS-tree region shape and half of the
// SR-tree's sphere-and-rectangle region.

#ifndef SRTREE_GEOMETRY_SPHERE_H_
#define SRTREE_GEOMETRY_SPHERE_H_

#include "src/geometry/point.h"
#include "src/geometry/rect.h"

namespace srtree {

class Sphere {
 public:
  Sphere() = default;
  Sphere(Point center, double radius);

  int dim() const { return static_cast<int>(center_.size()); }
  const Point& center() const { return center_; }
  double radius() const { return radius_; }

  void set_center(Point center) { center_ = std::move(center); }
  // In-place access for decoders that refill a reused sphere without
  // reallocating its center.
  Point& mutable_center() { return center_; }
  void set_radius(double radius) { radius_ = radius; }

  bool Contains(PointView p) const;

  // Minimum distance from `p` to the sphere surface; 0 when inside.
  double MinDist(PointView p) const;

  // Maximum distance from `p` to any point of the ball.
  double MaxDist(PointView p) const;

  // Whether the ball and rectangle have a non-empty intersection.
  bool IntersectsRect(const Rect& rect) const;

  // V_D(radius) — see geometry/volume.h for the underflow caveat.
  double Volume() const;

  double Diameter() const { return 2.0 * radius_; }

 private:
  Point center_;
  double radius_ = 0.0;
};

}  // namespace srtree

#endif  // SRTREE_GEOMETRY_SPHERE_H_
