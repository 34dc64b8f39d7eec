// Axis-aligned bounding hyper-rectangles (MBRs).
//
// Rect supplies every rectangle predicate the five index structures need:
// MINDIST / MAXDIST to a point (Roussopoulos et al.), area/margin/overlap
// (the R*-tree split heuristics), and the union/expand operations used to
// maintain MBRs on insertion.

#ifndef SRTREE_GEOMETRY_RECT_H_
#define SRTREE_GEOMETRY_RECT_H_

#include <vector>

#include "src/geometry/point.h"

namespace srtree {

class Rect {
 public:
  Rect() = default;

  // The "empty" rectangle in `dim` dimensions: lo = +inf, hi = -inf, so the
  // first Expand() sets both bounds. Useful as a fold identity for unions.
  static Rect Empty(int dim);

  // Degenerate rectangle covering exactly one point.
  static Rect FromPoint(PointView p);

  // Rectangle with explicit bounds; requires lo[i] <= hi[i] for all i.
  Rect(Point lo, Point hi);

  int dim() const { return static_cast<int>(lo_.size()); }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }
  // In-place access for decoders that refill a reused rectangle without
  // reallocating its bounds; the caller keeps lo[i] <= hi[i].
  Point& mutable_lo() { return lo_; }
  Point& mutable_hi() { return hi_; }

  bool IsEmpty() const;

  // Grows this rectangle to cover `p` / `other`.
  void Expand(PointView p);
  void Expand(const Rect& other);

  // Smallest rectangle covering both arguments.
  static Rect Union(const Rect& a, const Rect& b);

  bool Contains(PointView p) const;
  bool ContainsRect(const Rect& other) const;
  bool Intersects(const Rect& other) const;

  // Squared minimum distance from `p` to this rectangle (0 when inside).
  double MinDistSq(PointView p) const;

  // Squared distance from `p` to the farthest vertex of this rectangle; the
  // paper's MAXDIST used by the SR-tree radius rule (Section 4.2).
  double MaxDistSq(PointView p) const;

  // Product of edge lengths.
  double Volume() const;

  // Sum of edge lengths (the R*-tree "margin" is 2^(dim-1) times this; the
  // constant factor does not affect argmin comparisons).
  double Margin() const;

  // Volume of the intersection with `other`, 0 if disjoint.
  double OverlapVolume(const Rect& other) const;

  // Center point of the rectangle.
  Point Center() const;

  // Length of the main diagonal — the "diameter" the paper plots for
  // rectangle regions (Figure 5).
  double Diagonal() const;

  bool operator==(const Rect& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_;
  }

 private:
  Point lo_;
  Point hi_;
};

}  // namespace srtree

#endif  // SRTREE_GEOMETRY_RECT_H_
