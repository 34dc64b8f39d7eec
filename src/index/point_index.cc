#include "src/index/point_index.h"

#include <cmath>
#include <limits>

#include "src/common/timer.h"

namespace srtree {

namespace {

Status ValidateSpec(const QuerySpec& spec) {
  if (spec.kind == QueryKind::kRange) {
    if (!(spec.radius >= 0.0) || std::isinf(spec.radius)) {
      return Status::InvalidArgument("radius must be finite and >= 0");
    }
  } else if (spec.k <= 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  return Status::OK();
}

}  // namespace

QueryResult RunValidatedSearch(const SearchDispatch& dispatch, int dim,
                               PointView query, const QuerySpec& spec) {
  QueryResult result;
  const WallTimer timer;
  // A query obeys the domain rule of a stored point: beyond it, distances
  // to stored points overflow to inf and stop ranking them.
  result.status = ValidatePoint(query, dim);
  if (result.status.ok()) result.status = ValidateSpec(spec);
  if (result.status.ok()) {
    result.neighbors = dispatch.SearchImpl(query, spec, &result.io);
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

QueryResult PointIndex::Search(PointView query, const QuerySpec& spec) const {
  return RunValidatedSearch(*this, dim(), query, spec);
}

double MaxCoordinateMagnitude(int dim) {
  return std::sqrt(std::numeric_limits<double>::max() / 2 / dim) / 2;
}

Status ValidatePoint(PointView point, int dim) {
  if (static_cast<int>(point.size()) != dim) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!AllFinite(point)) {
    return Status::InvalidArgument("point has a non-finite coordinate");
  }
  const double limit = MaxCoordinateMagnitude(dim);
  for (const double x : point) {
    if (std::fabs(x) > limit) {
      return Status::InvalidArgument(
          "point coordinate magnitude exceeds the numeric domain, where "
          "squared distances could overflow");
    }
  }
  return Status::OK();
}

Status ValidateBulkLoad(const std::vector<Point>& points,
                        const std::vector<uint32_t>& oids, int dim) {
  if (points.size() != oids.size()) {
    return Status::InvalidArgument("points/oids size mismatch");
  }
  for (const Point& p : points) RETURN_IF_ERROR(ValidatePoint(p, dim));
  return Status::OK();
}

Status PointIndex::BulkLoad(const std::vector<Point>& points,
                            const std::vector<uint32_t>& oids) {
  // Validated up front, so a bad point leaves the index empty instead of
  // half loaded.
  RETURN_IF_ERROR(ValidateBulkLoad(points, oids, dim()));
  if (size() != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty index");
  }
  for (size_t i = 0; i < points.size(); ++i) {
    RETURN_IF_ERROR(Insert(points[i], oids[i]));
  }
  return Status::OK();
}

}  // namespace srtree
