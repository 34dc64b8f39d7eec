#include "src/index/point_index.h"

#include <cmath>

#include "src/common/timer.h"

namespace srtree {

QueryResult RunValidatedSearch(const SearchDispatch& dispatch, int dim,
                               PointView query, const QuerySpec& spec) {
  QueryResult result;
  const WallTimer timer;
  if (static_cast<int>(query.size()) != dim) {
    result.status = Status::InvalidArgument(
        "query dimensionality does not match the index");
    result.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }
  if (!AllFinite(query)) {
    result.status =
        Status::InvalidArgument("query has a non-finite coordinate");
    result.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }
  switch (spec.kind) {
    case QueryKind::kKnn:
    case QueryKind::kKnnBestFirst:
      if (spec.k <= 0) {
        result.status = Status::InvalidArgument("k must be >= 1");
        break;
      }
      result.neighbors =
          (spec.kind == QueryKind::kKnn)
              ? dispatch.KnnDfsImpl(query, spec.k, &result.io)
              : dispatch.KnnBestFirstImpl(query, spec.k, &result.io);
      break;
    case QueryKind::kRange:
      if (!(spec.radius >= 0.0) || std::isinf(spec.radius)) {
        result.status =
            Status::InvalidArgument("radius must be finite and >= 0");
        break;
      }
      result.neighbors = dispatch.RangeImpl(query, spec.radius, &result.io);
      break;
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

QueryResult PointIndex::Search(PointView query, const QuerySpec& spec) const {
  return RunValidatedSearch(*this, dim(), query, spec);
}

std::unique_ptr<IndexSnapshot> PointIndex::AcquireSnapshot() const {
  return std::make_unique<IndexSnapshot>(this);
}

QueryResult IndexSnapshot::Search(PointView query,
                                  const QuerySpec& spec) const {
  // Frozen-tree pass-through: with no concurrent writer (that structure's
  // contract), the live index IS the pinned view.
  return index_->Search(query, spec);
}

size_t IndexSnapshot::size() const { return index_->size(); }

Status ValidatePoint(PointView point, int dim) {
  if (static_cast<int>(point.size()) != dim) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!AllFinite(point)) {
    return Status::InvalidArgument("point has a non-finite coordinate");
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
