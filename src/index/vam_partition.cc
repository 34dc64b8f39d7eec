#include "src/index/vam_partition.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <system_error>
#include <thread>

#include "src/base/mutex.h"
#include "src/common/check.h"
#include "src/common/cpus.h"

namespace srtree {

namespace {

std::atomic<size_t> workers_for_test{0};

// A walk starts another worker only for this many more rows, and offers
// no task smaller: below it, handing rows over costs more than splitting
// them.
constexpr size_t kRowsPerWorker = 4096;

// Rows left of a split of n > piece_cap rows: the multiple of the
// maximal-subtree capacity closest to the median, so the left side packs
// full subtrees and the total number of blocks is minimal.
uint64_t SplitPoint(uint64_t n, uint64_t piece_cap) {
  uint64_t mult = static_cast<uint64_t>(std::llround(
      static_cast<double>(n) / 2.0 / static_cast<double>(piece_cap)));
  mult = std::max<uint64_t>(mult, 1);
  uint64_t left = mult * piece_cap;
  if (left >= n) left = ((n - 1) / piece_cap) * piece_cap;
  CHECK_GT(left, 0u);
  CHECK_LT(left, n);
  return left;
}

// Appends the pieces of at most `piece_cap` rows that a split of `range`
// yields, left to right. They depend on the sizes alone.
void VamPieces(VamRange range, uint64_t piece_cap,
               std::vector<VamRange>& pieces) {
  if (range.size() <= piece_cap) {
    pieces.push_back(range);
    return;
  }
  const size_t mid = range.begin + SplitPoint(range.size(), piece_cap);
  VamPieces({range.begin, mid}, piece_cap, pieces);
  VamPieces({mid, range.end}, piece_cap, pieces);
}

}  // namespace

uint64_t VamSubtreeCapacity(size_t leaf_cap, size_t node_cap, int height) {
  uint64_t cap = leaf_cap;
  for (int h = 0; h < height; ++h) cap *= node_cap;
  return cap;
}

int VamHeight(size_t leaf_cap, size_t node_cap, uint64_t n) {
  int height = 0;
  while (VamSubtreeCapacity(leaf_cap, node_cap, height) < n) ++height;
  return height;
}

VamLayout::VamLayout(uint64_t n, size_t leaf_cap, size_t node_cap)
    : leaf_cap(leaf_cap), node_cap(node_cap) {
  CHECK_GT(n, 0u);
  nodes.push_back({.level = VamHeight(leaf_cap, node_cap, n),
                   .range = {0, static_cast<size_t>(n)}});
  std::vector<VamRange> pieces;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].level == 0) {
      CHECK_LE(nodes[i].range.size(), leaf_cap);
      continue;
    }
    pieces.clear();
    VamPieces(nodes[i].range, piece_cap(nodes[i]), pieces);
    CHECK_LE(pieces.size(), node_cap);
    nodes[i].first_child = nodes.size();
    nodes[i].child_count = pieces.size();
    const int level = nodes[i].level - 1;
    for (const VamRange piece : pieces) {
      nodes.push_back({.level = level, .range = piece});
    }
  }
}

void SetVamWorkersForTest(size_t workers) { workers_for_test = workers; }

// The tasks waiting for a worker, and the idle workers waiting for one.
// A task is queued only while more workers are idle than tasks wait, so
// no more than one per worker ever waits: the ring is sized before any
// worker starts.
class VamLoader::WorkQueue {
 public:
  explicit WorkQueue(size_t workers) : ring_(workers) {}

  // Queues `task` if a worker is idle to take it.
  bool Offer(const Task& task) {
    if (idle_.load(std::memory_order_relaxed) == 0) return false;
    MutexLock lock(queue_mu_);
    if (idle_.load(std::memory_order_relaxed) <= queued_) return false;
    ring_[(head_ + queued_++) % ring_.size()] = task;
    ++pending_;
    cv_.NotifyOne();
    return true;
  }

  // Waits for a queued task; false once every task is done.
  bool Take(Task* task) {
    MutexLock lock(queue_mu_);
    idle_.fetch_add(1, std::memory_order_relaxed);
    while (queued_ == 0 && pending_ != 0) cv_.Wait(queue_mu_);
    idle_.fetch_sub(1, std::memory_order_relaxed);
    if (queued_ == 0) return false;
    *task = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --queued_;
    return true;
  }

  // Reports a task Take returned, or the root's, as done.
  void Done() {
    MutexLock lock(queue_mu_);
    if (--pending_ == 0) cv_.NotifyAll();
  }

 private:
  Mutex queue_mu_;
  CondVar cv_;
  std::vector<Task> ring_ GUARDED_BY(queue_mu_);
  size_t head_ GUARDED_BY(queue_mu_) = 0;
  size_t queued_ GUARDED_BY(queue_mu_) = 0;
  // Tasks queued or running; the root's runs from the start.
  size_t pending_ GUARDED_BY(queue_mu_) = 1;
  std::atomic<size_t> idle_{0};  // workers waiting in Take
};

VamLoader::VamLoader(const std::vector<Point>& points, size_t workers)
    : points_(points),
      dim_(points.empty() ? 0 : points[0].size()),
      slots_(points.size()),
      key_(points.size()),
      order_(points.size()),
      block_rows_(dim_ == 0 ? 0
                            : std::min(points.size(),
                                       kGatherBytes / (dim_ * sizeof(double)))) {
  CHECK_LE(points.size(), size_t{0xffffffff});
  std::iota(slots_.begin(), slots_.end(), 0);
  const size_t per_worker = block_rows_ * dim_ + 3 * dim_;
  arena_ = std::make_unique_for_overwrite<double[]>(workers * per_worker);
  workers_.resize(workers);
  for (size_t w = 0; w < workers; ++w) {
    workers_[w].loader_ = this;
    workers_[w].block_rows_ = arena_.get() + w * per_worker;
    workers_[w].scratch_ = workers_[w].block_rows_ + block_rows_ * dim_;
  }
}

void VamLoader::Gather(Rows& rows, VamRange range) const {
  if (rows.Holds(range) || range.size() > block_rows_) return;
  rows.block_ = VamRange{};  // the copy reads the rows through their slots
  rows.ForEach(range, [&](size_t i, PointView p) {
    DCHECK_EQ(p.size(), dim_);
    std::copy(p.begin(), p.end(), rows.block_rows_ + i * dim_);
  });
  rows.block_ = range;
}

int VamLoader::MaxVarianceDim(const Rows& rows, VamRange range) const {
  DCHECK_GT(range.size(), 0u);
  // One pass with an accumulator pair per dimension: each dimension still
  // sums its rows in row order.
  double* const sum = rows.scratch_;
  double* const sum_sq = rows.scratch_ + dim_;
  std::fill(sum, sum + 2 * dim_, 0.0);
  rows.ForEach(range, [&](size_t, PointView x) {
    for (size_t d = 0; d < dim_; ++d) {
      sum[d] += x[d];
      sum_sq[d] += x[d] * x[d];
    }
  });
  const double n = static_cast<double>(range.size());
  int best_dim = 0;
  double best_var = -1.0;
  for (size_t d = 0; d < dim_; ++d) {
    const double mean = sum[d] / n;
    const double var = sum_sq[d] / n - mean * mean;
    if (var > best_var) {
      best_var = var;
      best_dim = static_cast<int>(d);
    }
  }
  return best_dim;
}

size_t VamLoader::SplitOnce(Rows& rows, VamRange range, uint64_t piece_cap) {
  Gather(rows, range);
  const size_t dim = static_cast<size_t>(MaxVarianceDim(rows, range));
  const uint64_t left = SplitPoint(range.size(), piece_cap);
  // The split key of each row, and the selection as a permutation of
  // row offsets, in the range's own entries of the scratch columns.
  double* const key = key_.data() + range.begin;
  uint32_t* const order = order_.data() + range.begin;
  rows.ForEach(range, [&](size_t i, PointView p) {
    key[i] = p[dim];
    order[i] = static_cast<uint32_t>(i);
  });
  std::nth_element(order, order + left, order + range.size(),
                   [key](uint32_t a, uint32_t b) { return key[a] < key[b]; });
  Permute(rows, range);
  return left;
}

void VamLoader::Permute(Rows& rows, VamRange range) {
  // A walk splits a range only after its ancestors' splits and before
  // its descendants' (and a worker drops its block when it takes a task),
  // so the block holds the whole range or none of it.
  const bool held = rows.Holds(range);
  DCHECK(held || rows.block_.end <= range.begin ||
         range.end <= rows.block_.begin);
  const size_t bytes = dim_ * sizeof(double);
  const auto at = [&](size_t i) {
    return rows.block_rows_ + (range.begin - rows.block_.begin + i) * dim_;
  };
  uint32_t* const order = order_.data() + range.begin;
  uint32_t* const slots = slots_.data() + range.begin;
  double* const spare_row = rows.scratch_ + 2 * dim_;
  for (size_t start = 0; start < range.size(); ++start) {
    if (order[start] == start) continue;
    const uint32_t spare_slot = slots[start];
    if (held) std::memcpy(spare_row, at(start), bytes);
    size_t to = start;
    while (order[to] != start) {
      const size_t from = order[to];
      order[to] = static_cast<uint32_t>(to);
      slots[to] = slots[from];
      if (held) std::memcpy(at(to), at(from), bytes);
      to = from;
    }
    order[to] = static_cast<uint32_t>(to);
    slots[to] = spare_slot;
    if (held) std::memcpy(at(to), spare_row, bytes);
  }
}

std::vector<uint32_t> VamLoader::Walk(const std::vector<Point>& points,
                                      const VamLayout& layout,
                                      const NodeHook& hook) {
  CHECK_EQ(layout.nodes.front().range.size(), points.size());
  size_t workers =
      std::min(static_cast<size_t>(AvailableCpus()),
               std::max<size_t>(points.size() / kRowsPerWorker, 1));
  if (const size_t cap = workers_for_test.load(); cap != 0) {
    workers = std::min(workers, cap);
  }
  VamLoader loader(points, workers);
  WorkQueue queue(workers);
  const auto run = [&](Rows& rows) {
    Task task;
    while (queue.Take(&task)) {
      // The block may hold rows that another worker has moved since.
      rows.block_ = VamRange{};
      loader.BuildPieces(queue, layout, hook, rows, task);
      queue.Done();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(run, std::ref(loader.workers_[w]));
    } catch (const std::system_error&) {
      break;  // the walk runs on the workers that started
    }
  }
  loader.Visit(queue, layout, hook, loader.workers_[0], /*index=*/0);
  queue.Done();
  run(loader.workers_[0]);
  for (std::thread& thread : threads) thread.join();
  return std::move(loader.slots_);
}

void VamLoader::Visit(WorkQueue& queue, const VamLayout& layout,
                      const NodeHook& hook, Rows& rows, size_t index) {
  const VamNode& node = layout.nodes[index];
  Gather(rows, node.range);
  if (hook) hook(index, rows);
  if (node.level > 0) {
    BuildPieces(queue, layout, hook, rows, {index, node.range});
  }
}

void VamLoader::BuildPieces(WorkQueue& queue, const VamLayout& layout,
                            const NodeHook& hook, Rows& rows, Task task) {
  const VamNode& node = layout.nodes[task.node];
  const uint64_t cap = layout.piece_cap(node);
  if (task.range.size() <= cap) {
    // One piece: every piece left of it is full.
    const size_t child =
        node.first_child + (task.range.begin - node.range.begin) / cap;
    DCHECK(layout.nodes[child].range == task.range);
    Visit(queue, layout, hook, rows, child);
    return;
  }
  const size_t mid = task.range.begin + SplitOnce(rows, task.range, cap);
  const Task right{task.node, {mid, task.range.end}};
  const bool offered =
      right.range.size() >= kRowsPerWorker && queue.Offer(right);
  BuildPieces(queue, layout, hook, rows, {task.node, {task.range.begin, mid}});
  if (!offered) BuildPieces(queue, layout, hook, rows, right);
}

}  // namespace srtree
