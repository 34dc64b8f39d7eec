// C5 negative fixture: the zero-copy page pointer escapes its epoch guard.
// Snapshot::ReadInPlace returns the pinned version's own page buffer, which
// epoch reclamation frees once the guard is gone — so returning the
// pointer, stashing it in a member, or reading it from a deferred lambda
// is a use-after-reclaim in the making. Every marked line must be flagged.

class Index;

class EpochGuard {
 public:
  explicit EpochGuard(Index& index);
};

class PageSnapshot {
 public:
  const char* ReadInPlace(unsigned id) const;
};

class Index {
 public:
  PageSnapshot AcquirePages(EpochGuard& guard);
};

template <typename T>
void Use(const T& value);

class PageCache {
 public:
  const char* LeakReturn(Index& index, unsigned id);
  const char* LeakDirectReturn(const PageSnapshot& pages, unsigned id);
  void LeakMember(const PageSnapshot& pages, unsigned id);
  void LeakMemberDirect(const PageSnapshot& pages, unsigned id);
  void LeakLambda(const PageSnapshot& pages, unsigned id);

 private:
  const char* cached_ = nullptr;
};

// The guard dies at the closing brace; the caller gets a dangling page.
const char* PageCache::LeakReturn(Index& index, unsigned id) {
  EpochGuard guard(index);
  const char* page = index.AcquirePages(guard).ReadInPlace(id);
  return page;  // srcheck-expect(C5)
}

const char* PageCache::LeakDirectReturn(const PageSnapshot& pages,
                                        unsigned id) {
  return pages.ReadInPlace(id);  // srcheck-expect(C5)
}

// Member stores: every later read through cached_ races reclamation.
void PageCache::LeakMember(const PageSnapshot& pages, unsigned id) {
  const char* page = pages.ReadInPlace(id);
  cached_ = page;  // srcheck-expect(C5)
}

void PageCache::LeakMemberDirect(const PageSnapshot& pages, unsigned id) {
  cached_ = pages.ReadInPlace(id);  // srcheck-expect(C5)
}

// Deferred lambda: the page may be reclaimed by the time it runs.
void PageCache::LeakLambda(const PageSnapshot& pages, unsigned id) {
  const char* page = pages.ReadInPlace(id);
  auto deferred = [page]() { return page[0]; };  // srcheck-expect(C5)
  Use(deferred);
}
