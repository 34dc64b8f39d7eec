// C2 negative fixture: raw pointers derived from a pin guard escaping
// the guard's scope. Each marked line must be flagged.
//
// The member-store case (CacheBytes) is the canonical bug this rule
// exists for: the pointer is stashed in `cached_`, the PageGuard is
// destroyed at end of function, and every later read through `cached_`
// is a use-after-evict race.

class Pool;

class PageGuard {
 public:
  const char* data() const;
};

class Pool {
 public:
  PageGuard Acquire(int id);
};

template <typename T>
void Use(const T& value);

class LeakyReader {
 public:
  const char* ReadEscaping(Pool& pool);
  void CacheBytes(Pool& pool);
  void DeferRead(Pool& pool);

 private:
  const char* cached_ = nullptr;
};

const char* LeakyReader::ReadEscaping(Pool& pool) {
  PageGuard guard = pool.Acquire(7);
  const char* bytes = guard.data();
  return bytes;  // srcheck-expect(C2)
}

void LeakyReader::CacheBytes(Pool& pool) {
  PageGuard guard = pool.Acquire(9);
  cached_ = guard.data();  // srcheck-expect(C2)
}

void LeakyReader::DeferRead(Pool& pool) {
  PageGuard guard = pool.Acquire(11);
  auto deferred = [&guard]() { return guard.data(); };  // srcheck-expect(C2)
  Use(deferred);
}
