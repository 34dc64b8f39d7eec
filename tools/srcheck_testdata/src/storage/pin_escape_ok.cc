// C2 positive fixture: legitimate pin usage. srcheck must report zero
// findings for this file — every pointer derived from a guard stays
// inside the guard's scope, and the only thing that crosses a scope
// boundary is the guard object itself (which carries the pin with it).

class Pool;

class PageGuard {
 public:
  const char* data() const;
};

class Pool {
 public:
  PageGuard Acquire(int id);
};

// Pointer consumed within the pin's scope; only a value escapes.
unsigned CountPrefix(Pool& pool) {
  PageGuard guard = pool.Acquire(3);
  const char* bytes = guard.data();
  unsigned count = 0;
  for (int i = 0; i < 8; ++i) {
    if (bytes[i] != 0) {
      ++count;
    }
  }
  return count;
}

// Lambda reads through the pin but is invoked immediately, so it cannot
// outlive the guard.
unsigned CountNonZero(Pool& pool) {
  PageGuard pin = pool.Acquire(5);
  unsigned count = 0;
  [&]() {
    const char* bytes = pin.data();
    for (int i = 0; i < 4; ++i) {
      if (bytes[i] != 0) {
        ++count;
      }
    }
  }();
  return count;
}

// Returning the guard itself transfers the pin — that is the sanctioned
// way to extend a page's lifetime across a call boundary.
PageGuard PassThrough(Pool& pool) {
  PageGuard guard = pool.Acquire(1);
  return guard;
}
