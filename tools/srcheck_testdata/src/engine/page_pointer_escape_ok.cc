// C5 positive fixture: sanctioned uses of the zero-copy page pointer.
// srcheck must report zero findings — the pointer is read inside the scope
// of the guard that keeps the page alive, and only copied *bytes* leave it.

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

void CopyBytes(char* out, const char* in, unsigned n);

// The pointer lives exactly as long as the guard's scope.
char FirstByte(Index& index, unsigned id) {
  EpochGuard guard(index);
  const char* page = index.AcquirePages(guard).ReadInPlace(id);
  char first = page[0];
  return first;
}

class PageCopy {
 public:
  void Refresh(const PageSnapshot& pages, unsigned id);

 private:
  char bytes_[64];
};

// Copying the bytes out is what lets data outlive the guard.
void PageCopy::Refresh(const PageSnapshot& pages, unsigned id) {
  const char* page = pages.ReadInPlace(id);
  CopyBytes(bytes_, page, 64);
}
