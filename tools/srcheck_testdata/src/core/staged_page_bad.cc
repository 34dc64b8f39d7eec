// C5 + C7 negative fixture: the writer's raw page pointers. StageWrite(id)
// hands back the page's working buffer and the writer's ReadInPlace points
// into working state; the next copy-on-write or Commit replaces that
// buffer (and, once published, readers share it), so neither pointer may
// outlive the staging scope. A buffer-returning StageWrite is still a
// staged write that must reach exactly one Commit. Every marked line must
// be flagged.

class Mutex {};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu);
};

class WorkingPages {
 public:
  char* StageWrite(unsigned id);
  const char* ReadInPlace(unsigned id) const;
  void Commit();
};

void Fill(char* page);

Mutex writer_mu_;

class Writer {
 public:
  char* LeakStaged(WorkingPages& pages, unsigned id);
  const char* LeakRead(const WorkingPages& pages, unsigned id);
  void StashStaged(WorkingPages& pages, unsigned id);
  void StashRead(const WorkingPages& pages, unsigned id);

 private:
  char* staged_ = nullptr;
  const char* read_ = nullptr;
};

// Returned: the caller may write through it after the page is published.
char* Writer::LeakStaged(WorkingPages& pages, unsigned id) {
  MutexLock lock(writer_mu_);
  char* page = pages.StageWrite(id);
  Fill(page);
  pages.Commit();
  return page;  // srcheck-expect(C5)
}

const char* Writer::LeakRead(const WorkingPages& pages, unsigned id) {
  return pages.ReadInPlace(id);  // srcheck-expect(C5)
}

// Member stores outlive the buffer the next copy-on-write replaces.
void Writer::StashStaged(WorkingPages& pages, unsigned id) {
  staged_ = pages.StageWrite(id);  // srcheck-expect(C5)
}

void StashAndPublish(Writer& writer, WorkingPages& pages) {
  MutexLock lock(writer_mu_);
  writer.StashStaged(pages, 3);
  pages.Commit();
}

void Writer::StashRead(const WorkingPages& pages, unsigned id) {
  const char* page = pages.ReadInPlace(id);
  read_ = page;  // srcheck-expect(C5)
}

// The buffer-returning form stages like any other: bailing out before
// Commit leaks the staged page into the next commit.
bool StageBufferAbandoning(WorkingPages& pages, bool flaky) {
  MutexLock lock(writer_mu_);
  char* page = pages.StageWrite(7);
  Fill(page);
  if (flaky) {
    return false;  // srcheck-expect(C7)
  }
  pages.Commit();
  return true;
}

void StageBufferForgetting(WorkingPages& pages) {
  MutexLock lock(writer_mu_);
  Fill(pages.StageWrite(8));  // srcheck-expect(C7)
}
