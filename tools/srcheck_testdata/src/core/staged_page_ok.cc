// C5 + C7 positive fixture: the writer's raw page pointers used the
// supported way — StageWrite(id)'s buffer filled in place and the writer's
// ReadInPlace page decoded in scope, every staged write reaching exactly
// one Commit under writer_mu_. Zero findings.

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
int Decode(const char* page);

Mutex writer_mu_;

class Writer {
 public:
  int Rewrite(WorkingPages& pages, unsigned id);
  int CopyOut(const WorkingPages& pages, unsigned id);

 private:
  int last_ = 0;
};

// Serialized straight into the staged buffer, then published.
int Writer::Rewrite(WorkingPages& pages, unsigned id) {
  MutexLock lock(writer_mu_);
  const char* before = pages.ReadInPlace(id);
  const int old_value = Decode(before);
  char* page = pages.StageWrite(id);
  Fill(page);
  Fill(pages.StageWrite(id + 1));
  pages.Commit();
  return old_value;
}

// Values decoded from the page may outlive it; the pointer does not.
int Writer::CopyOut(const WorkingPages& pages, unsigned id) {
  const char* page = pages.ReadInPlace(id);
  const int value = Decode(page);
  last_ = value;
  return value;
}
