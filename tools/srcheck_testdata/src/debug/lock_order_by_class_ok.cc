// C6 positive fixture: two methods named Run, resolved by class. Check()
// holds gamma_mu_ and calls Run() on a by-value local of AuditPass, whose
// Run takes no lock; only LoadPass::Run takes delta_mu_, and elsewhere
// delta_mu_ is held while gamma_mu_ is taken. Merged by bare name, the two
// Runs would add a gamma_mu_ -> delta_mu_ edge through Check() and close a
// false gamma/delta cycle (as TieredIndex::CheckInvariants once reached a
// bulk load through the structural auditor's Run). Zero findings.

class Mutex {};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu);
};

Mutex gamma_mu_;
Mutex delta_mu_;

class AuditPass {
 public:
  int Run() { return 0; }
};

class LoadPass {
 public:
  void Run();
};

void LoadPass::Run() {
  MutexLock lock(delta_mu_);
}

class Checker {
 public:
  int Check();
};

int Checker::Check() {
  MutexLock lock(gamma_mu_);
  AuditPass pass;
  return pass.Run();
}

void DeltaThenGamma() {
  MutexLock outer(delta_mu_);
  MutexLock inner(gamma_mu_);
}
