// C6 positive fixture: a REQUIRES on one class's declaration does not
// hold for another class's method of the same name. Only Locked::Step is
// declared REQUIRES(epsilon_mu_); Unlocked::Step, which takes zeta_mu_,
// runs without it, and elsewhere zeta_mu_ is held while epsilon_mu_ is
// taken. Keyed by bare name, Unlocked::Step would seem to hold
// epsilon_mu_ and close a false epsilon/zeta cycle. Zero findings.

class Mutex {};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu);
};

#define REQUIRES(...)

Mutex epsilon_mu_;
Mutex zeta_mu_;

class Locked {
 public:
  void Step() REQUIRES(epsilon_mu_);
};

class Unlocked {
 public:
  void Step();
};

void Locked::Step() {}

void Unlocked::Step() {
  MutexLock lock(zeta_mu_);
}

void ZetaThenEpsilon() {
  MutexLock outer(zeta_mu_);
  MutexLock inner(epsilon_mu_);
}
