// Clang Thread Safety Analysis macros (Hutchins et al., SCAM 2014).
//
// These wrap the `thread_safety` attribute family so lock discipline in the
// concurrent read path (src/storage/, src/engine/) is checked at compile
// time: every mutex-protected member declares its mutex with GUARDED_BY,
// every locking function declares what it acquires/releases, and a build
// with -Wthread-safety (CMake option SRTREE_THREAD_SAFETY, clang only)
// proves the discipline on every path rather than on the one schedule a
// TSan run happened to execute.
//
// On compilers without the attributes (GCC) every macro expands to nothing,
// so annotated code builds everywhere.
//
// Placement rules (the GNU attribute grammar both compilers parse):
//   * member annotations follow the declarator:  int x GUARDED_BY(mu_);
//   * function annotations follow the parameter list and any cv-qualifier:
//       void Lock() ACQUIRE(mu_);
//       uint64_t reads() const REQUIRES(mu_);
//   * on virtual overrides they must come AFTER the virt-specifier:
//       IoStats GetIoStats() const override EXCLUDES(stats_mu_);

#ifndef SRTREE_BASE_THREAD_ANNOTATIONS_H_
#define SRTREE_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SRTREE_NO_THREAD_SAFETY_ANALYSIS)
#define SRTREE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SRTREE_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// Declares a class to be a capability (e.g. CAPABILITY("mutex")). Holding
// an instance is what GUARDED_BY / REQUIRES statements refer to.
#define CAPABILITY(x) SRTREE_THREAD_ANNOTATION(capability(x))

// Declares an RAII class whose constructor acquires a capability and whose
// destructor releases it (std::lock_guard-style).
#define SCOPED_CAPABILITY SRTREE_THREAD_ANNOTATION(scoped_lockable)

// Data members: reads/writes require holding the given capability
// (exclusively for writes). PT_GUARDED_BY is the pointee variant.
#define GUARDED_BY(x) SRTREE_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) SRTREE_THREAD_ANNOTATION(pt_guarded_by(x))

// Function preconditions: the caller must hold the capability (REQUIRES),
// or must NOT hold it (EXCLUDES — detects self-deadlock on non-reentrant
// mutexes).
#define REQUIRES(...) \
  SRTREE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SRTREE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) SRTREE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Function effects: the function acquires/releases the capability.
#define ACQUIRE(...) \
  SRTREE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SRTREE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  SRTREE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SRTREE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  SRTREE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Runtime assertion that the capability is held (e.g. a debug check); the
// analysis treats it as proof of possession from that point on.
#define ASSERT_CAPABILITY(x) \
  SRTREE_THREAD_ANNOTATION(assert_capability(x))

// Declares that the function returns a reference to the given capability
// (for accessors handing out a mutex).
#define RETURN_CAPABILITY(x) SRTREE_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for functions that intentionally break the discipline, e.g.
// deprecated unsynchronized accessors kept for the single-threaded paper
// benches. Every use carries a comment naming the external contract that
// makes it sound.
#define NO_THREAD_SAFETY_ANALYSIS \
  SRTREE_THREAD_ANNOTATION(no_thread_safety_analysis)

// Structured annotation (checked by tools/srcheck.py rule C8, invisible to
// the compiler) for a mutable member of a mutex-owning class whose safety
// rests on a contract the analysis cannot see: single-writer working state
// serialized by an external lock, set-once-in-constructor fields, swap
// operations documented as excluded from concurrent use. The argument is a
// mandatory string literal naming that contract — C8 rejects an empty one.
// This is an annotation, not a waiver: it asserts a real invariant at the
// declaration, where reviewers can hold it against the class comment.
#define UNGUARDED_OK(...)

#endif  // SRTREE_BASE_THREAD_ANNOTATIONS_H_
