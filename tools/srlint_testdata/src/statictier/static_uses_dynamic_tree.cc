// R8 fixture: the static tier composes its dynamic delta through the
// PointIndex interface and the factory, never a concrete tree header.
#include "src/index/point_index.h"
#include "src/core/sr_tree.h"  // srlint-expect(R8)

// An include that only appears in a comment must not count:
// #include "src/rstar/rstar_tree.h"
