// R8 fixture: a static-tier file other than the tiered index includes no
// dynamic-tree header.
#include "src/index/point_index.h"
#include "src/core/sr_tree.h"  // srlint-expect(R8)

// An include that only appears in a comment must not count:
// #include "src/rstar/rstar_tree.h"
