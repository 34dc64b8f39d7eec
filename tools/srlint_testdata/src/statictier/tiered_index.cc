// R8 fixture: the tiered index may include the SR-tree header, the type of
// its delta, and no other dynamic-tree header.
#include "src/core/sr_tree.h"
#include "src/rstar/rstar_tree.h"  // srlint-expect(R8)
