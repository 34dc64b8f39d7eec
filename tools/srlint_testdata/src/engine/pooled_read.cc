// R10 fixture: no read path outside the pool itself includes the pool.
#include "src/storage/page_file.h"
#include "src/storage/buffer_pool.h"  // srlint-expect(R10)

// An include that only appears in a comment must not count:
// #include "src/storage/buffer_pool.h"
