// R10 counter-example: the pool's own implementation includes its header.
#include "src/storage/buffer_pool.h"
