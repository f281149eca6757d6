// AddressSanitizer annotations for pooled memory.
//
// The repository recycles hot objects on free lists (envelopes, call
// contexts, RecyclingBlockCache blocks) instead of returning them to the
// allocator, which would hide a use-after-release from ASan: the memory is
// still "allocated". Pools poison an object while it is parked and unpoison
// it when it is handed out again or finally deleted, so under ASan a touch
// of a parked object is reported like a use-after-free. Without ASan both
// macros compile to nothing.

#ifndef SRC_COMMON_ASAN_H_
#define SRC_COMMON_ASAN_H_

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#endif  // SRC_COMMON_ASAN_H_
