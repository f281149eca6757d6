// Small-buffer-optimized move-only callable for the simulation hot path.
//
// Every event the engine dispatches used to be a std::function<void()>;
// libstdc++ stores captures inline only when they are trivially copyable and
// at most 16 bytes, so the bread-and-butter captures of this codebase —
// [this, EnvelopePtr, epoch] (24 bytes, not trivially copyable, and
// move-only, which std::function cannot hold at all) and
// [this, dest, bytes, EnvelopePtr] (24 bytes) — would each cost a heap
// allocation per scheduled event. InlineTask is the void() InlineFunction
// (src/common/inline_function.h) with four machine words of inline storage:
// enough for those and for a moved-in std::function<void()> (32 bytes on
// libstdc++), which covers every steady-state callback in the engine,
// network and server dispatch paths. Trivially copyable callables relocate
// by memcpy, which matters because the engine moves every task twice per
// event.

#ifndef SRC_COMMON_INLINE_TASK_H_
#define SRC_COMMON_INLINE_TASK_H_

#include "src/common/inline_function.h"

namespace actop {

using InlineTask = InlineFunction<void(), 4 * sizeof(void*)>;

}  // namespace actop

#endif  // SRC_COMMON_INLINE_TASK_H_
