// The one cache-line constant shared by every concurrency-sensitive layer.
//
// std::hardware_destructive_interference_size is the standard spelling, but
// GCC warns (-Winterference-size) that its value is ABI-fragile across
// translation units, and libstdc++ only exposes it behind a feature-test
// macro.  Every mainstream target this library builds on (x86-64, aarch64
// with 64-byte L1D lines) destructively interferes at 64 bytes, so the
// repo-wide constant is pinned here and adopted by the concurrent layer
// and the parallel explorer's shared counters -- one number, one place to
// change it.
#pragma once

#include <cstddef>

// ThreadSanitizer neither compiles standalone fences (GCC promotes the
// -Wtsan "atomic_thread_fence is not supported" warning to an error under
// our -Werror) nor models them at runtime, so fence-synchronized non-atomic
// data would produce false race reports.  TSan builds therefore select an
// equivalently ordered fence-FREE formulation of the fence-based algorithms
// (strengthened per-operation orders in place of the standalone fences) via
// kTsanBuild below.
#if defined(__SANITIZE_THREAD__)
#define WFREGS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WFREGS_TSAN_BUILD 1
#endif
#endif
#ifndef WFREGS_TSAN_BUILD
#define WFREGS_TSAN_BUILD 0
#endif

namespace wfregs::concurrent {

/// Destructive-interference granularity: members of distinct threads'
/// write-hot state must not share a block of this many bytes.
inline constexpr std::size_t kCacheLine = 64;

/// True when compiling under ThreadSanitizer (see the macro block above).
inline constexpr bool kTsanBuild = WFREGS_TSAN_BUILD != 0;

}  // namespace wfregs::concurrent
