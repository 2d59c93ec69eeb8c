//! A counting global allocator. It counts only inside [`measure`], so the
//! timed samples pay one relaxed load per allocation and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`], counting while [`measure`] runs.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting began. Frees of blocks
/// allocated before that can push it below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Bytes requested by allocations, plus the growth of reallocations.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` hold for `System` too.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Heap use of one closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// Highest live heap reached, bytes above the level at the start.
    pub peak_bytes: u64,
    /// Bytes allocated in total.
    pub allocated_bytes: u64,
}

/// Runs `f` with counting on. Not reentrant: nested calls would reset the
/// outer counters.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ALLOCATED.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let usage = Usage {
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
        allocated_bytes: ALLOCATED.load(Relaxed),
    };
    (out, usage)
}

/// Keeps freed memory in the process, so a sample reuses the pages the
/// previous one touched instead of faulting fresh ones in. With glibc's
/// defaults every large buffer is mapped and unmapped per sample, and the
/// page-fault cost that adds varied by ±15 % from run to run on a shared
/// 2-vCPU VM, hiding the program's own time. Returns `false` where the
/// allocator cannot be tuned.
pub fn retain_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_MAX: c_int = -4;
        // SAFETY: `mallopt` only sets glibc malloc tunables, and is called
        // before the benchmark starts any thread.
        unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_closure_allocations() {
        // Tests on other threads allocate and free meanwhile, so only the
        // total is a lower bound here; the live peak may not be.
        let (v, usage) = measure(|| std::hint::black_box(vec![0u8; 1 << 20]));
        assert!(usage.allocated_bytes >= 1 << 20);
        drop(v);
    }
}
