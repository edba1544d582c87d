//! A counting global allocator (for the Fig. 10 memory experiment and the
//! zero-allocation emit-path test).
//!
//! Byte accounting (live bytes + peak) is always on. With the
//! `alloc-counts` feature (default), the allocator additionally counts
//! **allocation calls** — the metric the zero-allocation emit pipeline is
//! measured by: a steady-state transform+apply must not allocate per
//! operation, which byte peaks alone cannot prove (a small alloc/free per
//! op leaves the peak flat).
//!
//! Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: eg_bench::alloc_track::TrackingAlloc = eg_bench::alloc_track::TrackingAlloc;
//! ```
//!
//! The counters are process-wide, so a measurement sees the allocations
//! its code makes on worker threads — and those of anything else running
//! in the process. Test binaries that run several counting tests at once
//! serialise them with [`measure_lock`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
#[cfg(feature = "alloc-counts")]
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

/// The tracking allocator: forwards to the system allocator, counting
/// live bytes, the high-water mark, and (with `alloc-counts`) the number
/// of allocation calls.
pub struct TrackingAlloc;

// SAFETY: All allocation is delegated to `System`; the extra work only
// updates atomic counters.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded verbatim under `GlobalAlloc`'s
        // own contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
            #[cfg(feature = "alloc-counts")]
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract (`ptr` came from
    // this allocator with this `layout`); both are forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see fn-level comment.
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract (`ptr` came from
    // this allocator with this `layout`); all three are forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: see fn-level comment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size();
            if new_size >= old {
                let cur = CURRENT.fetch_add(new_size - old, Ordering::Relaxed) + (new_size - old);
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(old - new_size, Ordering::Relaxed);
            }
            // A realloc that moves (or grows) is allocator work too; count
            // it as one call.
            #[cfg(feature = "alloc-counts")]
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Takes the process-wide measurement lock.
///
/// The counters cannot tell one thread's allocations from another's (a
/// thread-local count would miss the worker threads a server test has to
/// include), so two measurements open at once would each count the
/// other's work. A counting test holds this lock across everything it
/// allocates — its setup and its measured regions — so no other counting
/// test allocates while one of its regions is open. A test that panics
/// while holding the lock does not poison it for the rest.
pub fn measure_lock() -> MutexGuard<'static, ()> {
    MEASURE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Live heap bytes right now.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Resets the peak to the current level and returns the previous peak.
pub fn reset_peak() -> usize {
    PEAK.swap(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// The high-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Total allocation calls so far (alloc + realloc; 0 without the
/// `alloc-counts` feature).
pub fn alloc_calls() -> usize {
    #[cfg(feature = "alloc-counts")]
    {
        ALLOC_CALLS.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-counts"))]
    {
        0
    }
}

/// Runs `f`, returning `(result, peak_delta, retained_delta)`: extra bytes
/// at peak during the call, and extra bytes still live afterwards (the
/// result is kept alive).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = current_bytes();
    reset_peak();
    let value = f();
    let peak = peak_bytes().saturating_sub(before);
    let retained = current_bytes().saturating_sub(before);
    (value, peak, retained)
}

/// Runs `f`, returning `(result, peak_delta, retained_delta, alloc_calls)`
/// — [`measure`] plus the number of allocation calls performed during the
/// call (0 without `alloc-counts`).
pub fn measure_counting<T>(f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let calls_before = alloc_calls();
    let (value, peak, retained) = measure(f);
    (value, peak, retained, alloc_calls() - calls_before)
}
