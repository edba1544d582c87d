//! The measurement lock keeps concurrent allocation counts apart: two
//! threads that start measuring at the same moment each see exactly the
//! allocations they made themselves, never the other's — the property the
//! `zero_alloc` and `server_alloc` bounds rely on when the test harness
//! runs their tests in parallel.

use eg_bench::alloc_track::{alloc_calls, measure_lock, TrackingAlloc};
use std::sync::{Arc, Barrier};
use std::thread;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Allocations each thread makes inside its measured region.
const BOXES: usize = 20_000;

/// Waits for the other thread, then counts its own `BOXES` allocations
/// under the measurement lock.
fn measure_own_boxes(start: &Barrier) -> usize {
    let mut keep: Vec<Box<usize>> = Vec::with_capacity(BOXES);
    start.wait();
    let _lock = measure_lock();
    let before = alloc_calls();
    for i in 0..BOXES {
        keep.push(Box::new(i));
    }
    let counted = alloc_calls() - before;
    std::hint::black_box(&keep);
    counted
}

#[test]
fn concurrent_measurements_each_count_only_their_own_allocations() {
    let start = Arc::new(Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let start = Arc::clone(&start);
            thread::spawn(move || measure_own_boxes(&start))
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().expect("measuring thread panicked"), BOXES);
    }
}
