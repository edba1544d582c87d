//! Tier-1 proof that the PR-6 zero-allocation steady state survives the
//! move onto worker threads (ISSUE 7 acceptance criterion).
//!
//! The whole test binary runs under the counting [`TrackingAlloc`] — the
//! counters are global atomics, so allocations made *on the worker
//! threads* are included (and the test holds [`measure_lock`] so that no
//! other counting test's allocations are). After a warm-up round (channel
//! buffers, slab arenas, session-name cache, rope chunks), each further
//! round of the same fleet script through the same host must stay within
//! a small per-op allocation budget, and the budget must not grow from
//! round to round: batch vectors recycle, trackers are reused per
//! document, and the edit path formats no strings.
//!
//! The per-op budget is NOT zero: every fleet edit is its own merge, and
//! a merge through a reused tracker has a small fixed overhead (tip
//! clone, version union — the same overhead the PR-6 `zero_alloc` test
//! bounds at 500 calls per *merge*). The bound here is far tighter than
//! that per-merge bound because steady-state sequential merges skip the
//! conflict machinery; what this test guards is the *pool* adding per-op
//! allocations (un-recycled batches, per-op boxing, name formatting).

use eg_bench::alloc_track::{alloc_calls, measure_lock, TrackingAlloc};
use eg_server::{ServerConfig, ServerHost};
use eg_trace::{fleet_workload, FleetOp, FleetSpec};
use std::sync::Arc;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn fleet_script() -> Arc<[FleetOp]> {
    fleet_workload(&FleetSpec {
        docs: 64,
        sessions: 32,
        edits: 4000,
        ..FleetSpec::default()
    })
    .into()
}

fn steady_state_allocs_per_op(workers: usize) -> Vec<f64> {
    let script = fleet_script();
    let host = ServerHost::with_config(ServerConfig {
        workers,
        ..ServerConfig::default()
    });
    // Warm-up: pays slab growth, channel buffers, session names, rope
    // chunks, histogram tables.
    let warm = host.run_script(&script);
    assert!(warm.edits() > 0);

    let mut per_round = Vec::new();
    for _ in 0..4 {
        let before = alloc_calls();
        let report = host.run_script(&script);
        let allocs = alloc_calls() - before;
        per_round.push(allocs as f64 / report.edits() as f64);
    }
    per_round
}

#[test]
fn worker_pool_steady_state_allocs_per_op_stay_bounded() {
    let _lock = measure_lock();
    for workers in [1, 4] {
        let rounds = steady_state_allocs_per_op(workers);
        eprintln!("workers={workers}: allocs/op per round = {rounds:?}");
        for (i, &per_op) in rounds.iter().enumerate() {
            assert!(
                per_op < 16.0,
                "workers={workers} round {i}: {per_op:.1} allocs/op — \
                 the pool lost the zero-alloc steady state"
            );
        }
        // Flatness: the last round must not allocate meaningfully more
        // than the first (a growth trend means something is not being
        // recycled / reused).
        let (first, last) = (rounds[0], rounds[rounds.len() - 1]);
        assert!(
            last <= first * 1.5 + 1.0,
            "workers={workers}: allocs/op grew across rounds ({first:.1} -> {last:.1})"
        );
    }
}
