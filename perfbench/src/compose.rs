//! The traced merge: `Branch::merge_with_opts_reusing` re-composed from
//! the public calls it is made of, with a span around each layer's call.
//!
//! union → diff → conflict window (`dag`), then `walk_reusing` (`core`)
//! emitting into `TextOpRef::apply_to` (`rope`). A standalone
//! `WalkPlan::plan_with_order` on the same inputs gives the planning share
//! (the walk plans again internally). Callers compare the result with the
//! untraced path byte for byte, so the breakdown cannot drift from the
//! program it explains.

use std::time::Instant;

use eg_dag::walk::WalkPlan;
use eg_rle::{DTRange, HasLength};
use egwalker::walker::{self, WalkerOpts};
use egwalker::{Branch, OpLog, Tracker};

use crate::report::{secs, Layers};

/// Merges the oplog tip into `branch` through the traced composition,
/// driving the caller's tracker like `Branch::merge_reusing`.
pub fn merge(oplog: &OpLog, branch: &mut Branch, tracker: &mut Tracker, l: &mut Layers) {
    let opts = WalkerOpts::default();
    let t = Instant::now();
    let target = oplog.graph.version_union(&branch.version, oplog.version());
    if target.as_slice() == branch.version.as_slice() {
        l.window_s += secs(t);
        return;
    }
    let diff = oplog.graph.diff(&branch.version, &target);
    let (base, spans) = oplog.graph.conflict_window(&branch.version, &target);
    l.window_s += secs(t);
    l.window_events += total_len(&spans) as u64;
    l.new_events += total_len(&diff.only_b) as u64;

    let t = Instant::now();
    let mut plan = WalkPlan::new();
    plan.plan_with_order(&oplog.graph, &base, &spans, &diff.only_b, opts.plan_order);
    l.plan_s += secs(t);
    std::hint::black_box(plan.len());

    let mut apply_s = 0.0;
    let mut emitted = 0u64;
    let content = &mut branch.content;
    let t = Instant::now();
    walker::walk_reusing(
        oplog,
        &base,
        &spans,
        &diff.only_b,
        opts,
        tracker,
        &mut |_, op| {
            let t = Instant::now();
            op.apply_to(content);
            apply_s += secs(t);
            emitted += 1;
        },
    );
    l.walk_self_s += secs(t) - apply_s;
    l.rope_apply_s += apply_s;
    l.emitted_ops += emitted;
    branch.version = target;
}

pub fn total_len(ranges: &[DTRange]) -> usize {
    ranges.iter().map(|r| r.len()).sum()
}

/// Critical events (paper §3.5) the graph holds: the points a conflict
/// window can start from.
pub fn critical_events(graph: &eg_dag::Graph) -> u64 {
    total_len(graph.criticals_runs()) as u64
}
