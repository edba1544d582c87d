//! The walk driver: replays a window of the event graph through the
//! [`Tracker`], emitting transformed operations
//! (paper §3.2), clearing internal state at critical versions and
//! fast-forwarding untransformed runs (§3.5), and replaying only conflict
//! windows on merge (§3.6).

use crate::op::{ListOpKind, TextOpRef, TextOperation};
use crate::tracker::Tracker;
use crate::OpLog;
use eg_dag::walk::PlanOrder;
use eg_dag::{Frontier, LV};
use eg_rle::{DTRange, HasLength};

/// Tuning knobs for the walker.
///
/// The tracker's lookup caches are not options: they are fixed when the
/// [`Tracker`] is built (see [`Tracker::with_caches`] for the uncached
/// reference mode the equivalence tests compare against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkerOpts {
    /// Enables the §3.5 optimisations: clearing the internal state at
    /// critical versions and emitting events untransformed when both their
    /// version and parent version are critical. Disabling this reproduces
    /// the "opt disabled" series of the paper's Fig. 9.
    pub enable_clearing: bool,
    /// Branch-ordering policy for the topological sort (§3.2, §3.7). The
    /// non-default policies exist only for the traversal-order ablation
    /// that §4.3 describes ("as much as 8× slower").
    pub plan_order: PlanOrder,
}

impl Default for WalkerOpts {
    fn default() -> Self {
        WalkerOpts {
            enable_clearing: true,
            plan_order: PlanOrder::SmallestFirst,
        }
    }
}

/// Replays `spans` (ascending, causally closed above `base`) through
/// `tracker` and calls `out(lvs, op)` with the transformed operation for
/// every event inside `emit` (ascending subset of `spans`).
///
/// Transformed operations arrive in a linear order: applying them in
/// sequence to the document at `Events(version at emit start)` yields the
/// merged document (the "rebase" of §3).
///
/// The tracker is cleared first, retaining its slab, index, scratch and
/// plan capacity, and is left populated on return — so a long-lived
/// replica replays thousands of windows through one tracker with
/// near-zero allocator traffic. Its fanout `N` and cache switches are
/// whatever it was built with.
///
/// Operations are emitted as borrowed [`TextOpRef`]s — insert content is a
/// `&str` slice of the oplog's content arena, valid only for the duration
/// of the callback. Callers that need ownership convert with
/// [`TextOpRef::to_owned`] (that is the only per-op allocation in the
/// pipeline, and it is opt-in).
pub fn walk_reusing<const N: usize, F>(
    oplog: &OpLog,
    base: &Frontier,
    spans: &[DTRange],
    emit: &[DTRange],
    opts: WalkerOpts,
    tracker: &mut Tracker<N>,
    out: &mut F,
) where
    F: FnMut(DTRange, TextOpRef<'_>),
{
    walk_driver(oplog, base, spans, emit, opts, tracker, false, out)
}

/// [`walk_reusing`] *without* the tracker reset: the caller-owned tracker
/// already represents the document at `base` (a restored checkpoint
/// snapshot, or the final state of a previous walk whose window ended
/// exactly at `base`), and the walk extends it over `spans`.
///
/// This is the cached-load fast path (paper §3.5): instead of rebuilding
/// tracker state from the latest critical version, a resumed walk replays
/// only the oplog tail. `base` must be the tracker's current (prepare ==
/// effect) version, and — as with every walk — a version dominated by all
/// events in `spans`.
///
/// The walk starts with the tracker considered dirty, so the §3.5
/// fast-forward stays off until the first critical version is crossed and
/// the state cleared; output is byte-identical to a fresh walk either way.
pub fn walk_resuming<const N: usize, F>(
    oplog: &OpLog,
    base: &Frontier,
    spans: &[DTRange],
    emit: &[DTRange],
    opts: WalkerOpts,
    tracker: &mut Tracker<N>,
    out: &mut F,
) where
    F: FnMut(DTRange, TextOpRef<'_>),
{
    walk_driver(oplog, base, spans, emit, opts, tracker, true, out)
}

/// Shared walk loop behind [`walk_reusing`] (fresh tracker
/// state) and [`walk_resuming`] (tracker restored at `base`).
#[allow(clippy::too_many_arguments)]
fn walk_driver<const N: usize, F>(
    oplog: &OpLog,
    base: &Frontier,
    spans: &[DTRange],
    emit: &[DTRange],
    opts: WalkerOpts,
    tracker: &mut Tracker<N>,
    resume: bool,
    out: &mut F,
) where
    F: FnMut(DTRange, TextOpRef<'_>),
{
    // The plan's pooled buffers live on the tracker so reuse carries them
    // across windows; it is taken out for the duration of the walk because
    // the steps borrow from its range pool while the tracker is mutated.
    let mut plan = std::mem::take(&mut tracker.plan);
    plan.plan_with_order(&oplog.graph, base, spans, emit, opts.plan_order);
    // `clean` means: the tracker holds nothing but a placeholder, standing
    // for the document at the current (prepare == effect) version. A
    // resumed tracker carries real records for the pre-`base` window, so
    // it starts dirty.
    let mut clean = !resume;
    if clean {
        tracker.clear();
    }

    // Cursor into `emit` (ranges are ascending, but consumption can jump
    // between branches, so we binary search).
    let emit_overlap = |range: DTRange| -> (bool, usize) {
        // Returns (emit?, prefix_len) for the prefix of `range` with a
        // uniform emit flag.
        match emit.binary_search_by(|r| {
            if r.end <= range.start {
                std::cmp::Ordering::Less
            } else if r.start > range.start {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(idx) => {
                let r = emit[idx];
                (true, r.end.min(range.end) - range.start)
            }
            Err(idx) => {
                let next_start = emit.get(idx).map(|r| r.start).unwrap_or(usize::MAX);
                (false, next_start.min(range.end) - range.start)
            }
        }
    };

    for step in plan.iter() {
        if !step.retreat.is_empty() || !step.advance.is_empty() {
            // Retreating a clean tracker would touch records the clear
            // dropped; the §3.5 invariants forbid it.
            debug_assert!(!clean || step.retreat.is_empty());
            for r in step.retreat.iter().rev() {
                tracker.retreat(oplog, *r);
            }
            for r in step.advance {
                tracker.advance(oplog, *r);
            }
            clean = false;
        }

        let mut range = step.consume;
        while !range.is_empty() {
            // Fast-forward: with a clean tracker at the run's parent
            // version, events whose versions are critical need no
            // transformation at all (§3.5).
            if opts.enable_clearing && clean {
                if let Some(crit) = oplog.graph.criticals().find(range.start) {
                    let ff_end = crit.end.min(range.end);
                    emit_as_is(oplog, (range.start..ff_end).into(), &emit_overlap, out);
                    range.start = ff_end;
                    continue;
                }
            }

            // Apply through the tracker, chunked on emit boundaries.
            let (emit_flag, len) = emit_overlap(range);
            let chunk: DTRange = (range.start..range.start + len).into();
            tracker.apply_range(oplog, chunk, emit_flag, out);
            clean = false;
            range.start = chunk.end;

            // Clearing: if we just crossed a critical version, drop the
            // internal state (§3.5).
            if opts.enable_clearing && oplog.graph.is_critical(chunk.end - 1) {
                tracker.clear();
                clean = true;
            }
        }
    }
    tracker.plan = plan;
}

/// Emits the events of `range` untransformed (their version and parent
/// versions are critical, so the transformed operation equals the
/// original).
fn emit_as_is<F, G>(oplog: &OpLog, range: DTRange, emit_overlap: &G, out: &mut F)
where
    F: FnMut(DTRange, TextOpRef<'_>),
    G: Fn(DTRange) -> (bool, usize),
{
    let mut range = range;
    while !range.is_empty() {
        let (emit_flag, len) = emit_overlap(range);
        let chunk: DTRange = (range.start..range.start + len).into();
        if emit_flag {
            for (lvs, mut run) in oplog.ops_in(chunk) {
                // Normalise multi-unit backward deletes: deleting [s, e)
                // backwards one key-press at a time has the same effect as
                // deleting the whole range at `s`.
                if run.kind == ListOpKind::Del {
                    run.fwd = true;
                }
                let op = TextOpRef {
                    kind: run.kind,
                    pos: run.loc.start,
                    len: lvs.len(),
                    content: run.content.map(|c| oplog.content_slice(c)),
                };
                out(lvs, op);
            }
        }
        range.start = chunk.end;
    }
}

/// Builds a tracker representing the document at `version`, with the
/// prepare and effect dimensions both at exactly `version` — the state a
/// checkpoint snapshot captures ([`Tracker::to_snapshot`]) and that
/// [`walk_resuming`] later extends over the oplog tail.
///
/// Only the §3.5 conflict window (from the latest critical version at or
/// below `version`) is replayed, not the whole history; at a critical
/// version the window is empty and the tracker is just the placeholder.
pub fn tracker_at(oplog: &OpLog, version: &[LV], opts: WalkerOpts) -> Tracker {
    let mut tracker = Tracker::new();
    if version.is_empty() {
        return tracker;
    }
    let (base, spans) = oplog.graph.conflict_window(version, version);
    if spans.is_empty() {
        return tracker;
    }
    walk_reusing(
        oplog,
        &base,
        &spans,
        &[],
        opts,
        &mut tracker,
        &mut |_, _| {},
    );
    // The walk leaves the prepare dimension at the tip of the last run it
    // consumed; advance it over whatever else `version` dominates so that
    // prepare == effect == `version`. Fast-forwarded runs are critical
    // versions and hence already inside any later prepare version, so
    // every range advanced here has live records in the tracker.
    let mut last_consumed = None;
    for step in tracker.plan.iter() {
        if !step.consume.is_empty() {
            last_consumed = Some(step.consume.end - 1);
        }
    }
    let prepare = match last_consumed {
        Some(lv) => Frontier::new_1(lv),
        None => base,
    };
    let gap = oplog.graph.diff(prepare.as_slice(), version);
    debug_assert!(gap.only_a.is_empty());
    for r in gap.only_b {
        tracker.advance(oplog, r);
    }
    tracker
}

/// Replays the full event graph applying the emitted (transformed)
/// operations to a length counter instead of a rope, verifying every
/// position stays in bounds.
///
/// This is the structural-position check decoders run on untrusted files:
/// an event graph can be well-formed (valid parents, agents, RLE columns)
/// while its op *positions* reference characters that never exist in the
/// document the events build — applying such an op would panic inside the
/// rope. The simulation walks the exact plan a checkout walks and checks
/// the exact positions a checkout would apply, so `true` guarantees
/// [`OpLog::checkout_tip`] cannot go out of bounds, and valid logs are
/// never rejected.
pub fn events_apply_cleanly(oplog: &OpLog) -> bool {
    if oplog.is_empty() {
        return true;
    }
    let spans = [DTRange::from(0..oplog.len())];
    let mut len = 0usize;
    let mut ok = true;
    walk_reusing(
        oplog,
        &Frontier::root(),
        &spans,
        &spans,
        WalkerOpts::default(),
        &mut Tracker::new(),
        &mut |_, op| {
            if !ok {
                return;
            }
            match op.kind {
                ListOpKind::Ins if op.pos <= len => len += op.len,
                ListOpKind::Del if op.pos.checked_add(op.len).is_some_and(|e| e <= len) => {
                    len -= op.len;
                }
                _ => ok = false,
            }
        },
    );
    ok
}

/// Computes the transformed operations that take a document at version
/// `from` to the version `merge_frontier ∪ from`, replaying through
/// `tracker` (cleared first, as in [`walk_reusing`]).
///
/// Returns the final version alongside the (LV range, operation) pairs in
/// application order. This is an ownership boundary: the borrowed ops the
/// walker emits are materialised into owned [`TextOperation`]s here.
pub fn transformed_ops<const N: usize>(
    oplog: &OpLog,
    from: &[LV],
    merge_frontier: &[LV],
    opts: WalkerOpts,
    tracker: &mut Tracker<N>,
) -> (Frontier, Vec<(DTRange, TextOperation)>) {
    let target = oplog.graph.version_union(from, merge_frontier);
    if target.as_slice() == from {
        return (target, Vec::new());
    }
    let diff = oplog.graph.diff(from, &target);
    debug_assert!(diff.only_a.is_empty());
    let (base, spans) = oplog.graph.conflict_window(from, &target);
    let mut out = Vec::new();
    walk_reusing(
        oplog,
        &base,
        &spans,
        &diff.only_b,
        opts,
        tracker,
        &mut |lvs, op| out.push((lvs, op.to_owned())),
    );
    (target, out)
}
