//! Reused-tracker equivalence: a [`Tracker`] recycled across walk windows
//! (every walk clears the tracker it is handed) must be indistinguishable
//! from a freshly constructed one — byte-identical transformed-operation
//! streams and byte-identical merged documents — under testgen's
//! multi-byte UTF-8 concurrent workloads.
//!
//! This is the safety net for the slab arena's capacity-retaining
//! `clear()`: if any scrap of state survives a reset (a stale cache entry,
//! a dirty free-list slot, a dense-index remnant), these properties break.

use eg_dag::walk::PlanOrder;
use egwalker::testgen::random_oplog;
use egwalker::tracker::Tracker;
use egwalker::walker::transformed_ops;
use egwalker::{Branch, WalkerOpts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One tracker reused across many *independent* documents emits the
    /// same op stream as a fresh tracker per document.
    #[test]
    fn reused_tracker_matches_fresh_across_documents(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
        replicas in 1usize..5,
        merge_prob in 0.0f64..0.6,
    ) {
        let mut reused: Tracker = Tracker::new();
        for doc in 0..4u64 {
            let oplog = random_oplog(seed.wrapping_add(doc), steps, replicas, merge_prob);
            let fresh = transformed_ops(
                &oplog,
                &[],
                oplog.version(),
                WalkerOpts::default(),
                &mut Tracker::new(),
            );
            let recycled = transformed_ops(
                &oplog,
                &[],
                oplog.version(),
                WalkerOpts::default(),
                &mut reused,
            );
            prop_assert_eq!(fresh.0, recycled.0, "final versions diverged (doc {})", doc);
            prop_assert_eq!(fresh.1, recycled.1, "op streams diverged (doc {})", doc);
        }
    }

    /// Incremental merges through one long-lived tracker produce the same
    /// document as batch checkouts with per-merge trackers, at every
    /// intermediate version — with the walker options changing from one
    /// merge to the next on that same tracker (clearing on/off, every
    /// branch-ordering policy).
    #[test]
    fn incremental_reused_merges_match_batch_checkout(
        seed in 0u64..1_000_000,
        steps in 4usize..40,
        replicas in 2usize..5,
        merge_prob in 0.1f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let orders = [PlanOrder::SmallestFirst, PlanOrder::LargestFirst, PlanOrder::Arrival];
        let opts_for = |call: usize| WalkerOpts {
            enable_clearing: call % 2 == 0,
            plan_order: orders[call % orders.len()],
        };
        let mut live = Branch::new();
        let mut tracker: Tracker = Tracker::new();
        // Merge in growing prefixes of the LV space: each step exercises a
        // reset tracker against partially merged state.
        let n = oplog.len();
        let step = (n / 5).max(1);
        let mut upto = step.min(n);
        let mut call = 0;
        loop {
            // LV prefixes are causally closed (append order is topological),
            // so the prefix's frontier is its dominator set.
            let all: Vec<usize> = (0..upto).collect();
            let frontier = oplog.graph.find_dominators(&all);
            live.merge_to(&oplog, frontier.as_slice(), opts_for(call), &mut tracker);
            call += 1;
            let batch = oplog.checkout(live.version.as_slice());
            prop_assert_eq!(
                live.content.to_string(),
                batch.content.to_string(),
                "documents diverged at {}/{} events", upto, n
            );
            if upto == n {
                break;
            }
            upto = (upto + step).min(n);
        }
        // Final state matches a full tip checkout.
        live.merge_to(&oplog, oplog.version(), opts_for(call), &mut tracker);
        let tip = oplog.checkout_tip();
        prop_assert_eq!(live.content.to_string(), tip.content.to_string());
        prop_assert_eq!(&live.version, oplog.version());
    }

    /// Cache switches interact correctly with reuse: for each of the four
    /// cache combinations, one tracker built once in that mode and reused
    /// across repeated merges emits exactly the default tracker's ops.
    #[test]
    fn reuse_across_cache_configurations(
        seed in 0u64..1_000_000,
        steps in 1usize..50,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.5,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let opts = WalkerOpts::default();
        let expected = transformed_ops(&oplog, &[], oplog.version(), opts, &mut Tracker::new());
        for (cursor_cache, emit_cache) in
            [(true, true), (false, true), (true, false), (false, false)]
        {
            let mut tracker = Tracker::with_caches(cursor_cache, emit_cache);
            for round in 0..3 {
                let got = transformed_ops(&oplog, &[], oplog.version(), opts, &mut tracker);
                prop_assert_eq!(&expected.0, &got.0);
                prop_assert_eq!(&expected.1, &got.1,
                    "op streams diverged at caches ({}, {}), round {}",
                    cursor_cache, emit_cache, round);
            }
        }
    }
}
