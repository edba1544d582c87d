//! White-box reproduction of the paper's internal-state walkthrough:
//! Figure 5's `sp` state machine, and the record sequences of Figures 6
//! and 7, driven through the public [`Tracker`] API on the Figure 4 event
//! graph.

use eg_rle::DTRange;
use egwalker::tracker::{is_underwater_id, CrdtSpan, SpState, Tracker};
use egwalker::{Frontier, OpLog, TextOpRef};

/// Builds the Figure 4 oplog. LV mapping: e1→0 ("h"), e2→1 ("i"),
/// e3→2 ("H"), e4→3 (Delete(1)), e5→4 (Delete(1)), e6→5 ("e"),
/// e7→6 ("y"), e8→7 ("!").
fn figure_4_oplog() -> OpLog {
    let mut oplog = OpLog::new();
    let u1 = oplog.get_or_create_agent("user1");
    let u2 = oplog.get_or_create_agent("user2");
    oplog.add_insert(u1, 0, "h");
    oplog.add_insert(u1, 1, "i");
    let v_hi = oplog.version().clone();
    let e3 = oplog.add_insert_at(u2, &v_hi, 0, "H");
    let e4 = oplog.add_delete_at(u2, &Frontier::new_1(e3.last()), 1, 1);
    let e5 = oplog.add_delete_at(u1, &v_hi, 1, 1);
    let e6 = oplog.add_insert_at(u1, &Frontier::new_1(e5.last()), 1, "e");
    let e7 = oplog.add_insert_at(u1, &Frontier::new_1(e6.last()), 2, "y");
    let merged = Frontier::from_unsorted(&[e4.last(), e7.last()]);
    oplog.add_insert_at(u2, &merged, 3, "!");
    oplog
}

/// The tracker's real (non-placeholder) records, in document order.
fn real_records(t: &Tracker) -> Vec<CrdtSpan> {
    t.records()
        .into_iter()
        .filter(|r| !is_underwater_id(r.id.start))
        .collect()
}

fn sink(_: DTRange, _: TextOpRef<'_>) {}

#[test]
fn figure_6_left_state_after_e1_to_e4() {
    let oplog = figure_4_oplog();
    let mut t: Tracker = Tracker::new();
    t.apply_range(&oplog, (0..4).into(), false, &mut sink);

    // Fig. 6 left: records "H"(id 3→LV 2), "h"(id 1→LV 0), "i"(id 2→LV 1)
    // with sp = Ins / Del 1 / Ins and se = Ins / Del / Ins.
    let rows = real_records(&t);
    let flat: Vec<(usize, SpState, bool)> = rows
        .iter()
        .flat_map(|r| r.id.iter().map(|id| (id, r.sp, r.se_deleted)))
        .collect();
    assert_eq!(
        flat,
        vec![
            (2, SpState::Ins, false),   // "H"
            (0, SpState::Del(1), true), // "h" (deleted once)
            (1, SpState::Ins, false),   // "i"
        ]
    );
}

#[test]
fn figure_6_right_state_after_retreating_e4_e3() {
    let oplog = figure_4_oplog();
    let mut t: Tracker = Tracker::new();
    t.apply_range(&oplog, (0..4).into(), false, &mut sink);
    // Move the prepare version back to {e2}: retreat e4 then e3.
    t.retreat(&oplog, (3..4).into());
    t.retreat(&oplog, (2..3).into());

    // Fig. 6 right: "H" is NotInsertedYet, the deletion of "h" is undone
    // (sp = Ins), the effect state is unchanged.
    let rows = real_records(&t);
    let flat: Vec<(usize, SpState, bool)> = rows
        .iter()
        .flat_map(|r| r.id.iter().map(|id| (id, r.sp, r.se_deleted)))
        .collect();
    assert_eq!(
        flat,
        vec![
            (2, SpState::NotInsertedYet, false), // "H" retreated
            (0, SpState::Ins, true),             // "h": prepare undone, effect still Del
            (1, SpState::Ins, false),            // "i"
        ]
    );
}

#[test]
fn figure_7_state_after_full_replay() {
    let oplog = figure_4_oplog();
    let mut t: Tracker = Tracker::new();
    // Drive the walk exactly as §3.2 narrates.
    t.apply_range(&oplog, (0..4).into(), false, &mut sink); // e1..e4
    t.retreat(&oplog, (3..4).into()); // retreat e4
    t.retreat(&oplog, (2..3).into()); // retreat e3
    t.apply_range(&oplog, (4..7).into(), false, &mut sink); // e5..e7
    t.advance(&oplog, (2..4).into()); // advance e3, e4
    t.apply_range(&oplog, (7..8).into(), false, &mut sink); // e8

    // Fig. 7: "H" "h" "e" "y" "!" "i" with
    //   sp: Ins, Del 1, Ins, Ins, Ins, Del 1
    //   se: Ins, Del,   Ins, Ins, Ins, Del
    let rows = real_records(&t);
    let flat: Vec<(usize, SpState, bool)> = rows
        .iter()
        .flat_map(|r| r.id.iter().map(|id| (id, r.sp, r.se_deleted)))
        .collect();
    assert_eq!(
        flat,
        vec![
            (2, SpState::Ins, false),   // "H"
            (0, SpState::Del(1), true), // "h"
            (5, SpState::Ins, false),   // "e"
            (6, SpState::Ins, false),   // "y"
            (7, SpState::Ins, false),   // "!"
            (1, SpState::Del(1), true), // "i"
        ]
    );
}

#[test]
fn figure_5_double_delete_counts() {
    // Two concurrent deletes of the same character: sp counts to Del 2,
    // retreating one brings it back to Del 1, never to Ins (Fig. 5).
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    let b = oplog.get_or_create_agent("b");
    oplog.add_insert(a, 0, "x");
    let v = oplog.version().clone();
    oplog.add_delete_at(a, &v, 0, 1); // LV 1
    oplog.add_delete_at(b, &v, 0, 1); // LV 2, concurrent

    let mut t: Tracker = Tracker::new();
    t.apply_range(&oplog, (0..2).into(), false, &mut sink);
    // Prepare version {LV1}; to apply LV2 (parents {LV0}) retreat LV1.
    t.retreat(&oplog, (1..2).into());
    t.apply_range(&oplog, (2..3).into(), false, &mut sink);
    // Now advance LV1 again: the record must count two deletions.
    t.advance(&oplog, (1..2).into());
    let rows = real_records(&t);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].sp, SpState::Del(2));
    assert!(rows[0].se_deleted);

    // Retreat one of them: back to Del 1.
    t.retreat(&oplog, (2..3).into());
    let rows = real_records(&t);
    assert_eq!(rows[0].sp, SpState::Del(1));
    assert!(rows[0].se_deleted, "the effect state never un-deletes");
}

#[test]
fn transformed_output_of_figure_4() {
    // The walker's emitted operations for e5..e8, interpreted against the
    // merge order e1 e2 e3 e4 e5 e6 e7 e8: e5's Delete(1) must become
    // Delete(2) (the "h" sits after "H"), e6/e7 shift right by one, e8
    // stays at 3.
    let oplog = figure_4_oplog();
    let tip = oplog.version().clone();
    let (_, ops) = egwalker::walker::transformed_ops(
        &oplog,
        &[],
        &tip,
        egwalker::WalkerOpts::default(),
        &mut Tracker::new(),
    );
    let mut doc = eg_rope::Rope::new();
    for (_, op) in &ops {
        op.apply_to(&mut doc);
    }
    assert_eq!(doc.to_string(), "Hey!");
}
