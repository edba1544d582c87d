//! History inspection: blame, version-to-version diffs, and scrubbing.
//!
//! "Since Eg-walker stores a fine-grained editing history of a document, it
//! allows applications to show that history to the user, and to restore
//! arbitrary past versions of a document by replaying subsets of the graph"
//! (paper §6). This module implements those applications on top of the
//! walker:
//!
//! * [`OpLog::blame`] attributes every character of the document to the
//!   event (and thus author) that inserted it;
//! * [`OpLog::diff_versions`] computes the index-based operations that take
//!   the document at one version to another — the incremental update of
//!   §2.4, exposed as an API;
//! * [`Scrubber`] steps through the document's states event by event, the
//!   building block of a history slider UI.
//!
//! Everything here is derived by replay; nothing adds persistent state.

use crate::op::{ListOpKind, TextOperation};
use crate::walker::{self, WalkerOpts};
use crate::{OpLog, Tracker};
use eg_dag::LV;
use eg_rle::{DTRange, HasLength};
use eg_rope::Rope;

/// A run of consecutive document characters inserted by one run of events
/// from one author.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSpan {
    /// The inserting events (one per character, consecutive LVs).
    pub lvs: DTRange,
    /// The author (agent name) of those events.
    pub agent: String,
}

impl AttrSpan {
    /// The number of characters covered.
    pub fn len(&self) -> usize {
        self.lvs.len()
    }

    /// Returns `true` if the span covers no characters (never produced).
    pub fn is_empty(&self) -> bool {
        self.lvs.is_empty()
    }
}

impl OpLog {
    /// Attributes each character of the current document to its inserting
    /// event, run-length compressed in document order.
    ///
    /// The concatenated span lengths equal the document length. Cost is a
    /// full replay plus `O(n)` per operation for the attribution splice —
    /// acceptable for interactive "blame" displays, not for hot paths.
    pub fn blame(&self) -> Vec<AttrSpan> {
        self.blame_at(&self.version().clone())
    }

    /// [`OpLog::blame`] for the document as of an arbitrary version.
    pub fn blame_at(&self, version: &[LV]) -> Vec<AttrSpan> {
        let (_, ops) = walker::transformed_ops(
            self,
            &[],
            version,
            WalkerOpts::default(),
            &mut Tracker::new(),
        );
        // One inserting LV per character of the evolving document.
        let mut attr: Vec<LV> = Vec::new();
        for (lvs, op) in &ops {
            match op.kind {
                ListOpKind::Ins => {
                    attr.splice(op.pos..op.pos, lvs.iter());
                }
                ListOpKind::Del => {
                    attr.drain(op.pos..op.pos + op.len);
                }
            }
        }
        // RLE-compress: consecutive chars from consecutive LVs of the same
        // agent span collapse.
        let mut spans: Vec<AttrSpan> = Vec::new();
        for lv in attr {
            if let Some(last) = spans.last_mut() {
                if last.lvs.end == lv {
                    let span = self.agents.lv_to_agent_span(lv);
                    if self.agents.agent_name(span.agent) == last.agent {
                        last.lvs.end += 1;
                        continue;
                    }
                }
            }
            let span = self.agents.lv_to_agent_span(lv);
            spans.push(AttrSpan {
                lvs: (lv..lv + 1).into(),
                agent: self.agents.agent_name(span.agent).to_string(),
            });
        }
        spans
    }

    /// The operations that take the document at version `from` to the
    /// document at version `from ∪ to`, in application order.
    ///
    /// This is the incremental update a text editor applies when remote
    /// events arrive (paper §2.4): indexes are already transformed against
    /// everything `from` knows.
    pub fn diff_versions(&self, from: &[LV], to: &[LV]) -> Vec<TextOperation> {
        let (_, ops) =
            walker::transformed_ops(self, from, to, WalkerOpts::default(), &mut Tracker::new());
        ops.into_iter().map(|(_, op)| op).collect()
    }

    /// The name of the agent that generated event `lv`.
    pub fn agent_name_of(&self, lv: LV) -> &str {
        let span = self.agents.lv_to_agent_span(lv);
        self.agents.agent_name(span.agent)
    }
}

/// Steps through a document's history one transformed character at a time.
///
/// The scrubber replays the whole graph once up front, recording the
/// transformed (rebased) operations. A *step* is one effective
/// single-character operation: an insertion, or a deletion that actually
/// removes a character (concurrent double-deletes are transformed into
/// no-ops and do not count). Seeking forward applies steps incrementally;
/// seeking backward restarts from the empty document (transformed
/// operations replay forward only).
///
/// # Examples
///
/// ```
/// use egwalker::{history::Scrubber, OpLog};
/// let mut oplog = OpLog::new();
/// let a = oplog.get_or_create_agent("alice");
/// oplog.add_insert(a, 0, "abc");
/// oplog.add_delete(a, 0, 1);
/// let mut scrub = Scrubber::new(&oplog);
/// assert_eq!(scrub.seek(3), "abc");
/// assert_eq!(scrub.seek(4), "bc");
/// assert_eq!(scrub.seek(0), "");
/// ```
#[derive(Debug)]
pub struct Scrubber {
    /// Transformed operation runs in replay order.
    ops: Vec<TextOperation>,
    /// Total number of steps (sum of run lengths).
    num_steps: usize,
    doc: Rope,
    /// Number of steps reflected in `doc`.
    cursor: usize,
    /// Index of the first run not fully applied.
    next_op: usize,
    /// Units of `ops[next_op]` already applied.
    op_offset: usize,
}

impl Scrubber {
    /// Replays `oplog` and prepares for scrubbing.
    pub fn new(oplog: &OpLog) -> Self {
        let ops = oplog.diff_versions(&[], oplog.version());
        let num_steps = ops.iter().map(|op| op.len).sum();
        Scrubber {
            ops,
            num_steps,
            doc: Rope::new(),
            cursor: 0,
            next_op: 0,
            op_offset: 0,
        }
    }

    /// The number of steps in the history (valid seek positions are
    /// `0..=num_steps`).
    pub fn num_steps(&self) -> usize {
        self.num_steps
    }

    /// The document text after the first `k` steps of the replay order.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.num_steps()`.
    pub fn seek(&mut self, k: usize) -> String {
        assert!(k <= self.num_steps, "seek beyond history");
        if k < self.cursor {
            self.doc = Rope::new();
            self.cursor = 0;
            self.next_op = 0;
            self.op_offset = 0;
        }
        let mut remaining = k - self.cursor;
        while remaining > 0 {
            let op = &self.ops[self.next_op];
            let available = op.len - self.op_offset;
            let take = remaining.min(available);
            slice_op(op, self.op_offset, take).apply_to(&mut self.doc);
            self.op_offset += take;
            remaining -= take;
            if self.op_offset == op.len {
                self.next_op += 1;
                self.op_offset = 0;
            }
        }
        self.cursor = k;
        self.doc.to_string()
    }
}

/// Units `[from, from + take)` of a transformed operation, as their own
/// operation (adjusted so it applies after the first `from` units already
/// did).
fn slice_op(op: &TextOperation, from: usize, take: usize) -> TextOperation {
    debug_assert!(from + take <= op.len && take > 0);
    match op.kind {
        ListOpKind::Ins => {
            let content: String = op
                .content
                .as_deref()
                .unwrap_or("")
                .chars()
                .skip(from)
                .take(take)
                .collect();
            TextOperation::ins(op.pos + from, content)
        }
        // A transformed delete run acts repeatedly at the same index.
        ListOpKind::Del => TextOperation::del(op.pos, take),
    }
}

/// Restores the document at a version as its own oplog-free string —
/// convenience wrapper around [`OpLog::checkout`].
pub fn restore(oplog: &OpLog, version: &[LV]) -> String {
    oplog.checkout(version).content.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blame_single_author() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, "hello");
        let spans = oplog.blame();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].agent, "alice");
        assert_eq!(spans[0].len(), 5);
    }

    #[test]
    fn blame_two_authors_concurrent() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let b = oplog.get_or_create_agent("bob");
        oplog.add_insert(a, 0, "aaaa");
        let v = oplog.version().clone();
        oplog.add_insert_at(a, &v, 4, "AAAA");
        oplog.add_insert_at(b, &v, 0, "bbbb");
        let spans = oplog.blame();
        let doc = oplog.checkout_tip().content.to_string();
        assert_eq!(spans.iter().map(AttrSpan::len).sum::<usize>(), doc.len());
        // Every span boundary corresponds to an author change or LV jump;
        // alice wrote 8 chars, bob 4.
        let alice: usize = spans
            .iter()
            .filter(|s| s.agent == "alice")
            .map(AttrSpan::len)
            .sum();
        let bob: usize = spans
            .iter()
            .filter(|s| s.agent == "bob")
            .map(AttrSpan::len)
            .sum();
        assert_eq!(alice, 8);
        assert_eq!(bob, 4);
    }

    #[test]
    fn blame_excludes_deleted() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, "abcdef");
        oplog.add_delete(a, 1, 3);
        let spans = oplog.blame();
        assert_eq!(spans.iter().map(AttrSpan::len).sum::<usize>(), 3);
        // Chars 'a', 'e', 'f' remain: LVs 0, 4, 5 — two spans (0) and (4,5).
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].lvs, (0..1).into());
        assert_eq!(spans[1].lvs, (4..6).into());
    }

    #[test]
    fn blame_at_old_version() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let v1 = oplog.add_insert(a, 0, "abc");
        oplog.add_delete(a, 0, 3);
        let spans = oplog.blame_at(&[v1.last()]);
        assert_eq!(spans.iter().map(AttrSpan::len).sum::<usize>(), 3);
        assert!(oplog.blame().is_empty());
    }

    #[test]
    fn diff_versions_simple() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let v1 = oplog.add_insert(a, 0, "base");
        oplog.add_insert(a, 4, "++");
        let tip = oplog.version().clone();
        let ops = oplog.diff_versions(&[v1.last()], &tip);
        assert_eq!(ops, vec![TextOperation::ins(4, "++")]);
    }

    #[test]
    fn diff_versions_transforms_concurrent() {
        // Figure 1: diff from user 1's view must transform user 2's insert.
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let b = oplog.get_or_create_agent("bob");
        oplog.add_insert(a, 0, "Helo");
        let v = oplog.version().clone();
        let va = oplog.add_insert_at(a, &v, 3, "l");
        let vb = oplog.add_insert_at(b, &v, 4, "!");
        // From alice's view ("Hello"), bob's insert lands at index 5.
        let ops = oplog.diff_versions(&[va.last()], &[vb.last()]);
        assert_eq!(ops, vec![TextOperation::ins(5, "!")]);
        // From bob's view ("Helo!"), alice's insert stays at 3.
        let ops = oplog.diff_versions(&[vb.last()], &[va.last()]);
        assert_eq!(ops, vec![TextOperation::ins(3, "l")]);
    }

    #[test]
    fn diff_versions_no_change() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let v = oplog.add_insert(a, 0, "x");
        assert!(oplog.diff_versions(&[v.last()], &[v.last()]).is_empty());
    }

    #[test]
    fn diff_versions_applies_cleanly() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let b = oplog.get_or_create_agent("bob");
        oplog.add_insert(a, 0, "the quick brown fox");
        let v = oplog.version().clone();
        oplog.add_delete_at(a, &v, 4, 6);
        oplog.add_insert_at(b, &v, 19, " jumps");
        let tip = oplog.version().clone();

        // Apply the diff from v to a checkout at v: must equal tip text.
        let mut doc = oplog.checkout(&v);
        for op in oplog.diff_versions(&v, &tip) {
            op.apply_to(&mut doc.content);
        }
        assert_eq!(
            doc.content.to_string(),
            oplog.checkout_tip().content.to_string()
        );
    }

    #[test]
    fn scrubber_walks_history() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, "abc"); // events 0..3
        oplog.add_delete(a, 0, 1); // event 3
        oplog.add_insert(a, 2, "XY"); // events 4..6
        let mut s = Scrubber::new(&oplog);
        assert_eq!(s.num_steps(), 6);
        assert_eq!(s.seek(0), "");
        assert_eq!(s.seek(1), "a");
        assert_eq!(s.seek(2), "ab");
        assert_eq!(s.seek(3), "abc");
        assert_eq!(s.seek(4), "bc");
        assert_eq!(s.seek(5), "bcX");
        assert_eq!(s.seek(6), "bcXY");
        // Backward seeks restart transparently.
        assert_eq!(s.seek(2), "ab");
        assert_eq!(s.seek(6), "bcXY");
    }

    #[test]
    fn scrubber_final_state_matches_checkout() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let b = oplog.get_or_create_agent("bob");
        oplog.add_insert(a, 0, "merge ");
        let v = oplog.version().clone();
        oplog.add_insert_at(a, &v, 6, "aaa");
        oplog.add_insert_at(b, &v, 0, "bb ");
        let mut s = Scrubber::new(&oplog);
        let end = s.seek(s.num_steps());
        assert_eq!(end, oplog.checkout_tip().content.to_string());
    }

    #[test]
    fn restore_wrapper() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let v1 = oplog.add_insert(a, 0, "v1");
        oplog.add_insert(a, 2, " v2");
        assert_eq!(restore(&oplog, &[v1.last()]), "v1");
        let tip = oplog.version().clone();
        assert_eq!(restore(&oplog, &tip), "v1 v2");
    }
}
