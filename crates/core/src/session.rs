//! A local editing session: the glue layer a text editor sits on.
//!
//! [`Session`] owns an [`OpLog`] and a live [`Branch`] and adds the three
//! things every real editor needs on top of the algorithm:
//!
//! * **selection maintenance** — remote merges move the local caret and
//!   selection with the text (via [`crate::cursor`]);
//! * **undo/redo over the event graph** — undo never rewrites history
//!   (events are immutable, §2.2); it appends *inverse* events. Undoing an
//!   insertion deletes exactly the inserted characters that still survive
//!   (located by replay, like [`OpLog::blame`]); undoing a deletion
//!   re-inserts the removed text at its transformed position;
//! * **an outbox** — every local operation produces the [`EventBundle`]
//!   to broadcast, ready for the replication layer.
//!
//! Nothing here adds persistent state beyond the event graph itself: undo
//! stacks hold event ranges and recovered text, and the document remains a
//! pure function of the graph.

use crate::bundle::{BundleError, EventBundle};
use crate::cursor::{transform_selection, Selection};
use crate::tracker::Tracker;
use crate::{Branch, OpLog, WalkerOpts};
use eg_dag::{AgentId, Frontier};
use eg_rle::{DTRange, HasLength};

/// What a local operation did, for inversion.
#[derive(Debug, Clone)]
enum UndoRecord {
    /// We inserted the events `lvs`; undo deletes the surviving chars.
    Insert {
        /// The insert events.
        lvs: DTRange,
    },
    /// We deleted `text` at `pos` (document coordinates at deletion time,
    /// version `at` directly after the deletion); undo re-inserts it.
    Delete {
        /// Index at deletion time.
        pos: usize,
        /// The removed text.
        text: String,
        /// The version right after the deletion.
        at: Frontier,
        /// The (ultimate-original) insert events that created the deleted
        /// characters, in document order. Restoring the text aliases the
        /// new events to these, so that undoing the *original* insertion
        /// later also removes restored copies.
        origins: Vec<DTRange>,
        /// The (ultimate-original) insert event of the character
        /// immediately left of the deletion point, if any. Restores anchor
        /// after this character when it is still visible, which keeps
        /// undo/redo chains positionally stable across intervening
        /// deletions (raw index transforms collapse at deleted ranges).
        left_anchor: Option<DTRange>,
    },
}

/// The outcome of [`Session::merge_remote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// New events applied; the document and selection were updated.
    Applied,
    /// Every event was already known.
    Duplicate,
    /// The bundle is causally premature; feed its dependencies first (the
    /// replication layer's causal buffer normally prevents this).
    MissingParents,
    /// The bundle was malformed and ignored.
    Rejected,
}

/// A complete local editing session for one user.
///
/// # Examples
///
/// ```
/// use egwalker::session::Session;
///
/// let mut s = Session::new("alice");
/// s.insert(0, "Helo!");
/// s.set_caret(3);
/// s.insert_at_caret("l");
/// assert_eq!(s.text(), "Hello!");
/// assert!(s.undo()); // removes the "l"
/// assert_eq!(s.text(), "Helo!");
/// assert!(s.redo());
/// assert_eq!(s.text(), "Hello!");
/// ```
#[derive(Debug)]
pub struct Session {
    /// The full editing history (shared truth).
    pub oplog: OpLog,
    /// The live document.
    pub branch: Branch,
    agent: AgentId,
    selection: Selection,
    undo_stack: Vec<UndoRecord>,
    redo_stack: Vec<UndoRecord>,
    outbox: Vec<EventBundle>,
    /// Pairs `(replacement, original)` of equal-length LV ranges: the
    /// characters inserted by `replacement` are undo-restored copies of
    /// the characters inserted by `original` (always an ultimate original,
    /// never itself a replacement).
    aliases: Vec<(DTRange, DTRange)>,
    /// Reused walker scratch state: every merge in the session drives the
    /// same tracker, so its slab / index / scratch capacity is paid once.
    tracker: Tracker,
}

impl Session {
    /// Starts an empty session for the named user.
    pub fn new(name: &str) -> Self {
        let mut oplog = OpLog::new();
        let agent = oplog.get_or_create_agent(name);
        Session {
            oplog,
            branch: Branch::new(),
            agent,
            selection: Selection::caret(0),
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
            outbox: Vec::new(),
            aliases: Vec::new(),
            tracker: Tracker::new(),
        }
    }

    /// Merges all new oplog events into the branch, reusing the session's
    /// tracker so repeated merges allocate (almost) nothing.
    fn merge_branch(&mut self) {
        let tip = self.oplog.version();
        self.branch
            .merge_to(&self.oplog, tip, WalkerOpts::default(), &mut self.tracker);
    }

    /// The current document text.
    pub fn text(&self) -> String {
        self.branch.content.to_string()
    }

    /// The document length in characters.
    pub fn len_chars(&self) -> usize {
        self.branch.len_chars()
    }

    /// The current selection.
    pub fn selection(&self) -> Selection {
        self.selection
    }

    /// Places the caret (collapsing any selection).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the end of the document.
    pub fn set_caret(&mut self, pos: usize) {
        assert!(pos <= self.len_chars(), "caret out of bounds");
        self.selection = Selection::caret(pos);
    }

    /// Selects `[anchor, head]`.
    ///
    /// # Panics
    ///
    /// Panics if either end is past the end of the document.
    pub fn select(&mut self, anchor: usize, head: usize) {
        assert!(
            anchor <= self.len_chars() && head <= self.len_chars(),
            "selection out of bounds"
        );
        self.selection = Selection { anchor, head };
    }

    /// Bundles generated by local edits since the last call, for
    /// broadcasting. Draining resets the outbox.
    pub fn take_outbox(&mut self) -> Vec<EventBundle> {
        std::mem::take(&mut self.outbox)
    }

    // ------------------------------------------------------------------
    // Local edits.
    // ------------------------------------------------------------------

    /// Inserts `text` at `pos`, recording undo and outbox entries.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the end of the document or `text` is empty.
    pub fn insert(&mut self, pos: usize, text: &str) {
        assert!(pos <= self.len_chars(), "insert out of bounds");
        let before = self.branch.version.clone();
        let lvs = self.oplog.add_insert_at(self.agent, &before, pos, text);
        self.merge_branch();
        self.undo_stack.push(UndoRecord::Insert { lvs });
        self.redo_stack.clear();
        self.outbox.push(self.oplog.bundle_since_local(&before));
        // A local insert moves the caret to the end of the typed text.
        let n = text.chars().count();
        self.selection = Selection::caret(pos + n);
    }

    /// Inserts at the caret (replacing the selection if any).
    pub fn insert_at_caret(&mut self, text: &str) {
        if !self.selection.is_caret() {
            self.delete_selection();
        }
        let pos = self.selection.head;
        self.insert(pos, text);
    }

    /// Deletes `len` characters at `pos`, recording undo and outbox
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    pub fn delete(&mut self, pos: usize, len: usize) {
        assert!(pos + len <= self.len_chars(), "delete out of bounds");
        let removed = self.branch.content.slice_to_string(pos, len);
        let origins = self.insert_origins(pos, len);
        let left_anchor = self.left_anchor_of(pos);
        let before = self.branch.version.clone();
        self.oplog.add_delete_at(self.agent, &before, pos, len);
        self.merge_branch();
        self.undo_stack.push(UndoRecord::Delete {
            pos,
            text: removed,
            at: self.branch.version.clone(),
            origins,
            left_anchor,
        });
        self.redo_stack.clear();
        self.outbox.push(self.oplog.bundle_since_local(&before));
        self.selection = Selection::caret(pos);
    }

    /// Deletes the selected range (no-op for a caret).
    pub fn delete_selection(&mut self) {
        let (lo, hi) = self.selection.range();
        if lo < hi {
            self.delete(lo, hi - lo);
        }
    }

    /// Backspace: deletes the character before the caret (or the
    /// selection).
    pub fn backspace(&mut self) {
        if !self.selection.is_caret() {
            self.delete_selection();
            return;
        }
        let pos = self.selection.head;
        if pos > 0 {
            self.delete(pos - 1, 1);
        }
    }

    // ------------------------------------------------------------------
    // Remote merges.
    // ------------------------------------------------------------------

    /// Ingests a remote bundle, updating the document and transforming
    /// the selection across the merged operations.
    pub fn merge_remote(&mut self, bundle: &EventBundle) -> MergeOutcome {
        match self.oplog.apply_bundle(bundle) {
            Ok(new) if new.is_empty() => MergeOutcome::Duplicate,
            Ok(_) => {
                let from = self.branch.version.clone();
                let tip = self.oplog.version().clone();
                let ops = self.oplog.diff_versions(&from, &tip);
                self.merge_branch();
                self.selection = transform_selection(self.selection, &ops);
                MergeOutcome::Applied
            }
            Err(BundleError::MissingParents(_)) => MergeOutcome::MissingParents,
            Err(BundleError::Malformed(_)) => MergeOutcome::Rejected,
        }
    }

    // ------------------------------------------------------------------
    // Undo / redo.
    // ------------------------------------------------------------------

    /// Undoes the most recent local operation (appending inverse events).
    ///
    /// Returns `false` if there is nothing to undo. Undo interacts
    /// correctly with concurrent remote edits: undoing an insertion
    /// removes exactly the surviving inserted characters; undoing a
    /// deletion restores the text at its transformed position.
    pub fn undo(&mut self) -> bool {
        let Some(record) = self.undo_stack.pop() else {
            return false;
        };
        let inverse = self.apply_inverse(&record);
        self.redo_stack.push(inverse);
        true
    }

    /// Re-applies the most recently undone operation.
    pub fn redo(&mut self) -> bool {
        let Some(record) = self.redo_stack.pop() else {
            return false;
        };
        let inverse = self.apply_inverse(&record);
        self.undo_stack.push(inverse);
        true
    }

    /// Applies the inverse of `record`, returning the record that undoes
    /// *that* (for the opposite stack).
    fn apply_inverse(&mut self, record: &UndoRecord) -> UndoRecord {
        match record {
            UndoRecord::Insert { lvs } => {
                // Locate the surviving characters inserted by `lvs` (or by
                // undo-restores of them) and delete them, back to front.
                let ranges = self.positions_of(*lvs);
                let mut removed_text = String::new();
                let mut origins: Vec<DTRange> = Vec::new();
                let mut first_pos = self.selection.head.min(self.len_chars());
                for &(pos, len) in ranges.iter() {
                    origins.extend(self.insert_origins(pos, len));
                }
                for &(pos, len) in ranges.iter().rev() {
                    removed_text.insert_str(0, &self.branch.content.slice_to_string(pos, len));
                    let before = self.branch.version.clone();
                    self.oplog.add_delete_at(self.agent, &before, pos, len);
                    self.merge_branch();
                    self.outbox.push(self.oplog.bundle_since_local(&before));
                    first_pos = pos;
                }
                if !ranges.is_empty() {
                    self.selection = Selection::caret(first_pos);
                }
                let left_anchor = self.left_anchor_of(first_pos);
                UndoRecord::Delete {
                    pos: first_pos,
                    text: removed_text,
                    at: self.branch.version.clone(),
                    origins,
                    left_anchor,
                }
            }
            UndoRecord::Delete {
                pos,
                text,
                at,
                origins,
                left_anchor,
            } => {
                if text.is_empty() {
                    // The deletion had already removed nothing (fully
                    // overlapped by concurrent deletes); nothing to restore.
                    return UndoRecord::Insert {
                        lvs: DTRange::from(0..0),
                    };
                }
                // Re-anchor after the character left of the deletion point
                // if it is still visible; otherwise fall back to index
                // transformation.
                let anchored =
                    left_anchor.and_then(|a| self.positions_of(a).last().map(|&(p, l)| p + l));
                let pos = anchored.unwrap_or_else(|| {
                    let tip = self.oplog.version().clone();
                    let ops = self.oplog.diff_versions(at, &tip);
                    ops.iter().fold(*pos, |p, op| {
                        crate::cursor::transform_position(p, op, crate::cursor::Bias::Left)
                    })
                });
                let pos = pos.min(self.len_chars());
                let before = self.branch.version.clone();
                let lvs = self.oplog.add_insert_at(self.agent, &before, pos, text);
                self.merge_branch();
                self.outbox.push(self.oplog.bundle_since_local(&before));
                self.selection = Selection::caret(pos + text.chars().count());
                // The restored characters stand for the originals.
                let mut cursor = lvs.start;
                for &orig in origins {
                    let repl: DTRange = (cursor..cursor + orig.len()).into();
                    cursor += orig.len();
                    self.aliases.push((repl, orig));
                }
                UndoRecord::Insert { lvs }
            }
        }
    }

    /// The ultimate-original insert event of the character left of `pos`,
    /// if any.
    fn left_anchor_of(&self, pos: usize) -> Option<DTRange> {
        if pos == 0 {
            return None;
        }
        self.insert_origins(pos - 1, 1).pop()
    }

    /// The ultimate-original insert events behind the characters at
    /// `[pos, pos + len)`, in document order (replacement LVs resolved
    /// through the alias table).
    fn insert_origins(&self, pos: usize, len: usize) -> Vec<DTRange> {
        let mut out: Vec<DTRange> = Vec::new();
        let mut doc_pos = 0usize;
        let want: DTRange = (pos..pos + len).into();
        for span in self.oplog.blame() {
            let span_doc: DTRange = (doc_pos..doc_pos + span.len()).into();
            doc_pos = span_doc.end;
            let Some(hit_doc) = span_doc.intersect(&want) else {
                continue;
            };
            let offset = hit_doc.start - span_doc.start;
            let lvs: DTRange =
                (span.lvs.start + offset..span.lvs.start + offset + hit_doc.len()).into();
            for resolved in self.resolve_to_originals(lvs) {
                match out.last_mut() {
                    Some(last) if last.end == resolved.start => last.end = resolved.end,
                    _ => out.push(resolved),
                }
            }
        }
        out
    }

    /// Maps an insert-event range through the alias table to the
    /// ultimate-original events it stands for (aliases always point at
    /// ultimate originals, so one pass suffices). Unaliased sub-ranges map
    /// to themselves.
    fn resolve_to_originals(&self, lvs: DTRange) -> Vec<DTRange> {
        let mut out = Vec::new();
        let mut rest = lvs;
        while !rest.is_empty() {
            let mut matched = None;
            for &(repl, orig) in &self.aliases {
                if let Some(overlap) = repl.intersect(&rest) {
                    if overlap.start == rest.start {
                        let o = orig.start + (overlap.start - repl.start);
                        matched = Some((overlap.len(), DTRange::from(o..o + overlap.len())));
                        break;
                    }
                }
            }
            let (consumed, resolved) = match matched {
                Some((n, orig)) => (n, orig),
                None => {
                    // Plain prefix up to the next alias start.
                    let next_alias = self
                        .aliases
                        .iter()
                        .filter_map(|(repl, _)| repl.intersect(&rest).map(|o| o.start))
                        .filter(|&s| s > rest.start)
                        .min()
                        .unwrap_or(rest.end);
                    let n = next_alias - rest.start;
                    (n, DTRange::from(rest.start..rest.start + n))
                }
            };
            out.push(resolved);
            rest.start += consumed;
        }
        out
    }

    /// Current document positions of the surviving characters inserted by
    /// the events `lvs` — or by undo-restored copies of them — as
    /// ascending `(pos, len)` runs.
    fn positions_of(&self, lvs: DTRange) -> Vec<(usize, usize)> {
        // Resolve the query to ultimate originals first (the queried range
        // may itself be a restored copy), then expand to the originals
        // plus every replacement standing for them.
        let resolved = self.resolve_to_originals(lvs);
        let mut targets: Vec<DTRange> = resolved.clone();
        for &(repl, orig) in &self.aliases {
            for r in &resolved {
                if let Some(overlap) = orig.intersect(r) {
                    let start = repl.start + (overlap.start - orig.start);
                    targets.push((start..start + overlap.len()).into());
                }
            }
        }
        let mut out: Vec<(usize, usize)> = Vec::new();
        let mut pos = 0usize;
        for span in self.oplog.blame() {
            let len = span.len();
            for target in &targets {
                if let Some(hit) = span.lvs.intersect(target) {
                    let offset = hit.start - span.lvs.start;
                    let start = pos + offset;
                    let hit_len = hit.len();
                    match out.last_mut() {
                        Some((p, l)) if *p + *l == start => *l += hit_len,
                        _ => out.push((start, hit_len)),
                    }
                }
            }
            pos += len;
        }
        out.sort_unstable();
        // Merge adjacent/overlapping runs defensively.
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(out.len());
        for (p, l) in out {
            match merged.last_mut() {
                Some((mp, ml)) if *mp + *ml >= p => {
                    let end = (p + l).max(*mp + *ml);
                    *ml = end - *mp;
                }
                _ => merged.push((p, l)),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typing_and_caret() {
        let mut s = Session::new("alice");
        s.insert(0, "hello");
        assert_eq!(s.selection(), Selection::caret(5));
        s.insert_at_caret(" world");
        assert_eq!(s.text(), "hello world");
        s.set_caret(5);
        s.insert_at_caret(",");
        assert_eq!(s.text(), "hello, world");
    }

    #[test]
    fn selection_replacement() {
        let mut s = Session::new("alice");
        s.insert(0, "the quick fox");
        s.select(4, 9);
        s.insert_at_caret("slow");
        assert_eq!(s.text(), "the slow fox");
    }

    #[test]
    fn backspace_behaviour() {
        let mut s = Session::new("alice");
        s.insert(0, "abc");
        s.backspace();
        assert_eq!(s.text(), "ab");
        s.set_caret(0);
        s.backspace(); // at document start: no-op
        assert_eq!(s.text(), "ab");
        s.select(0, 2);
        s.backspace();
        assert_eq!(s.text(), "");
    }

    #[test]
    fn undo_redo_inserts_and_deletes() {
        let mut s = Session::new("alice");
        s.insert(0, "hello");
        s.insert(5, " world");
        s.delete(0, 1);
        assert_eq!(s.text(), "ello world");

        assert!(s.undo());
        assert_eq!(s.text(), "hello world");
        assert!(s.undo());
        assert_eq!(s.text(), "hello");
        assert!(s.undo());
        assert_eq!(s.text(), "");
        assert!(!s.undo());

        assert!(s.redo());
        assert_eq!(s.text(), "hello");
        assert!(s.redo());
        assert!(s.redo());
        assert_eq!(s.text(), "ello world");
        assert!(!s.redo());
    }

    #[test]
    fn new_edit_clears_redo() {
        let mut s = Session::new("alice");
        s.insert(0, "abc");
        s.undo();
        s.insert(0, "xyz");
        assert!(!s.redo());
        assert_eq!(s.text(), "xyz");
    }

    #[test]
    fn undo_insert_after_remote_edits_removes_only_own_text() {
        let mut alice = Session::new("alice");
        let mut bob = Session::new("bob");
        alice.insert(0, "shared ");
        for b in alice.take_outbox() {
            bob.merge_remote(&b);
        }
        // Alice types; bob concurrently types elsewhere.
        alice.insert(7, "ALICE");
        bob.insert(0, "BOB ");
        for b in bob.take_outbox() {
            alice.merge_remote(&b);
        }
        assert_eq!(alice.text(), "BOB shared ALICE");

        // Undo must remove only alice's "ALICE".
        alice.undo();
        assert_eq!(alice.text(), "BOB shared ");
        // And the undo replicates to bob.
        for b in alice.take_outbox() {
            bob.merge_remote(&b);
        }
        assert_eq!(bob.text(), "BOB shared ");
    }

    #[test]
    fn undo_insert_partially_deleted_by_remote() {
        let mut alice = Session::new("alice");
        let mut bob = Session::new("bob");
        alice.insert(0, "0123456789");
        for b in alice.take_outbox() {
            bob.merge_remote(&b);
        }
        alice.insert(5, "XXXX"); // "01234XXXX56789"
        for b in alice.take_outbox() {
            bob.merge_remote(&b);
        }
        // Bob deletes a range overlapping half of alice's insert.
        bob.delete(7, 4); // removes "XX56" → "01234XX789"
        for b in bob.take_outbox() {
            alice.merge_remote(&b);
        }
        assert_eq!(alice.text(), "01234XX789");
        // Undoing alice's insert removes only the surviving "XX".
        alice.undo();
        assert_eq!(alice.text(), "01234789");
    }

    #[test]
    fn undo_delete_restores_text() {
        let mut s = Session::new("alice");
        s.insert(0, "keep this text");
        s.delete(5, 5); // removes "this "
        assert_eq!(s.text(), "keep text");
        s.undo();
        assert_eq!(s.text(), "keep this text");
        s.redo();
        assert_eq!(s.text(), "keep text");
    }

    #[test]
    fn undo_delete_with_concurrent_remote_insert_before() {
        let mut alice = Session::new("alice");
        let mut bob = Session::new("bob");
        alice.insert(0, "abcdef");
        for b in alice.take_outbox() {
            bob.merge_remote(&b);
        }
        alice.delete(3, 2); // removes "de" → "abcf"
        bob.insert(0, ">> ");
        for b in bob.take_outbox() {
            alice.merge_remote(&b);
        }
        assert_eq!(alice.text(), ">> abcf");
        alice.undo(); // restore "de" at its shifted position
        assert_eq!(alice.text(), ">> abcdef");
    }

    #[test]
    fn remote_merge_transforms_selection() {
        let mut alice = Session::new("alice");
        let mut bob = Session::new("bob");
        alice.insert(0, "The fox jumps");
        for b in alice.take_outbox() {
            bob.merge_remote(&b);
        }
        // Alice selects "fox".
        alice.select(4, 7);
        // Bob inserts before the selection.
        bob.insert(4, "quick ");
        for b in bob.take_outbox() {
            alice.merge_remote(&b);
        }
        assert_eq!(alice.text(), "The quick fox jumps");
        let sel = alice.selection();
        assert_eq!((sel.anchor, sel.head), (10, 13));
        let (lo, hi) = sel.range();
        assert_eq!(&alice.text()[lo..hi], "fox");
    }

    #[test]
    fn outbox_replicates_everything() {
        let mut alice = Session::new("alice");
        let mut bob = Session::new("bob");
        alice.insert(0, "one ");
        alice.insert(4, "two ");
        alice.delete(0, 4);
        alice.undo();
        for b in alice.take_outbox() {
            assert_eq!(bob.merge_remote(&b), MergeOutcome::Applied);
        }
        assert_eq!(bob.text(), alice.text());
        assert!(alice.take_outbox().is_empty());
    }

    #[test]
    fn duplicate_and_premature_bundles() {
        let mut alice = Session::new("alice");
        let mut bob = Session::new("bob");
        alice.insert(0, "a");
        let first = alice.take_outbox();
        alice.insert(1, "b");
        let second = alice.take_outbox();
        assert_eq!(
            bob.merge_remote(&second[0]),
            MergeOutcome::MissingParents,
            "session-level merge does not buffer"
        );
        assert_eq!(bob.merge_remote(&first[0]), MergeOutcome::Applied);
        assert_eq!(bob.merge_remote(&first[0]), MergeOutcome::Duplicate);
        assert_eq!(bob.merge_remote(&second[0]), MergeOutcome::Applied);
        assert_eq!(bob.text(), "ab");
    }
}
