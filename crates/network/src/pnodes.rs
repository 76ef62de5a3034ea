//! The P-nodes of every rule and the conflict set, shared by the A-TREAT
//! and Rete backends.
//!
//! Every P-node mutation goes through [`PnodeTable`], so it keeps two
//! things exact without rescanning the installed rules:
//!
//! * the **conflict set** — the rules whose P-node is non-empty
//!   ([`PnodeTable::conflict_set`]);
//! * the **change list** — the rules whose P-node gained rows or was
//!   emptied since the engine last asked ([`PnodeTable::take_changes`]),
//!   each listed once.
//!
//! The recognize-act cycle keeps its ordered agenda in step with the
//! conflict set from the change list alone, so a firing costs nothing
//! per installed rule.

use crate::alpha::RuleId;
use ariel_query::{BoundVar, Pnode, PnodeCol};
use ariel_storage::Tid;
use std::collections::{BTreeMap, BTreeSet};

/// How one rule's P-node changed since the last
/// [`PnodeTable::take_changes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PnodeChange {
    /// The rule.
    pub rule: RuleId,
    /// Rows were added (the rule's recency advances).
    pub grew: bool,
    /// The P-node is non-empty now: the rule is in the conflict set.
    pub matched: bool,
}

#[derive(Debug)]
struct Slot {
    pnode: Pnode,
    /// Rows were added since the last `take_changes`.
    grew: bool,
    /// The rule is on the change list.
    listed: bool,
}

/// Owner of every rule's P-node; see the module docs.
#[derive(Debug, Default)]
pub struct PnodeTable {
    slots: BTreeMap<u64, Slot>,
    /// Rules whose P-node is non-empty.
    matched: BTreeSet<u64>,
    /// Rules whose P-node grew or was emptied since the last
    /// `take_changes`, in first-change order.
    changed: Vec<u64>,
}

/// Put `id` on the change list (once) and remember whether it grew.
fn note(changed: &mut Vec<u64>, id: u64, slot: &mut Slot, grew: bool) {
    slot.grew |= grew;
    if !slot.listed {
        slot.listed = true;
        changed.push(id);
    }
}

impl PnodeTable {
    /// Give a new rule an empty P-node with the given columns.
    pub(crate) fn insert(&mut self, id: RuleId, cols: Vec<PnodeCol>) {
        self.slots.insert(
            id.0,
            Slot {
                pnode: Pnode::new(cols),
                grew: false,
                listed: false,
            },
        );
    }

    /// Drop a removed rule's P-node; it leaves the conflict set and the
    /// change list.
    pub(crate) fn remove(&mut self, id: RuleId) {
        if self.slots.remove(&id.0).is_some_and(|s| s.listed) {
            self.changed.retain(|c| *c != id.0);
        }
        self.matched.remove(&id.0);
    }

    /// Add instantiations to a rule's P-node.
    pub(crate) fn extend(&mut self, id: RuleId, rows: impl IntoIterator<Item = Vec<BoundVar>>) {
        let slot = self.slots.get_mut(&id.0).expect("rule has a P-node");
        let before = slot.pnode.len();
        for row in rows {
            slot.pnode.push(row);
        }
        if slot.pnode.len() > before {
            if before == 0 {
                self.matched.insert(id.0);
            }
            note(&mut self.changed, id.0, slot, true);
        }
    }

    /// Add one instantiation to a rule's P-node.
    pub(crate) fn push(&mut self, id: RuleId, row: Vec<BoundVar>) {
        self.extend(id, std::iter::once(row));
    }

    /// Remove the rows of a rule's P-node whose column `col` binds `tid`
    /// (TREAT's cheap delete path, §4.2).
    pub(crate) fn retract(&mut self, id: RuleId, col: usize, tid: Tid) {
        let Some(slot) = self.slots.get_mut(&id.0) else {
            return;
        };
        if slot.pnode.retract(col, tid) > 0 && slot.pnode.is_empty() {
            self.matched.remove(&id.0);
            note(&mut self.changed, id.0, slot, false);
        }
    }

    /// Empty a rule's P-node, returning its instantiations with the
    /// columns (a rule firing consumes them). `None` for unknown rules.
    pub fn drain(&mut self, id: RuleId) -> Option<Pnode> {
        let slot = self.slots.get_mut(&id.0)?;
        if !slot.pnode.is_empty() {
            self.matched.remove(&id.0);
            note(&mut self.changed, id.0, slot, false);
        }
        Some(slot.pnode.drain())
    }

    /// Replace a rule's P-node rows wholesale (crash recovery: priming
    /// rebuilds α/β state from relations, but a P-node also carries
    /// *history* — matches consumed by earlier firings are gone — so the
    /// recovered engine overwrites the primed rows with the snapshotted
    /// ones). No-op for unknown rules.
    pub fn set_rows(&mut self, id: RuleId, rows: Vec<Vec<BoundVar>>) {
        if self.drain(id).is_some() {
            self.extend(id, rows);
        }
    }

    /// The P-node of a rule.
    pub fn get(&self, id: RuleId) -> Option<&Pnode> {
        self.slots.get(&id.0).map(|s| &s.pnode)
    }

    /// Every P-node, ascending by rule id.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Pnode)> {
        self.slots.iter().map(|(id, s)| (RuleId(*id), &s.pnode))
    }

    /// The conflict set: rules whose P-node is non-empty, ascending by id.
    pub fn conflict_set(&self) -> impl ExactSizeIterator<Item = RuleId> + '_ {
        self.matched.iter().map(|id| RuleId(*id))
    }

    /// The conflict set found by scanning every P-node — the reference
    /// [`Self::conflict_set`] is checked against.
    pub fn scan_conflict_set(&self) -> Vec<RuleId> {
        self.iter()
            .filter(|(_, p)| !p.is_empty())
            .map(|(id, _)| id)
            .collect()
    }

    /// Move the change list into `out` (appending, in first-change order)
    /// and start a new one.
    pub fn take_changes(&mut self, out: &mut Vec<PnodeChange>) {
        for id in self.changed.drain(..) {
            let slot = self.slots.get_mut(&id).expect("listed rules have a P-node");
            out.push(PnodeChange {
                rule: RuleId(id),
                grew: slot.grew,
                matched: !slot.pnode.is_empty(),
            });
            slot.grew = false;
            slot.listed = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariel_storage::{AttrType, Schema, Tuple, Value};

    fn table(ids: &[u64]) -> PnodeTable {
        let mut t = PnodeTable::default();
        for id in ids {
            t.insert(
                RuleId(*id),
                vec![PnodeCol {
                    var: "t".into(),
                    rel: "t".into(),
                    schema: Schema::of(&[("x", AttrType::Int)]),
                    has_prev: false,
                }],
            );
        }
        t
    }

    fn row(tid: u64) -> Vec<BoundVar> {
        vec![BoundVar::plain(Tid(tid), Tuple::new(vec![Value::Int(1)]))]
    }

    fn changes(t: &mut PnodeTable) -> Vec<(u64, bool, bool)> {
        let mut out = Vec::new();
        t.take_changes(&mut out);
        out.iter().map(|c| (c.rule.0, c.grew, c.matched)).collect()
    }

    #[test]
    fn conflict_set_follows_every_mutation() {
        let mut t = table(&[1, 2, 3]);
        t.push(RuleId(2), row(10));
        t.extend(RuleId(1), vec![row(11), row(12)]);
        t.extend(RuleId(3), Vec::new());
        assert_eq!(t.conflict_set().collect::<Vec<_>>(), [RuleId(1), RuleId(2)]);
        assert_eq!(changes(&mut t), [(2, true, true), (1, true, true)]);
        t.retract(RuleId(1), 0, Tid(11));
        assert_eq!(changes(&mut t), [], "still matched, did not grow");
        t.retract(RuleId(1), 0, Tid(12));
        let drained = t.drain(RuleId(2)).unwrap();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained.cols().len(), 1);
        assert_eq!(t.conflict_set().len(), 0);
        assert_eq!(changes(&mut t), [(1, false, false), (2, false, false)]);
        assert_eq!(t.scan_conflict_set(), t.conflict_set().collect::<Vec<_>>());
    }

    #[test]
    fn change_list_reports_each_rule_once_with_its_net_state() {
        let mut t = table(&[1]);
        t.push(RuleId(1), row(1));
        t.drain(RuleId(1));
        t.push(RuleId(1), row(2));
        assert_eq!(changes(&mut t), [(1, true, true)]);
        t.set_rows(RuleId(1), Vec::new());
        assert_eq!(changes(&mut t), [(1, false, false)]);
        t.set_rows(RuleId(9), vec![row(3)]);
        assert!(t.get(RuleId(9)).is_none(), "unknown rules are ignored");
    }

    #[test]
    fn removed_rule_leaves_set_and_change_list() {
        let mut t = table(&[1, 2]);
        t.push(RuleId(1), row(1));
        t.push(RuleId(2), row(2));
        t.remove(RuleId(1));
        assert_eq!(t.conflict_set().collect::<Vec<_>>(), [RuleId(2)]);
        assert_eq!(changes(&mut t), [(2, true, true)]);
        assert!(t.drain(RuleId(1)).is_none());
    }
}
