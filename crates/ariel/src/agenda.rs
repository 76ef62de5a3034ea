//! Conflict resolution (Fig. 1): select one rule to fire from the set of
//! eligible rules.
//!
//! The engine's agenda holds exactly the eligible rules — those whose
//! P-node is non-empty — ordered by (priority, recency, name), so picking
//! the next rule and re-ordering one rule each cost O(log eligible). A
//! rule's *recency* is the tick of the last transition that added rows to
//! its P-node. [`select`] picks from a plain list by the same order; it is
//! the reference the agenda's choice is checked against.

use ariel_network::RuleId;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Conflict-resolution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictStrategy {
    /// Highest priority; ties broken by recency — the tick of the last
    /// transition that added rows to the rule's P-node, later first — then
    /// rule name (OPS5-style recency).
    #[default]
    PriorityRecency,
    /// Highest priority; ties broken by rule name only (fully
    /// deterministic regardless of match history).
    PriorityName,
}

/// One eligible rule instantiation set presented to conflict resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct Eligible {
    /// Network identifier of the rule.
    pub id: RuleId,
    /// Rule name (final tie-break).
    pub name: String,
    /// Rule priority (higher fires first).
    pub priority: f64,
    /// Tick of the most recent transition that added matches for this rule.
    pub last_matched: u64,
}

/// Pick the next rule to fire from a plain list of eligible rules, or
/// `None` when it is empty (the reference the engine's ordered agenda is
/// checked against).
pub fn select(strategy: ConflictStrategy, eligible: &[Eligible]) -> Option<&Eligible> {
    eligible.iter().max_by(|a, b| {
        let prio = a.priority.total_cmp(&b.priority);
        if prio != std::cmp::Ordering::Equal {
            return prio;
        }
        match strategy {
            ConflictStrategy::PriorityRecency => {
                let rec = a.last_matched.cmp(&b.last_matched);
                if rec != std::cmp::Ordering::Equal {
                    return rec;
                }
            }
            ConflictStrategy::PriorityName => {}
        }
        // name ascending → max_by wants "greater wins", so reverse
        b.name.cmp(&a.name)
    })
}

/// An agenda entry; `Ord` puts the rule to fire next first.
#[derive(Debug)]
struct Key {
    priority: f64,
    /// The rule's recency, or 0 under [`ConflictStrategy::PriorityName`].
    recency: u64,
    name: Arc<str>,
    id: u64,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .priority
            .total_cmp(&self.priority)
            .then(other.recency.cmp(&self.recency))
            .then_with(|| self.name.cmp(&other.name))
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// What the agenda knows of one active rule.
#[derive(Debug)]
struct Registered {
    priority: f64,
    name: Arc<str>,
    /// `Some(recency)` iff the rule is queued (eligible).
    recency: Option<u64>,
}

impl Registered {
    fn key(&self, strategy: ConflictStrategy, id: u64, recency: u64) -> Key {
        Key {
            priority: self.priority,
            recency: match strategy {
                ConflictStrategy::PriorityRecency => recency,
                ConflictStrategy::PriorityName => 0,
            },
            name: Arc::clone(&self.name),
            id,
        }
    }
}

/// The ordered set of eligible rules (see the module docs).
#[derive(Debug)]
pub(crate) struct Agenda {
    strategy: ConflictStrategy,
    rules: HashMap<u64, Registered>,
    queue: BTreeSet<Key>,
}

impl Agenda {
    pub(crate) fn new(strategy: ConflictStrategy) -> Self {
        Agenda {
            strategy,
            rules: HashMap::new(),
            queue: BTreeSet::new(),
        }
    }

    /// Record an activated rule's ordering key; it is not queued yet.
    pub(crate) fn register(&mut self, id: RuleId, priority: f64, name: &str) {
        self.rules.insert(
            id.0,
            Registered {
                priority,
                name: name.into(),
                recency: None,
            },
        );
    }

    /// Forget a deactivated rule.
    pub(crate) fn unregister(&mut self, id: RuleId) {
        self.dequeue(id);
        self.rules.remove(&id.0);
    }

    /// Queue a rule with the given recency, moving it if already queued.
    /// No-op for rules that are not registered.
    pub(crate) fn requeue(&mut self, id: RuleId, recency: u64) {
        let Some(rule) = self.rules.get_mut(&id.0) else {
            return;
        };
        if let Some(old) = rule.recency.replace(recency) {
            self.queue.remove(&rule.key(self.strategy, id.0, old));
        }
        self.queue.insert(rule.key(self.strategy, id.0, recency));
    }

    /// Take a rule off the queue (its P-node emptied).
    pub(crate) fn dequeue(&mut self, id: RuleId) {
        let Some(rule) = self.rules.get_mut(&id.0) else {
            return;
        };
        if let Some(old) = rule.recency.take() {
            self.queue.remove(&rule.key(self.strategy, id.0, old));
        }
    }

    /// The rule to fire next.
    pub(crate) fn first(&self) -> Option<RuleId> {
        self.queue.first().map(|k| RuleId(k.id))
    }

    /// Number of eligible rules.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// A registered rule's name.
    pub(crate) fn name(&self, id: RuleId) -> Option<&str> {
        self.rules.get(&id.0).map(|r| &*r.name)
    }

    /// `(rule id, recency)` of every queued rule, ascending by id.
    pub(crate) fn recencies(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<_> = self
            .rules
            .iter()
            .filter_map(|(id, r)| Some((*id, r.recency?)))
            .collect();
        out.sort_unstable();
        out
    }

    /// A queued rule as the plain entry [`select`] takes; `None` unless
    /// the rule is queued.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn describe(&self, id: RuleId) -> Option<Eligible> {
        let rule = self.rules.get(&id.0)?;
        Some(Eligible {
            id,
            name: rule.name.to_string(),
            priority: rule.priority,
            last_matched: rule.recency?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u64, name: &str, priority: f64, last: u64) -> Eligible {
        Eligible {
            id: RuleId(id),
            name: name.into(),
            priority,
            last_matched: last,
        }
    }

    #[test]
    fn empty_agenda() {
        assert!(select(ConflictStrategy::default(), &[]).is_none());
    }

    #[test]
    fn highest_priority_wins() {
        let rules = vec![e(1, "a", 1.0, 5), e(2, "b", 10.0, 0), e(3, "c", -3.0, 9)];
        assert_eq!(
            select(ConflictStrategy::default(), &rules).unwrap().id,
            RuleId(2)
        );
    }

    #[test]
    fn recency_breaks_priority_ties() {
        let rules = vec![e(1, "a", 1.0, 3), e(2, "b", 1.0, 7)];
        assert_eq!(
            select(ConflictStrategy::PriorityRecency, &rules)
                .unwrap()
                .id,
            RuleId(2)
        );
    }

    #[test]
    fn name_breaks_remaining_ties() {
        let rules = vec![e(1, "zeta", 1.0, 7), e(2, "alpha", 1.0, 7)];
        assert_eq!(
            select(ConflictStrategy::PriorityRecency, &rules)
                .unwrap()
                .name,
            "alpha"
        );
        let rules = vec![e(1, "zeta", 1.0, 3), e(2, "alpha", 1.0, 7)];
        assert_eq!(
            select(ConflictStrategy::PriorityName, &rules).unwrap().name,
            "alpha",
            "PriorityName ignores recency"
        );
    }

    #[test]
    fn negative_priorities() {
        let rules = vec![e(1, "a", -1.0, 0), e(2, "b", -2.0, 0)];
        assert_eq!(
            select(ConflictStrategy::default(), &rules).unwrap().id,
            RuleId(1)
        );
    }

    /// The ordered agenda picks what `select` picks from the same queued
    /// rules, through requeues, dequeues and unregistering, under both
    /// strategies.
    #[test]
    fn ordered_agenda_agrees_with_select() {
        for strategy in [
            ConflictStrategy::PriorityRecency,
            ConflictStrategy::PriorityName,
        ] {
            let mut agenda = Agenda::new(strategy);
            let names = ["m", "b", "x", "a", "q", "c"];
            for (i, name) in names.iter().enumerate() {
                agenda.register(RuleId(i as u64), (i % 3) as f64 - 1.0, name);
            }
            let mut state = 7u64;
            for tick in 1..400u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let id = RuleId((state >> 33) % names.len() as u64);
                match (state >> 20) % 4 {
                    0 => agenda.dequeue(id),
                    _ => agenda.requeue(id, tick / 3),
                }
                let queued: Vec<Eligible> = (0..names.len() as u64)
                    .filter_map(|i| agenda.describe(RuleId(i)))
                    .collect();
                assert_eq!(agenda.len(), queued.len());
                assert_eq!(
                    agenda.first(),
                    select(strategy, &queued).map(|e| e.id),
                    "{strategy:?} at tick {tick}"
                );
            }
            agenda.unregister(RuleId(0));
            agenda.requeue(RuleId(0), 1);
            assert!(
                agenda.describe(RuleId(0)).is_none(),
                "unregistered rules never queue"
            );
        }
    }

    #[test]
    fn requeue_moves_a_rule_to_its_new_recency() {
        let mut agenda = Agenda::new(ConflictStrategy::PriorityRecency);
        agenda.register(RuleId(1), 0.0, "a");
        agenda.register(RuleId(2), 0.0, "b");
        agenda.requeue(RuleId(1), 5);
        agenda.requeue(RuleId(2), 3);
        assert_eq!(agenda.first(), Some(RuleId(1)));
        agenda.requeue(RuleId(2), 6);
        assert_eq!(agenda.first(), Some(RuleId(2)));
        assert_eq!(agenda.len(), 2, "a requeue replaces the old entry");
        assert_eq!(agenda.recencies(), [(1, 5), (2, 6)]);
        agenda.dequeue(RuleId(2));
        agenda.dequeue(RuleId(2));
        assert_eq!(agenda.first(), Some(RuleId(1)));
        assert_eq!(agenda.name(RuleId(2)), Some("b"));
    }
}
