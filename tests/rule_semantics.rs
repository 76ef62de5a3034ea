//! Rule-execution semantics: the recognize-act cycle, conflict resolution,
//! cascades, halt, runaway protection, set-oriented firing, and rule
//! lifecycle management.

use ariel::network::{ReteMode, TraceEventKind};
use ariel::storage::Value;
use ariel::{Ariel, ArielError, ConflictStrategy, EngineOptions};

fn db_with_log() -> Ariel {
    let mut db = Ariel::new();
    db.execute("create items (x = int); create log (who = string, x = int)")
        .unwrap();
    db
}

fn log_entries(db: &mut Ariel) -> Vec<(String, i64)> {
    db.query("retrieve (log.all)")
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_i64().unwrap()))
        .collect()
}

#[test]
fn priority_orders_firing() {
    let mut db = db_with_log();
    // both rules match the same insert; high must fire before low
    db.execute(
        r#"define rule low priority 1 on append items then append to log(who = "low", x = 0)"#,
    )
    .unwrap();
    db.execute(
        r#"define rule high priority 9 on append items then append to log(who = "high", x = 0)"#,
    )
    .unwrap();
    db.execute("append items (x = 1)").unwrap();
    let log = log_entries(&mut db);
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].0, "high");
    assert_eq!(log[1].0, "low");
}

#[test]
fn set_oriented_firing_processes_whole_pnode() {
    // one firing handles every matched tuple: the rule logs each matched
    // item, and the engine fires it once for the three-row transition
    let mut db = db_with_log();
    db.execute("define rule all if items.x > 10 then append to log(who = \"r\", x = items.x)")
        .unwrap();
    db.execute("do append items (x = 11) append items (x = 12) append items (x = 13) end")
        .unwrap();
    assert_eq!(log_entries(&mut db).len(), 3);
    assert_eq!(db.stats().firings, 1, "one set-oriented firing");
}

#[test]
fn cascading_rules() {
    // rule A's action triggers rule B
    let mut db = db_with_log();
    db.execute("create stage2 (x = int)").unwrap();
    db.execute("define rule a on append items then append to stage2(x = items.x)")
        .unwrap();
    db.execute("define rule b on append stage2 then append to log(who = \"b\", x = stage2.x)")
        .unwrap();
    db.execute("append items (x = 7)").unwrap();
    assert_eq!(log_entries(&mut db), vec![("b".to_string(), 7)]);
    assert_eq!(db.stats().firings, 2);
}

#[test]
fn halt_stops_the_cycle() {
    let mut db = db_with_log();
    db.execute(
        r#"define rule stopper priority 10 on append items then do
             append to log(who = "stopper", x = 0)
             halt
           end"#,
    )
    .unwrap();
    db.execute(
        r#"define rule never priority 1 on append items then append to log(who = "never", x = 0)"#,
    )
    .unwrap();
    db.execute("append items (x = 1)").unwrap();
    let log = log_entries(&mut db);
    assert_eq!(log.len(), 1);
    assert_eq!(
        log[0].0, "stopper",
        "halt prevented the lower-priority rule"
    );
}

#[test]
fn runaway_cascade_detected() {
    // a rule that re-triggers itself forever: every append spawns another
    let mut db = Ariel::with_options(EngineOptions {
        max_firings: 25,
        ..Default::default()
    });
    db.execute("create items (x = int)").unwrap();
    db.execute("define rule loopy on append items then append to items(x = items.x + 1)")
        .unwrap();
    let err = db.execute("append items (x = 0)").unwrap_err();
    assert!(matches!(err, ArielError::RunawayRules { limit: 25 }));
}

#[test]
fn refraction_no_refire_on_same_data() {
    // a pattern rule must not re-fire on data it already processed
    let mut db = db_with_log();
    db.execute("define rule watch if items.x > 0 then append to log(who = \"w\", x = items.x)")
        .unwrap();
    db.execute("append items (x = 5)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 1);
    // an unrelated transition must not re-fire it
    db.execute("append items (x = -1)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 1);
}

#[test]
fn pattern_rule_fires_on_preexisting_data_after_activation() {
    let mut db = db_with_log();
    db.execute("append items (x = 42)").unwrap();
    // activation loads the P-node from existing data (§6); the rule fires
    // at the next recognize-act opportunity
    db.execute("define rule seed if items.x > 0 then append to log(who = \"s\", x = items.x)")
        .unwrap();
    assert_eq!(db.pending_matches("seed").unwrap(), 1);
    db.run_rules().unwrap();
    assert_eq!(log_entries(&mut db), vec![("s".to_string(), 42)]);
}

#[test]
fn deactivate_and_reactivate() {
    let mut db = db_with_log();
    db.execute("define rule r on append items then append to log(who = \"r\", x = items.x)")
        .unwrap();
    db.execute("append items (x = 1)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 1);
    db.execute("deactivate rule r").unwrap();
    db.execute("append items (x = 2)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 1, "inactive rule is silent");
    db.execute("activate rule r").unwrap();
    db.execute("append items (x = 3)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 2);
    // lifecycle errors
    assert!(matches!(
        db.activate_rule("r"),
        Err(ArielError::AlreadyActive(_))
    ));
    db.execute("deactivate rule r").unwrap();
    assert!(matches!(
        db.deactivate_rule("r"),
        Err(ArielError::NotActive(_))
    ));
}

#[test]
fn drop_rule_removes_it() {
    let mut db = db_with_log();
    db.execute("define rule r on append items then append to log(who = \"r\", x = 0)")
        .unwrap();
    db.execute("destroy rule r").unwrap();
    db.execute("append items (x = 1)").unwrap();
    assert!(log_entries(&mut db).is_empty());
    assert!(matches!(
        db.execute("destroy rule r"),
        Err(ArielError::UnknownRule(_))
    ));
}

#[test]
fn duplicate_rule_name_rejected() {
    let mut db = db_with_log();
    db.execute("define rule r if items.x > 0 then halt")
        .unwrap();
    assert!(matches!(
        db.execute("define rule r if items.x > 1 then halt"),
        Err(ArielError::DuplicateRule(_))
    ));
}

#[test]
fn destroy_relation_in_use_rejected() {
    let mut db = db_with_log();
    db.execute("define rule r if items.x > 0 then append to log(who = \"r\", x = 0)")
        .unwrap();
    let err = db.execute("destroy items").unwrap_err();
    assert!(matches!(err, ArielError::RelationInUse { .. }));
    // deactivating frees the relation
    db.execute("deactivate rule r").unwrap();
    db.execute("destroy items").unwrap();
}

#[test]
fn rulesets_group_rules() {
    let mut db = db_with_log();
    db.execute("define rule a in payroll if items.x > 0 then halt")
        .unwrap();
    db.execute("define rule b if items.x > 0 then halt")
        .unwrap();
    let in_payroll: Vec<_> = db
        .rules()
        .in_ruleset("payroll")
        .map(|r| r.name.clone())
        .collect();
    assert_eq!(in_payroll, vec!["a"]);
    let default: Vec<_> = db
        .rules()
        .in_ruleset(ariel::DEFAULT_RULESET)
        .map(|r| r.name.clone())
        .collect();
    assert_eq!(default, vec!["b"]);
}

#[test]
fn rule_action_error_names_the_rule() {
    let mut db = db_with_log();
    // the action divides by zero at fire time
    db.execute("define rule bad if items.x > 0 then append to log(who = \"b\", x = items.x / 0)")
        .unwrap();
    let err = db.execute("append items (x = 1)").unwrap_err();
    match err {
        ArielError::RuleAction { rule, .. } => assert_eq!(rule, "bad"),
        other => panic!("expected RuleAction, got {other:?}"),
    }
}

#[test]
fn on_delete_rule_logs_dead_tuples() {
    let mut db = db_with_log();
    db.execute("define rule obit on delete items then append to log(who = \"gone\", x = items.x)")
        .unwrap();
    db.execute("append items (x = 9)").unwrap();
    db.execute("delete items where items.x = 9").unwrap();
    assert_eq!(log_entries(&mut db), vec![("gone".to_string(), 9)]);
}

#[test]
fn mutual_rules_with_converging_values_terminate() {
    // two rules that fight but converge: cap at 10 and floor at 5
    let mut db = Ariel::new();
    db.execute("create v (x = int)").unwrap();
    db.execute("define rule cap if v.x > 10 then replace v (x = 10)")
        .unwrap();
    db.execute("define rule floor if v.x < 5 then replace v (x = 5)")
        .unwrap();
    db.execute("append v (x = 100)").unwrap();
    let out = db.query("retrieve (v.all)").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(10));
    db.execute("replace v (x = -3) where v.x = 10").unwrap();
    let out = db.query("retrieve (v.all)").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(5));
}

#[test]
fn engine_stats_accumulate() {
    let mut db = db_with_log();
    db.execute("define rule r on append items then append to log(who = \"r\", x = 0)")
        .unwrap();
    db.execute("append items (x = 1)").unwrap();
    let s = db.stats();
    assert!(s.transitions >= 2, "user command + rule action");
    assert!(s.tokens >= 2);
    assert_eq!(s.firings, 1);
}

#[test]
fn ruleset_activation_toggles_groups() {
    let mut db = db_with_log();
    db.execute("define rule a in audit on append items then append to log(who = \"a\", x = 0)")
        .unwrap();
    db.execute("define rule b in audit on append items then append to log(who = \"b\", x = 0)")
        .unwrap();
    db.execute("define rule c on append items then append to log(who = \"c\", x = 0)")
        .unwrap();
    // turn the whole audit ruleset off
    let off = db.deactivate_ruleset("audit").unwrap();
    assert_eq!(off.len(), 2);
    db.execute("append items (x = 1)").unwrap();
    let log = log_entries(&mut db);
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].0, "c");
    // and back on
    let on = db.activate_ruleset("audit").unwrap();
    assert_eq!(on.len(), 2);
    db.execute("append items (x = 2)").unwrap();
    assert_eq!(log_entries(&mut db).len(), 4);
    // toggling an already-consistent set is a no-op
    assert!(db.activate_ruleset("audit").unwrap().is_empty());
    assert!(db.activate_ruleset("no_such_set").unwrap().is_empty());
}

/// Engines on both network backends (A-TREAT and indexed Rete).
fn both_backends(conflict: ConflictStrategy) -> [Ariel; 2] {
    [None, Some(ReteMode::Indexed)].map(|rete_mode| {
        Ariel::with_options(EngineOptions {
            rete_mode,
            conflict,
            ..Default::default()
        })
    })
}

#[test]
fn recency_counts_rows_added_after_an_earlier_firing() {
    // b_x fires on two rows; c_z (priority 10) then re-matches b_x with a
    // single row. Recency is the tick of the last transition that added
    // rows to a rule's P-node, so b_x (re-matched later) fires before a_y,
    // even though its P-node is smaller than when it first fired.
    for mut db in both_backends(ConflictStrategy::PriorityRecency) {
        db.set_tracing(true);
        db.execute(
            "create t (a = int); create s (a = int); create w (a = int); \
             create log (n = string, a = int)",
        )
        .unwrap();
        db.execute(
            r#"define rule b_x if t.a > 0 then do append to log (n = "x", a = t.a)
               append to s (a = t.a) append to w (a = t.a) end"#,
        )
        .unwrap();
        db.execute(r#"define rule a_y if s.a > 0 then append to log (n = "y", a = s.a)"#)
            .unwrap();
        db.execute("define rule c_z priority 10 if w.a > 0 and w.a < 5 then append to t (a = 9)")
            .unwrap();
        db.execute("do append t (a = 1) append t (a = 2) end")
            .unwrap();
        let log: Vec<String> = db
            .query("retrieve (log.all)")
            .unwrap()
            .rows
            .iter()
            .map(|r| format!("{}{}", r[0].as_str().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        let backend = db.network().rete_mode();
        assert_eq!(log, ["x1", "x2", "x9", "y1", "y2", "y9"], "{backend:?}");
        // each scheduling records how many rules were eligible at that
        // moment, the chosen one included
        let schedule: Vec<(String, u64)> = db
            .trace_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::AgendaSchedule { rule, eligible } => {
                    let name = db.rules().iter().find(|r| r.id.0 == rule)?.name.clone();
                    Some((name, eligible))
                }
                _ => None,
            })
            .collect();
        let expected =
            [("b_x", 1), ("c_z", 2), ("b_x", 2), ("a_y", 1)].map(|(n, e)| (n.to_string(), e));
        assert_eq!(schedule, expected, "{backend:?}");
    }
}

/// A seeded rule base over relations `r0..r3`: single-variable and join
/// conditions with mixed priorities; actions log their firing, append to
/// a higher-numbered relation (so every cascade ends) and may delete from
/// one, retracting other rules' matches.
fn random_rule_base(rng: &mut u64, rules: usize) -> Vec<String> {
    let mut next = |n: u64| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng % n
    };
    let mut defs = Vec::new();
    for i in 0..rules {
        let src = next(3) as usize;
        let priority = [0, 0, 1, 5][next(4) as usize];
        // the highest relation the condition reads
        let (cond, top) = match next(3) {
            0 => (format!("r{src}.a > {}", next(6)), src),
            1 => (format!("r{src}.a < {}", 3 + next(6)), src),
            _ => {
                let src = src.min(1);
                (format!("r{src}.a = r{}.a", src + 1), src + 1)
            }
        };
        let src = src.min(top);
        let dst = top + 1 + next((3 - top) as u64) as usize;
        let mut action = format!(
            r#"append to log (n = "p{i}", a = r{src}.a) append to r{dst} (a = r{src}.a + {})"#,
            next(2)
        );
        if next(3) == 0 {
            let victim = next(4);
            action.push_str(&format!(
                " delete r{victim} where r{victim}.a = {}",
                next(8)
            ));
        }
        defs.push(format!(
            "define rule p{i} priority {priority} if {cond} then do {action} end"
        ));
    }
    defs
}

#[test]
fn randomized_cascades_fire_identically_on_both_backends() {
    // the engine checks its agenda against a scan of every P-node and
    // against `agenda::select` before each firing (debug builds); this
    // drives that check through cascades with priorities and with deletes
    // that retract pending matches, and requires both backends to fire the
    // same rules in the same order
    for seed in 1..=12u64 {
        let conflict = if seed % 4 == 0 {
            ConflictStrategy::PriorityName
        } else {
            ConflictStrategy::PriorityRecency
        };
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let defs = random_rule_base(&mut rng, 8);
        let mut runs = Vec::new();
        for mut db in both_backends(conflict) {
            db.execute(
                "create r0 (a = int); create r1 (a = int); create r2 (a = int); \
                 create r3 (a = int); create log (n = string, a = int)",
            )
            .unwrap();
            for def in &defs {
                db.execute(def).unwrap();
            }
            let mut rng = seed;
            let mut outcomes = Vec::new();
            for _ in 0..25 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = (rng >> 33) % 8;
                let cmd = match (rng >> 40) % 4 {
                    0 => format!("append r0 (a = {x})"),
                    1 => format!("do append r0 (a = {x}) append r1 (a = {}) end", x + 1),
                    2 => format!("delete r1 where r1.a = {x}"),
                    _ => format!("append r1 (a = {x})"),
                };
                outcomes.push(db.execute(&cmd).map(|_| ()).map_err(|e| e.to_string()));
            }
            // firing order: the rule name of each log row, one entry per
            // firing (a firing's rows are contiguous)
            let mut firings: Vec<String> = Vec::new();
            let mut logged: Vec<(String, i64)> = Vec::new();
            for row in db.query("retrieve (log.all)").unwrap().rows {
                let name = row[0].as_str().unwrap().to_string();
                if firings.last() != Some(&name) {
                    firings.push(name.clone());
                }
                logged.push((name, row[1].as_i64().unwrap()));
            }
            logged.sort();
            runs.push((outcomes, firings, logged, db.stats().firings));
        }
        assert!(runs[0].3 > 0, "seed {seed} fired nothing");
        assert_eq!(runs[0], runs[1], "seed {seed}: A-TREAT vs Rete");
    }
}
