//! Seeded request generation and the model each generated request is
//! checked against.
//!
//! The engine only ever sees the ARL text produced here. Every request is
//! generated together with the reply it must get, and clients run whole
//! *cycles*, so the end state of a run is known whatever its length:
//! kv-mix's `audit` grows by the rule's firings, rule-fanout leaves each
//! client's last block in place, and every other row count is as set-up
//! left it.

use std::collections::HashMap;

/// Rows of `kv` loaded at set-up (kv-mix).
pub const KV_ROWS: i64 = 100_000;
/// Seed values of `kv.v` stay below this, so the rule matches no seed row
/// and fresh appends never fire it; only replaces cross the threshold.
pub const KV_SEED_V: u64 = 990;
/// The `audit_big` rule's threshold.
pub const KV_FIRE_V: i64 = 990;
/// Rows in one rule-fanout `do … end` block.
pub const BLOCK_ROWS: usize = 8;
/// Type-3 rules installed by rule-fanout (the paper's largest rule count).
pub const FANOUT_RULES: i64 = 200;
const BAND_WIDTH: i64 = 10_000;
const BAND_STEP: i64 = 1_000;
/// `emp.age` of rows a rule-fanout block appends, plus the client number
/// (seed rows are 20–44), so `delete … where emp.age = …` removes exactly
/// the client's previous block.
const BLOCK_AGE: i64 = 100;

/// Closed-loop client threads per workload, one connection each: the 2
/// cores of the reference host. With one client a core idles at every
/// hand-off, and waking it is slow and erratic on a shared virtual
/// machine.
pub const CLIENTS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvMix,
    RuleFanout,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "kv-mix" => Some(Workload::KvMix),
            "rule-fanout" => Some(Workload::RuleFanout),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvMix => "kv-mix",
            Workload::RuleFanout => "rule-fanout",
        }
    }
}

/// SplitMix64: small, seedable and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Deterministic seed value of `kv.v` for key `k`.
fn seed_v(seed: u64, k: i64) -> i64 {
    (Rng::new(seed ^ (k as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)).below(KV_SEED_V)) as i64
}

/// Frame a request travels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Command,
    Query,
}

/// The reply a request must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A command that changes exactly this many tuples.
    Changes(u32),
    /// A `do … end` block that changes this many tuples and whose
    /// `retrieve` returns this many rows.
    Block { changes: u32, rows: usize },
    /// A `retrieve` returning exactly one row whose first cell is this.
    One(i64),
}

impl Expect {
    /// Check a reply given as (changes, rows, first cell of the first row).
    pub fn check(&self, changes: u32, rows: usize, first: Option<&str>) -> Result<(), String> {
        let ok = match self {
            Expect::Changes(n) => changes == *n && rows == 0,
            Expect::Block {
                changes: c,
                rows: r,
            } => changes == *c && rows == *r,
            Expect::One(v) => rows == 1 && first == Some(v.to_string().as_str()),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "expected {self:?}, got changes={changes} rows={rows} first={first:?}"
            ))
        }
    }
}

#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub text: String,
    pub expect: Expect,
}

impl Request {
    fn command(text: String, changes: u32) -> Request {
        Request {
            kind: Kind::Command,
            text,
            expect: Expect::Changes(changes),
        }
    }

    fn query(text: String, expect: Expect) -> Request {
        Request {
            kind: Kind::Query,
            text,
            expect,
        }
    }
}

/// What the generated requests must do to the engine, summed over the
/// cycles generated so far. Used as the oracle for the engine's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Predicted {
    /// Rule firings (one per transition that leaves its rule matched).
    pub firings: u64,
    /// P-node instantiations, each drained into one `audit`/`bench_log` row.
    pub pnode_rows: u64,
    /// Rows appended to `audit` by the rule.
    pub audit_rows: u64,
}

impl std::ops::AddAssign for Predicted {
    fn add_assign(&mut self, o: Predicted) {
        self.firings += o.firings;
        self.pnode_rows += o.pnode_rows;
        self.audit_rows += o.audit_rows;
    }
}

/// One client's request generator. Clients write disjoint keys, so each
/// generator alone knows the value every one of its reads must return,
/// whatever the interleaving with other clients.
#[derive(Debug, Clone)]
pub struct Gen {
    workload: Workload,
    seed: u64,
    client: i64,
    rng: Rng,
    cycles: u64,
    /// kv-mix: this client's replaced seed keys and their current value.
    overrides: HashMap<i64, i64>,
    /// rule-fanout: `bench_log` rows of the client's latest block.
    block_rows: u64,
    pub predicted: Predicted,
}

impl Gen {
    /// The generator of `client` in round `round` of a run (each round
    /// serves a freshly set-up engine, so rounds share no state).
    pub fn new(workload: Workload, seed: u64, round: usize, client: usize) -> Gen {
        Gen {
            workload,
            seed,
            client: client as i64,
            rng: Rng::new(
                seed.wrapping_mul(0x9e37_79b9)
                    .wrapping_add(1 + client as u64 + ((round as u64) << 16)),
            ),
            cycles: 0,
            overrides: HashMap::new(),
            block_rows: 0,
            predicted: Predicted::default(),
        }
    }

    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The next cycle of requests (see [`Gen::extra_rows`] for what whole
    /// cycles leave behind).
    pub fn next_cycle(&mut self) -> Vec<Request> {
        self.cycles += 1;
        match self.workload {
            Workload::KvMix => self.kv_mix_cycle(),
            Workload::RuleFanout => self.fanout_cycle(),
        }
    }

    /// A seed key only this client reads and replaces.
    fn own_seed_key(&mut self) -> i64 {
        let clients = CLIENTS as i64;
        self.rng.below((KV_ROWS / clients) as u64) as i64 * clients + self.client
    }

    /// 10 requests: 4 point retrieves, 4 point replaces, one append of a
    /// fresh key and, after it, the delete of that key.
    fn kv_mix_cycle(&mut self) -> Vec<Request> {
        let mut reads_writes = [false, false, false, false, true, true, true, true];
        for i in (1..reads_writes.len()).rev() {
            reads_writes.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        let mut out = Vec::with_capacity(10);
        for write in reads_writes {
            let k = self.own_seed_key();
            if write {
                let v = self.rng.below(1000) as i64;
                self.overrides.insert(k, v);
                if v >= KV_FIRE_V {
                    self.predicted += Predicted {
                        firings: 1,
                        pnode_rows: 1,
                        audit_rows: 1,
                    };
                }
                out.push(Request::command(
                    format!("replace kv (v = {v}) where kv.k = {k}"),
                    1,
                ));
            } else {
                let v = self
                    .overrides
                    .get(&k)
                    .copied()
                    .unwrap_or_else(|| seed_v(self.seed, k));
                out.push(Request::query(
                    format!("retrieve (kv.v) where kv.k = {k}"),
                    Expect::One(v),
                ));
            }
        }
        let fresh = self.fresh_key();
        let v = self.rng.below(KV_SEED_V) as i64;
        let at = self.rng.below(9) as usize;
        let del = at + 1 + self.rng.below(9 - at as u64) as usize;
        out.insert(
            at,
            Request::command(format!("append kv (k = {fresh}, v = {v})"), 1),
        );
        out.insert(
            del,
            Request::command(format!("delete kv where kv.k = {fresh}"), 1),
        );
        out
    }

    /// A key no other client and no earlier cycle used.
    fn fresh_key(&self) -> i64 {
        KV_ROWS + 1 + self.client * 1_000_000_000 + self.cycles as i64
    }

    /// 3 requests: one `do … end` block that reads back the `bench_log`
    /// rows the 200 rules appended for the client's previous block,
    /// deletes that block's 8 `emp` rows and their log rows, and appends 8
    /// new `emp` rows; then two point queries on the new rows. Every
    /// command has one shape, and so does every query. With two clients
    /// about one query in four waits behind the other client's block, so
    /// p50 falls among the queries that do not wait and p90 among those
    /// that do, neither on the boundary between the two.
    fn fanout_cycle(&mut self) -> Vec<Request> {
        let age = BLOCK_AGE + self.client;
        let c = self.client;
        let mut block = format!(
            "do retrieve (bench_log.name) where bench_log.age = {age} \
             delete emp where emp.age = {age} \
             delete bench_log where bench_log.age = {age}"
        );
        let mut fired = [false; FANOUT_RULES as usize];
        let mut rows = 0u64;
        let mut jnos = Vec::with_capacity(BLOCK_ROWS);
        for i in 0..BLOCK_ROWS {
            let sal = self.rng.below(210_000) as i64;
            // dno 7 and jno 5 have no dept/job row: those emps pass the
            // selection network but join nothing
            let dno = self.rng.below(8) as i64;
            let jno = self.rng.below(6) as i64;
            jnos.push(jno);
            block.push_str(&format!(
                " append emp (name = \"c{c}n{i}\", age = {age}, sal = {sal}.0, dno = {dno}, jno = {jno})"
            ));
            if dno < 7 && jno < 5 {
                for r in fanout_bands(sal) {
                    fired[r as usize] = true;
                    rows += 1;
                }
            }
        }
        block.push_str(" end");
        let previous = if self.cycles > 1 {
            BLOCK_ROWS as u64
        } else {
            0
        };
        let expect = Expect::Block {
            changes: (previous + self.block_rows) as u32 + BLOCK_ROWS as u32,
            rows: self.block_rows as usize,
        };
        self.block_rows = rows;
        self.predicted += Predicted {
            firings: fired.iter().filter(|f| **f).count() as u64,
            pnode_rows: rows,
            audit_rows: 0,
        };
        let mut out = vec![Request {
            kind: Kind::Command,
            text: block,
            expect,
        }];
        for _ in 0..2 {
            let i = self.rng.below(BLOCK_ROWS as u64) as usize;
            out.push(Request::query(
                format!("retrieve (emp.jno) where emp.name = \"c{c}n{i}\""),
                Expect::One(jnos[i]),
            ));
        }
        out
    }

    /// Rows this client's cycles add to each relation, beyond set-up.
    pub fn extra_rows(&self) -> Vec<(&'static str, usize)> {
        match self.workload {
            Workload::KvMix => vec![("audit", self.predicted.audit_rows as usize)],
            Workload::RuleFanout if self.cycles > 0 => {
                vec![("bench_log", self.block_rows as usize), ("emp", BLOCK_ROWS)]
            }
            Workload::RuleFanout => Vec::new(),
        }
    }
}

/// Rule-fanout rules whose salary band `(i·1000, i·1000 + 10000]` holds `sal`.
fn fanout_bands(sal: i64) -> impl Iterator<Item = i64> {
    (0..FANOUT_RULES).filter(move |i| {
        let lo = i * BAND_STEP;
        lo < sal && sal <= lo + BAND_WIDTH
    })
}

/// Set-up ARL, in the paper's two phases: `schema` (relations, indexes
/// and seed rows), then the rules, which are installed and activated one
/// by one.
pub struct SetupScript {
    pub schema: Vec<String>,
    pub rules: Vec<String>,
    /// Whether activation leaves primed matches the set-up must fire and
    /// clear before the run (rule-fanout's seed emps fall in its bands).
    pub drain_primed: bool,
    /// Row counts per relation once set-up is done.
    pub rows: Vec<(&'static str, usize)>,
}

pub fn setup_script(workload: Workload, seed: u64) -> SetupScript {
    match workload {
        Workload::KvMix => {
            let mut schema = vec![
                "create kv (k = int, v = int)".to_string(),
                "create audit (k = int, v = int)".to_string(),
                "define index on kv (k) using hash".to_string(),
            ];
            for chunk in 0..KV_ROWS / 1000 {
                let mut block = String::from("do");
                for k in chunk * 1000..(chunk + 1) * 1000 {
                    block.push_str(&format!(" append kv (k = {k}, v = {})", seed_v(seed, k)));
                }
                block.push_str(" end");
                schema.push(block);
            }
            SetupScript {
                schema,
                rules: vec![format!(
                    "define rule audit_big if kv.v >= {KV_FIRE_V} \
                     then append to audit (k = kv.k, v = kv.v)"
                )],
                drain_primed: false,
                rows: vec![("audit", 0), ("kv", KV_ROWS as usize)],
            }
        }
        Workload::RuleFanout => {
            // the paper's §6 schema and sizes: 25 emps, 7 depts, 5 jobs
            let mut schema = vec![
                "create emp (name = string, age = int, sal = float, dno = int, jno = int)".into(),
                "create dept (dno = int, name = string, building = string)".into(),
                "create job (jno = int, title = string, paygrade = int, description = string)"
                    .into(),
                "create bench_log (name = string, age = int)".into(),
            ];
            let mut block = String::from("do");
            for i in 0..25 {
                block.push_str(&format!(
                    " append emp (name = \"e{i}\", age = {}, sal = {}.0, dno = {}, jno = {})",
                    20 + i,
                    i * 1000,
                    i % 7,
                    i % 5
                ));
            }
            for i in 0..7 {
                block.push_str(&format!(
                    " append dept (dno = {i}, name = \"d{i}\", building = \"HQ\")"
                ));
            }
            for i in 0..5 {
                block.push_str(&format!(
                    " append job (jno = {i}, title = \"j{i}\", paygrade = {i}, description = \"-\")"
                ));
            }
            block.push_str(" end");
            schema.push(block);
            let rules = (0..FANOUT_RULES)
                .map(|i| {
                    let lo = i * BAND_STEP;
                    format!(
                        "define rule fan_{i} if {lo} < emp.sal and emp.sal <= {} \
                         and emp.dno = dept.dno and emp.jno = job.jno \
                         then append to bench_log (name = emp.name, age = emp.age)",
                        lo + BAND_WIDTH
                    )
                })
                .collect();
            SetupScript {
                schema,
                rules,
                drain_primed: true,
                rows: vec![("bench_log", 0), ("dept", 7), ("emp", 25), ("job", 5)],
            }
        }
    }
}

/// Interleave the clients' cycles the way the replay runs them: cycle 0 of
/// every client, then cycle 1, and so on. Clients touch disjoint keys, so
/// any interleaving reaches the same state and the same counts.
pub fn replay_stream(
    workload: Workload,
    seed: u64,
    round: usize,
    cycles: &[u64],
) -> (Vec<Request>, Predicted) {
    let mut gens: Vec<Gen> = (0..cycles.len())
        .map(|c| Gen::new(workload, seed, round, c))
        .collect();
    let mut out = Vec::new();
    let rounds = cycles.iter().copied().max().unwrap_or(0);
    for round in 0..rounds {
        for (c, g) in gens.iter_mut().enumerate() {
            if round < cycles[c] {
                out.extend(g.next_cycle());
            }
        }
    }
    let mut predicted = Predicted::default();
    for g in &gens {
        predicted += g.predicted;
    }
    (out, predicted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for w in [Workload::KvMix, Workload::RuleFanout] {
            let a = replay_stream(w, 7, 0, &[3, 2]);
            let b = replay_stream(w, 7, 0, &[3, 2]);
            let c = replay_stream(w, 8, 0, &[3, 2]);
            let d = replay_stream(w, 7, 1, &[3, 2]);
            let texts = |s: &(Vec<Request>, Predicted)| {
                s.0.iter().map(|r| r.text.clone()).collect::<Vec<_>>()
            };
            assert_eq!(texts(&a), texts(&b));
            assert_ne!(texts(&a), texts(&c));
            assert_ne!(texts(&a), texts(&d));
        }
    }

    #[test]
    fn kv_mix_cycle_deletes_what_it_appends() {
        let mut g = Gen::new(Workload::KvMix, 1, 0, 1);
        for _ in 0..100 {
            let cycle = g.next_cycle();
            assert_eq!(cycle.len(), 10);
            let append = cycle.iter().position(|r| r.text.starts_with("append"));
            let delete = cycle.iter().position(|r| r.text.starts_with("delete"));
            assert!(append < delete, "{cycle:?}");
            assert_eq!(cycle.iter().filter(|r| r.kind == Kind::Query).count(), 4);
        }
    }

    #[test]
    fn bands_hold_ten_rules_inside_the_range() {
        assert_eq!(fanout_bands(20_500).count(), 10);
        assert_eq!(fanout_bands(0).count(), 0);
        assert_eq!(fanout_bands(1).count(), 1);
        assert_eq!(fanout_bands(209_000).count(), 1);
    }
}
