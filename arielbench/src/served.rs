//! The served half of a run: set-up, the closed-loop timed phase over
//! loopback, and the recovery phase.

use crate::affinity;
use crate::hist::{steal_jiffies, LogHist};
use crate::workload::{setup_script, Gen, Kind, Predicted, Request, Workload, CLIENTS};
use ariel::{Ariel, Durability, EngineOptions};
use ariel_server::{Client, ClientError, ResultBody, Server, ServerHandle, ServerOptions};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rounds per run. Each round sets up a fresh engine, serves it, checks
/// it and recovers it, so the 30 set-ups and recoveries are sampled
/// across the whole run, like the served windows, and not in one stretch
/// that a slow spell of the host can cover.
pub const ROUNDS: usize = 30;

/// Warm-up before each round's timing starts, so lazy set-up, caches and
/// the allocator settle first. Its requests count for the oracle and the
/// counters but not for latency or throughput.
pub const WARMUP: Duration = Duration::from_millis(200);

/// Cycles of the recovery tail, taken from the clients' generators in
/// turn (see [`recovery`]).
pub const TAIL_CYCLES: usize = 100;

/// Recoveries of each round's directory, each on the next of the
/// process's CPUs (see [`affinity`]): 60 samples in a run, half on each
/// CPU of a 2-CPU host, and both CPUs sampled in every round.
pub const RECOVERIES: usize = 2;

/// Build a workload's engine from generated ARL: schema and seed rows,
/// then the rules, installed and activated one by one (§6's two phases).
/// The engine runs with `durability off`.
pub fn build_engine(workload: Workload, seed: u64) -> Result<Ariel, String> {
    let script = setup_script(workload, seed);
    let mut db = Ariel::new();
    for src in &script.schema {
        db.execute(src).map_err(|e| format!("set-up: {e}"))?;
    }
    let mut names = Vec::with_capacity(script.rules.len());
    for src in &script.rules {
        names.push(
            db.install_rule_src(src)
                .map_err(|e| format!("install: {e}"))?,
        );
    }
    for name in &names {
        db.activate_rule(name)
            .map_err(|e| format!("activate: {e}"))?;
    }
    if script.drain_primed {
        // activation primed P-nodes from the seed rows without firing;
        // fire them now and clear the log so every run starts alike
        db.run_rules().map_err(|e| format!("set-up firing: {e}"))?;
        db.execute("delete bench_log")
            .map_err(|e| format!("set-up: {e}"))?;
    }
    let rows = row_counts(&db);
    let want: Vec<(String, usize)> = script
        .rows
        .iter()
        .map(|(r, n)| (r.to_string(), *n))
        .collect();
    if rows != want {
        return Err(format!("set-up left rows {rows:?}, expected {want:?}"));
    }
    Ok(db)
}

/// Rows per relation, sorted by relation name.
pub fn row_counts(db: &Ariel) -> Vec<(String, usize)> {
    let mut names = db.catalog().names();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let len = db.catalog().get(&n).map_or(0, |r| r.borrow().len());
            (n, len)
        })
        .collect()
}

/// A served engine with its connected clients.
pub struct Served {
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
    /// Engine counters when set-up finished.
    pub before: Counters,
}

/// Engine counters read through the public accessors.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub stats: ariel::EngineStats,
    pub net: ariel::network::NetworkStats,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
    pub fsync_buckets: Vec<u64>,
}

impl Counters {
    pub fn read(db: &Ariel) -> Counters {
        let wal = db.wal_metrics();
        Counters {
            stats: db.stats(),
            net: db.network_stats(),
            wal_records: wal.records,
            wal_bytes: wal.bytes,
            fsyncs: wal.fsyncs,
            fsync_buckets: wal.fsync_ns.buckets().to_vec(),
        }
    }
}

/// One full set-up: engine, server bind, client connects. The engine is
/// built on `cpu` (see [`affinity`]); the server's threads start
/// unpinned.
pub fn setup(workload: Workload, seed: u64, cpu: Option<usize>) -> Result<Served, String> {
    let db = affinity::on(cpu, || build_engine(workload, seed))?;
    let before = Counters::read(&db);
    let server = Server::bind("127.0.0.1:0", db, ServerOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        match Client::connect(addr) {
            Ok(c) => clients.push(c),
            Err(e) => {
                handle.shutdown();
                return Err(format!("connect: {e}"));
            }
        }
    }
    Ok(Served {
        handle,
        clients,
        before,
    })
}

/// Send one request and check its reply.
pub fn send(client: &mut Client, req: &Request) -> Result<(), String> {
    let reply: Result<ResultBody, ClientError> = match req.kind {
        Kind::Command => client.command(&req.text),
        Kind::Query => client.query(&req.text),
    };
    let body = reply.map_err(|e| format!("`{}`: {e}", req.text))?;
    let first = body
        .table
        .rows
        .first()
        .and_then(|r| r.first())
        .map(String::as_str);
    req.expect
        .check(body.changes, body.table.rows.len(), first)
        .map_err(|e| format!("`{}`: {e}", req.text))
}

/// Length of one measurement window of the timed phase.
pub const WINDOW: Duration = Duration::from_millis(100);

/// Latencies of the requests that completed in one window.
#[derive(Clone)]
pub struct Window {
    pub cmd: LogHist,
    pub query: LogHist,
}

impl Window {
    pub fn new() -> Window {
        Window {
            cmd: LogHist::new(),
            query: LogHist::new(),
        }
    }

    pub fn merge(&mut self, other: &Window) {
        self.cmd.merge(&other.cmd);
        self.query.merge(&other.query);
    }

    pub fn requests(&self) -> u64 {
        self.cmd.count() + self.query.count()
    }
}

/// What one client did in the served phase.
pub struct ClientRun {
    pub gen: Gen,
    /// Requests completed in each window of the timed phase.
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// The served phase: the clients' closed loops, plus the host's steal
/// counter read at every window boundary.
pub struct Phase {
    pub clients: Vec<ClientRun>,
    /// `steal` jiffies at each window boundary (`windows + 1` readings).
    pub steal: Option<Vec<u64>>,
}

/// The closed loop: each client sends its next request only after the
/// previous reply, in whole cycles, until `windows` windows from
/// `timed_from` have passed. Requests before `timed_from` are warm-up.
pub fn run_clients(
    workload: Workload,
    seed: u64,
    round: usize,
    clients: &mut [Client],
    timed_from: Instant,
    windows: usize,
) -> Phase {
    let until = timed_from + WINDOW * windows as u32;
    std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut readings = Vec::with_capacity(windows + 1);
            for i in 0..=windows {
                let at = timed_from + WINDOW * i as u32;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                readings.push(steal_jiffies()?);
            }
            Some(readings)
        });
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut run = ClientRun {
                        gen: Gen::new(workload, seed, round, c),
                        windows: (0..windows).map(|_| Window::new()).collect(),
                        attempted: 0,
                        failures: Vec::new(),
                    };
                    while Instant::now() < until {
                        for req in run.gen.next_cycle() {
                            let t0 = Instant::now();
                            let result = send(client, &req);
                            let done = Instant::now();
                            run.attempted += 1;
                            if let Err(e) = result {
                                run.failures.push(e);
                            }
                            if done < timed_from || done >= until {
                                continue;
                            }
                            let w = &mut run.windows
                                [((done - timed_from).as_nanos() / WINDOW.as_nanos()) as usize];
                            let ns = (done - t0).as_nanos() as u64;
                            match req.kind {
                                Kind::Command => w.cmd.record(ns),
                                Kind::Query => w.query.record(ns),
                            }
                        }
                    }
                    run
                })
            })
            .collect();
        let clients = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        Phase {
            clients,
            steal: sampler.join().expect("steal sampler panicked"),
        }
    })
}

/// Read `"queue_high_water":N` out of the server's metrics frame.
pub fn queue_high_water(client: &mut Client) -> Result<u64, String> {
    let json = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let key = "\"queue_high_water\":";
    let at = json
        .find(key)
        .ok_or("metrics frame lacks queue_high_water")?
        + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| "bad queue_high_water".to_string())
}

/// What the recovery phase measured.
pub struct Recovery {
    /// `Ariel::recover`: wall time and the host's steal meanwhile, one
    /// per CPU it ran on.
    pub times: Vec<Timed>,
    pub tail_requests: u64,
    /// `command` requests of the tail, each logged to the WAL.
    pub tail_commands: u64,
    pub tail_predicted: Predicted,
    /// The live engine's counters once the tail has run.
    pub after_tail: Counters,
}

/// Restart cost on a fixed amount of durable state, the same for every
/// workload whatever the timed phase's throughput: checkpoint the live
/// engine, append a tail of [`TAIL_CYCLES`] of the workload's own cycles
/// under `durability commit`, then drop the live engine and recover the
/// directory once on each of `cpus` (see [`affinity`]). Every recovered
/// engine must hold the live engine's rows. One engine is alive at a
/// time, so `peak_rss_mb` is not inflated by the benchmark holding two.
pub fn recovery(
    mut db: Ariel,
    gens: &mut [Gen],
    dir: &Path,
    cpus: &[Option<usize>],
) -> Result<Recovery, String> {
    db.set_durability(Durability::Commit)
        .map_err(|e| format!("durability: {e}"))?;
    db.checkpoint(dir).map_err(|e| format!("checkpoint: {e}"))?;
    let before: Vec<Predicted> = gens.iter().map(|g| g.predicted).collect();
    let mut tail_requests = 0;
    let mut tail_commands = 0;
    for i in 0..TAIL_CYCLES {
        let n = gens.len();
        for req in gens[i % n].next_cycle() {
            execute_checked(&mut db, &req)?;
            tail_requests += 1;
            tail_commands += u64::from(req.kind == Kind::Command);
        }
    }
    let mut tail_predicted = Predicted::default();
    for (g, b) in gens.iter().zip(&before) {
        tail_predicted += Predicted {
            firings: g.predicted.firings - b.firings,
            pnode_rows: g.predicted.pnode_rows - b.pnode_rows,
            audit_rows: g.predicted.audit_rows - b.audit_rows,
        };
    }
    let live = row_counts(&db);
    let after_tail = Counters::read(&db);
    drop(db);
    let mut times = Vec::with_capacity(cpus.len());
    for &cpu in cpus {
        let ((recovered, report), time) = timed(|| {
            affinity::on(cpu, || Ariel::recover(dir, EngineOptions::default()))
                .map_err(|e| format!("recover: {e}"))
        })?;
        if !report.replay_errors.is_empty() || report.torn_tail {
            return Err(format!("recovery reported {report:?}"));
        }
        let got = row_counts(&recovered);
        if got != live {
            return Err(format!("recovered rows {got:?} != live rows {live:?}"));
        }
        times.push(time);
    }
    Ok(Recovery {
        times,
        tail_requests,
        tail_commands,
        tail_predicted,
        after_tail,
    })
}

/// Run one request in process through `Ariel::execute`/`query` and check
/// its output the way the client checks a reply.
pub fn execute_checked(db: &mut Ariel, req: &Request) -> Result<(), String> {
    let (changes, rows, first) = match req.kind {
        Kind::Command => {
            let outs = db
                .execute(&req.text)
                .map_err(|e| format!("`{}`: {e}", req.text))?;
            let changes = outs.iter().map(|o| o.changes.len() as u32).sum();
            let rows = outs.iter().map(|o| o.rows.len()).sum();
            (changes, rows, None)
        }
        Kind::Query => {
            let out = db
                .query(&req.text)
                .map_err(|e| format!("`{}`: {e}", req.text))?;
            let first = out
                .rows
                .first()
                .and_then(|r| r.first())
                .map(|v| v.to_string());
            (out.changes.len() as u32, out.rows.len(), first)
        }
    };
    req.expect
        .check(changes, rows, first.as_deref())
        .map_err(|e| format!("`{}`: {e}", req.text))
}

/// One timed repetition: its wall time and the steal jiffies meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub time: Duration,
    pub steal: u64,
}

/// Run `f`, timing it and recording the host's steal meanwhile.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, Timed), String> {
    let s0 = steal_jiffies().unwrap_or(0);
    let t0 = Instant::now();
    let out = f()?;
    let time = t0.elapsed();
    let steal = steal_jiffies().unwrap_or(0).saturating_sub(s0);
    Ok((out, Timed { time, steal }))
}

/// The intervals the host disturbed least: every one in which it stole
/// no CPU time or, when fewer than `share` of them are free of steal, the
/// `share` with the least (earlier first on ties). The host's steal, never
/// the measured value, picks what is kept.
pub fn undisturbed(steal: &[u64], share: f64) -> Vec<usize> {
    let want = ((steal.len() as f64 * share).ceil() as usize).max(1);
    let free: Vec<usize> = (0..steal.len()).filter(|&i| steal[i] == 0).collect();
    if free.len() >= want {
        return free;
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&i| (steal[i], i));
    order.truncate(want);
    order
}

/// Median wall time of the repetitions [`undisturbed`] keeps (at least
/// half of them), in seconds.
pub fn clean_median_s(reps: &[Timed]) -> f64 {
    let steal: Vec<u64> = reps.iter().map(|r| r.steal).collect();
    let mut kept: Vec<Duration> = undisturbed(&steal, 0.5)
        .into_iter()
        .map(|i| reps[i].time)
        .collect();
    kept.sort_unstable();
    kept[kept.len() / 2].as_secs_f64()
}

/// The mean over CPUs of each CPU's [`clean_median_s`], where repetition
/// `i` ran on the `i % cpus`-th CPU: every run weighs each CPU alike,
/// whichever of them is the faster at the time.
pub fn per_cpu_median_s(reps: &[Timed], cpus: usize) -> f64 {
    let cpus = cpus.clamp(1, reps.len());
    let total: f64 = (0..cpus)
        .map(|c| {
            let mine: Vec<Timed> = reps.iter().skip(c).step_by(cpus).copied().collect();
            clean_median_s(&mine)
        })
        .sum();
    total / cpus as f64
}

/// A scratch directory of this run inside the working directory.
pub fn run_dir(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("{}-{seed}-{}", workload.name(), std::process::id()))
}
