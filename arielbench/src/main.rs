//! Served end-to-end benchmark for the Ariel active DBMS.
//!
//! ```text
//! cargo run --release --manifest-path arielbench/Cargo.toml -- \
//!     --workload kv-mix --seed 1 --seconds 24 --trace 0
//! ```
//!
//! One process starts an in-process `ariel_server::Server` on loopback and
//! drives one seeded workload through `ariel_server::Client`, closed loop,
//! in rounds that each set up, serve, check and recover a fresh engine.
//! Every reply is checked against the generator's model, and the engine's
//! counters and end state against the generator's predictions; any
//! mismatch fails the run. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the same served rounds, replays each round's request
//! stream in process with a span around each layer call, and prints the
//! per-layer metrics. The last line of standard output is one JSON object.
//! See `arielbench/README.md`.

mod affinity;
mod hist;
mod replay;
mod served;
mod workload;

use served::{Counters, Recovery};
use std::time::Instant;
use workload::{Predicted, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The run's outcome.
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arielbench: {e}");
            eprintln!(
                "usage: arielbench --workload kv-mix|rule-fanout \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("arielbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &report.metrics {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let mut problems = report.problems;
    for m in report.metrics.iter().filter(|m| !m.value.is_finite()) {
        problems.push(format!("{} is undefined on this run (0/0)", m.name));
    }
    for p in &problems {
        eprintln!("arielbench: check failed: {p}");
    }
    let correct = problems.is_empty() && report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let dir = served::run_dir(w, args.seed);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// What one round left for the run's metrics.
struct Round {
    setup_time: served::Timed,
    /// The timed windows, latencies merged over the clients.
    windows: Vec<served::Window>,
    /// The host's steal in each window, in jiffies.
    steal: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Transitions the server executed.
    batches: u64,
    queue_high_water: u64,
    /// Engine counters after set-up and after the served phase; `rec`
    /// holds those after the recovery tail.
    before: Counters,
    after: Counters,
    live_rows: Vec<(String, usize)>,
    /// Whole cycles each client completed.
    cycles: Vec<u64>,
    predicted: Predicted,
    rec: Recovery,
}

impl Round {
    fn firings(&self) -> u64 {
        self.after.stats.firings - self.before.stats.firings
    }

    fn tokens(&self) -> u64 {
        self.after.stats.tokens - self.before.stats.tokens
    }

    fn pnode_inserts(&self) -> u64 {
        self.after.net.pnode_inserts - self.before.net.pnode_inserts
    }
}

/// One round: set-up, the closed-loop served phase, the oracle
/// on it, and the recovery phase. One engine is alive at a time.
fn round(
    args: &Args,
    round: usize,
    windows: usize,
    cpus: &[usize],
    dir: &std::path::Path,
    problems: &mut Vec<String>,
) -> Result<Round, String> {
    let w = args.workload;
    // set-up i runs on the (i mod n)-th of the n CPUs, and so does
    // recovery i; a round has one set-up and RECOVERIES recoveries
    let on = |i: usize| (!cpus.is_empty()).then(|| cpus[i % cpus.len()]);

    let (mut s, setup_time) = served::timed(|| served::setup(w, args.seed, on(round)))?;

    // the closed-loop served phase
    let timed_from = Instant::now() + served::WARMUP;
    let phase = served::run_clients(w, args.seed, round, &mut s.clients, timed_from, windows);
    let runs = &phase.clients;
    let queue_high_water = served::queue_high_water(&mut s.clients[0])?;
    drop(std::mem::take(&mut s.clients));
    let (server_stats, db) = s.handle.shutdown();
    let after = Counters::read(&db);
    let before = s.before;
    let live_rows = served::row_counts(&db);

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failures: Vec<&String> = runs.iter().flat_map(|r| &r.failures).collect();
    for f in failures.iter().take(5) {
        problems.push(format!("round {round}: request failed: {f}"));
    }
    let mut predicted = Predicted::default();
    for r in runs {
        predicted += r.gen.predicted;
    }

    // the oracle on the served phase
    let mut want_rows: Vec<(String, usize)> = workload::setup_script(w, args.seed)
        .rows
        .iter()
        .map(|(r, n)| (r.to_string(), *n))
        .collect();
    for (rel, extra) in runs.iter().flat_map(|r| r.gen.extra_rows()) {
        if let Some((_, n)) = want_rows.iter_mut().find(|(r, _)| r == rel) {
            *n += extra;
        }
    }
    check(problems, round, "end-of-run rows", &live_rows, &want_rows);
    check(
        problems,
        round,
        "rule firings",
        &(after.stats.firings - before.stats.firings),
        &predicted.firings,
    );
    check(
        problems,
        round,
        "P-node rows drained",
        &(after.net.pnode_inserts - before.net.pnode_inserts),
        &predicted.pnode_rows,
    );
    check(
        problems,
        round,
        "server requests",
        &(server_stats.commands + server_stats.queries),
        &attempted,
    );
    check(
        problems,
        round,
        "server errors",
        &(server_stats.engine_errors + server_stats.protocol_errors),
        &0,
    );
    // the served phase runs with durability off
    check(
        problems,
        round,
        "WAL records",
        &(after.wal_records - before.wal_records),
        &0,
    );

    // restart cost on a fixed snapshot plus WAL tail
    let mut gens: Vec<_> = runs.iter().map(|r| r.gen.clone()).collect();
    let tail_dir = dir.join(format!("recover{round}"));
    let recover_cpus: Vec<Option<usize>> = (0..served::RECOVERIES)
        .map(|k| on(round * served::RECOVERIES + k))
        .collect();
    let rec: Recovery = served::recovery(db, &mut gens, &tail_dir, &recover_cpus)?;
    let _ = std::fs::remove_dir_all(&tail_dir);
    check(
        problems,
        round,
        "recovery-tail firings",
        &(rec.after_tail.stats.firings - after.stats.firings),
        &rec.tail_predicted.firings,
    );

    let mut merged: Vec<_> = (0..windows).map(|_| served::Window::new()).collect();
    for r in runs {
        for (m, w) in merged.iter_mut().zip(&r.windows) {
            m.merge(w);
        }
    }
    let steal: Vec<u64> = match &phase.steal {
        Some(readings) => readings.windows(2).map(|p| p[1] - p[0]).collect(),
        None => vec![0; windows],
    };
    Ok(Round {
        setup_time,
        windows: merged,
        steal,
        attempted,
        failed: failures.len() as u64,
        batches: server_stats.batches,
        queue_high_water,
        before,
        after,
        live_rows,
        cycles: runs.iter().map(|r| r.gen.cycles()).collect(),
        predicted,
        rec,
    })
}

/// What the replays of every round add up to.
struct Replays {
    tracer: replay::Tracer,
    traced_wall: std::time::Duration,
    untraced_wall: std::time::Duration,
}

/// Replay a round's request stream in process, traced and untraced, each
/// on a freshly set-up engine, and check that both reproduce the served
/// round.
fn replay_round(
    args: &Args,
    index: usize,
    r: &Round,
    replays: &mut Replays,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let w = args.workload;
    let (stream, replay_predicted) = workload::replay_stream(w, args.seed, index, &r.cycles);
    check(
        problems,
        index,
        "replay predictions",
        &replay_predicted,
        &r.predicted,
    );

    let mut rdb = served::build_engine(w, args.seed)?;
    let rbefore = Counters::read(&rdb);
    let traced = replay::traced(&mut rdb, &stream, &mut replays.tracer)?;
    let rafter = Counters::read(&rdb);
    check(
        problems,
        index,
        "replay firings",
        &(rafter.stats.firings - rbefore.stats.firings),
        &r.firings(),
    );
    check(
        problems,
        index,
        "replay tokens",
        &traced.tokens,
        &r.tokens(),
    );
    check(
        problems,
        index,
        "replay P-node inserts",
        &(rafter.net.pnode_inserts - rbefore.net.pnode_inserts),
        &r.pnode_inserts(),
    );
    check(
        problems,
        index,
        "replay rows",
        &served::row_counts(&rdb),
        &r.live_rows,
    );
    drop(rdb);
    replays.traced_wall += traced.wall;

    let mut udb = served::build_engine(w, args.seed)?;
    let ubefore = udb.stats().firings;
    replays.untraced_wall += replay::untraced(&mut udb, &stream)?;
    check(
        problems,
        index,
        "execute-replay firings",
        &(udb.stats().firings - ubefore),
        &r.firings(),
    );
    check(
        problems,
        index,
        "execute-replay rows",
        &served::row_counts(&udb),
        &r.live_rows,
    );
    Ok(())
}

fn run_in(args: &Args, dir: &std::path::Path) -> Result<Report, String> {
    let w = args.workload;
    let mut problems = Vec::new();
    let windows = ((args.seconds as u128 * 1000 / served::WINDOW.as_millis()) as usize
        / served::ROUNDS)
        .max(1);
    let mut replays = args.trace.then(|| Replays {
        tracer: replay::Tracer::new(),
        traced_wall: std::time::Duration::ZERO,
        untraced_wall: std::time::Duration::ZERO,
    });
    let mut rounds = Vec::with_capacity(served::ROUNDS);
    let cpus = affinity::cpus();
    // the peak of the first round: later rounds add only what the
    // allocator keeps from the engines of earlier ones
    let mut peak_rss = 0.0;
    for index in 0..served::ROUNDS {
        let r = round(args, index, windows, &cpus, dir, &mut problems)?;
        if index == 0 {
            peak_rss = peak_rss_mb()?;
        }
        if let Some(replays) = replays.as_mut() {
            replay_round(args, index, &r, replays, &mut problems)?;
        }
        rounds.push(r);
    }

    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>();
    let attempted = sum(&|r| r.attempted);
    let failed = sum(&|r| r.failed);
    let firings = sum(&|r| r.firings());
    let tokens = sum(&|r| r.tokens());
    let pnode_inserts = sum(&|r| r.pnode_inserts());
    let setup_times: Vec<_> = rounds.iter().map(|r| r.setup_time).collect();
    let recover_times: Vec<_> = rounds.iter().flat_map(|r| r.rec.times.clone()).collect();

    // the timed phase, over the windows the host disturbed least
    let all_windows: Vec<&served::Window> = rounds.iter().flat_map(|r| &r.windows).collect();
    let steal: Vec<u64> = rounds.iter().flat_map(|r| r.steal.clone()).collect();
    // the windows without steal, or the least-stolen eighth
    let kept_windows = served::undisturbed(&steal, 0.125);
    let mut timed = served::Window::new();
    for &i in &kept_windows {
        timed.merge(all_windows[i]);
    }
    let timed_secs = kept_windows.len() as f64 * served::WINDOW.as_secs_f64();
    eprintln!(
        "arielbench: {} seed={} rounds={} attempted={attempted} groups={} firings={firings} \
         tokens={tokens} pnode_inserts={pnode_inserts} tail={}",
        w.name(),
        args.seed,
        rounds.len(),
        sum(&|r| r.batches),
        sum(&|r| r.rec.tail_requests),
    );
    eprintln!(
        "arielbench: kept {} of {} windows of {} ms: cmd_samples={} query_samples={} \
         cmd_p99_us={:.1} query_p99_us={:.1}",
        kept_windows.len(),
        all_windows.len(),
        served::WINDOW.as_millis(),
        timed.cmd.count(),
        timed.query.count(),
        timed.cmd.quantile(0.99) / 1e3,
        timed.query.quantile(0.99) / 1e3,
    );
    eprintln!("arielbench: steal jiffies per window {steal:?}");
    let reps = |t: &[served::Timed]| {
        t.iter()
            .map(|r| format!("{:.1}ms/{}", r.time.as_secs_f64() * 1e3, r.steal))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("arielbench: set-ups and recoveries on CPUs {cpus:?} in turn");
    eprintln!("arielbench: set-ups (time/steal) {}", reps(&setup_times));
    eprintln!(
        "arielbench: recoveries (time/steal) {}",
        reps(&recover_times)
    );
    eprintln!(
        "arielbench: requests per window {:?}",
        all_windows.iter().map(|w| w.requests()).collect::<Vec<_>>()
    );

    let metrics = match replays {
        None => vec![
            metric(
                "throughput_rps",
                timed.requests() as f64 / timed_secs,
                "req/s",
            ),
            metric("cmd_p50_us", timed.cmd.quantile(0.50) / 1e3, "us"),
            metric("cmd_p90_us", timed.cmd.quantile(0.90) / 1e3, "us"),
            metric("query_p50_us", timed.query.quantile(0.50) / 1e3, "us"),
            metric("query_p90_us", timed.query.quantile(0.90) / 1e3, "us"),
            metric(
                "setup_s",
                served::per_cpu_median_s(&setup_times, cpus.len()),
                "s",
            ),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric(
                "recover_s",
                served::per_cpu_median_s(&recover_times, cpus.len()),
                "s",
            ),
        ],
        Some(replays) => {
            let spans_path =
                std::path::PathBuf::from(".bench_out").join(format!("spans-{}.tsv", w.name()));
            replays
                .tracer
                .write(&spans_path)
                .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
            per_layer(&rounds, &timed, &replays)
        }
    };
    Ok(Report {
        attempted,
        failed,
        problems,
        metrics,
    })
}

/// The per-layer metrics: self times per request from the traced
/// replays, counts as deltas over the served rounds.
fn per_layer(rounds: &[Round], timed: &served::Window, replays: &Replays) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let attempted = sum(&|r| r.attempted);
    let firings = sum(&|r| r.firings());
    let pnode_inserts = sum(&|r| r.pnode_inserts());
    let tracer = &replays.tracer;
    let reqs = f64::from(tracer.requests);
    let per_req_us = |span: usize| tracer.self_ns[span] as f64 / reqs / 1e3;
    let served_mean_us =
        (timed.cmd.sum() + timed.query.sum()) as f64 / timed.requests() as f64 / 1e3;
    let replay_mean_us = tracer.request_ns as f64 / reqs / 1e3;
    let d =
        |f: fn(&ariel::network::NetworkStats) -> u64| sum(&|r| f(&r.after.net) - f(&r.before.net));
    // the recovery tails' commands are the only ones logged
    let logged = sum(&|r| r.rec.tail_commands);
    let mut fsync_before = Vec::new();
    let mut fsync_after = Vec::new();
    for r in rounds {
        add_buckets(&mut fsync_before, &r.before.fsync_buckets);
        add_buckets(&mut fsync_after, &r.rec.after_tail.fsync_buckets);
    }
    let last = rounds.last().expect("at least one round");
    let heap_rows: usize = last.live_rows.iter().map(|(_, n)| n).sum();
    vec![
        metric("server.self_us", served_mean_us - replay_mean_us, "us"),
        metric(
            "server.requests_per_group",
            ratio(attempted, sum(&|r| r.batches)),
            "req/group",
        ),
        metric(
            "server.queue_high_water",
            rounds.iter().map(|r| r.queue_high_water).max().unwrap_or(0) as f64,
            "req",
        ),
        metric("query.parse_us", per_req_us(replay::PARSE), "us"),
        metric("query.resolve_us", per_req_us(replay::RESOLVE), "us"),
        metric("query.plan_us", per_req_us(replay::PLAN), "us"),
        metric("query.exec_us", per_req_us(replay::EXEC), "us"),
        metric("ariel.delta_us", per_req_us(replay::DELTA), "us"),
        metric("ariel.recognize_act_us", per_req_us(replay::RULES), "us"),
        metric("ariel.firings_per_req", ratio(firings, attempted), "count"),
        metric(
            "ariel.tokens_per_req",
            ratio(sum(&|r| r.tokens()), attempted),
            "count",
        ),
        metric(
            "ariel.rows_per_firing",
            ratio(pnode_inserts, firings),
            "rows",
        ),
        metric("network.match_us", per_req_us(replay::MATCH), "us"),
        metric(
            "network.alpha_pass_ratio",
            ratio(d(|n| n.alpha_passes), d(|n| n.alpha_tests)),
            "ratio",
        ),
        metric(
            "network.join_probes_per_token",
            ratio(d(|n| n.join_probes), d(|n| n.tokens_processed)),
            "count",
        ),
        metric(
            "network.join_candidates_per_token",
            ratio(
                d(|n| n.stored_join_candidates + n.virtual_join_candidates),
                d(|n| n.tokens_processed),
            ),
            "count",
        ),
        metric(
            "network.index_misses_per_token",
            ratio(
                d(|n| n.index_probes - n.index_hits),
                d(|n| n.tokens_processed),
            ),
            "count",
        ),
        metric(
            "network.pnode_inserts_per_req",
            ratio(pnode_inserts, attempted),
            "count",
        ),
        metric(
            "network.alpha_bytes",
            last.after.net.alpha_bytes as f64,
            "bytes",
        ),
        metric(
            "islist.nodes_per_stab",
            ratio(d(|n| n.islist_nodes_visited), d(|n| n.islist_stabs)),
            "count",
        ),
        metric(
            "islist.candidates_per_probe",
            ratio(d(|n| n.selnet_candidates), d(|n| n.selnet_probes)),
            "count",
        ),
        metric(
            "storage.wal_bytes_per_cmd",
            ratio(
                sum(&|r| r.rec.after_tail.wal_bytes - r.before.wal_bytes),
                logged,
            ),
            "bytes",
        ),
        metric(
            "storage.fsyncs_per_cmd",
            ratio(sum(&|r| r.rec.after_tail.fsyncs - r.before.fsyncs), logged),
            "count",
        ),
        metric(
            "storage.fsync_p50_us",
            hist_p50_ns(&fsync_before, &fsync_after) / 1e3,
            "us",
        ),
        metric("storage.heap_rows", heap_rows as f64, "rows"),
        metric("trace.unattributed_us", per_req_us(replay::REQUEST), "us"),
        metric(
            "trace.overhead_ratio",
            ratio(
                replays.traced_wall.as_secs_f64(),
                replays.untraced_wall.as_secs_f64(),
            ),
            "ratio",
        ),
    ]
}

/// Add histogram `b` into `a` bucket by bucket.
fn add_buckets(a: &mut Vec<u64>, b: &[u64]) {
    a.resize(a.len().max(b.len()), 0);
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

fn check<T: PartialEq + std::fmt::Debug>(
    problems: &mut Vec<String>,
    round: usize,
    what: &str,
    got: &T,
    want: &T,
) {
    if got != want {
        problems.push(format!(
            "round {round}: {what}: got {got:?}, expected {want:?}"
        ));
    }
}

/// `num / den`; NaN when `den` is 0, which fails the run (see `main`)
/// rather than passing 0/0 off as a measured 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// Median of the samples recorded between two snapshots of a log₂
/// histogram, interpolated linearly inside its bucket (bucket `i` holds
/// values in `[2^(i-1), 2^i)`).
fn hist_p50_ns(before: &[u64], after: &[u64]) -> f64 {
    let counts: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = total as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && seen + c as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let hi = (1u64 << i.min(63)) as f64;
            return lo + (hi - lo) * (rank - seen) / c as f64;
        }
        seen += c as f64;
    }
    0.0
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
