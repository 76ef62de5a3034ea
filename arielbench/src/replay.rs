//! In-process replays of a served run's request stream.
//!
//! The traced replay takes each request apart into the public calls the
//! engine makes for it, one span around each, so the per-layer times come
//! from the benchmark's own code and the program carries no
//! instrumentation. The untraced replay runs the same stream through
//! `Ariel::execute`/`query`; the ratio of the two is the tracing overhead.

use crate::served::execute_checked;
use crate::workload::{Kind, Request};
use ariel::query::{
    execute_with_plan, parse_command, parse_script, plan_command, Command, Resolver,
};
use ariel::{Ariel, DeltaTracker};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Span names: the request itself, then one per layer call.
pub const SPAN_NAMES: [&str; 8] = [
    "request", "parse", "resolve", "plan", "exec", "delta", "match", "rules",
];
pub const REQUEST: usize = 0;
pub const PARSE: usize = 1;
pub const RESOLVE: usize = 2;
pub const PLAN: usize = 3;
pub const EXEC: usize = 4;
pub const DELTA: usize = 5;
pub const MATCH: usize = 6;
pub const RULES: usize = 7;
const NO_PARENT: u32 = u32::MAX;

/// Spans of the first requests are kept for the written trace; the
/// per-layer sums cover every request.
pub const KEPT_REQUESTS: usize = 20_000;

/// One span; times are nanoseconds from the replay's start.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u8,
    pub request: u32,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// Records spans request by request: every span of a request is kept in
/// memory until the run ends for the first [`KEPT_REQUESTS`] requests,
/// and folded into per-name self-time sums for all of them. One tracer
/// serves every round of a run; request ids continue across rounds.
pub struct Tracer {
    epoch: Instant,
    /// Requests begun so far; the next request's id.
    pub requests: u32,
    /// The open request's spans; index 0 is its root.
    current: Vec<Span>,
    pub kept: Vec<Span>,
    /// Per span name: summed self time (duration minus the time its
    /// children cover), in nanoseconds.
    pub self_ns: [u64; SPAN_NAMES.len()],
    /// Summed duration of the root request spans, in nanoseconds.
    pub request_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            requests: 0,
            current: Vec::with_capacity(64),
            kept: Vec::with_capacity(KEPT_REQUESTS * 8),
            self_ns: [0; SPAN_NAMES.len()],
            request_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin_request(&mut self) {
        let request = self.requests;
        self.requests += 1;
        let start = self.now();
        self.current.clear();
        self.current.push(Span {
            name: REQUEST as u8,
            request,
            parent: NO_PARENT,
            start,
            end: start,
        });
    }

    /// Time `f` as a child of the open request's root span.
    fn span<T>(&mut self, name: usize, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let request = self.current[0].request;
        self.current.push(Span {
            name: name as u8,
            request,
            parent: 0,
            start,
            end,
        });
        out
    }

    fn end_request(&mut self) {
        let end = self.now();
        let root = &mut self.current[0];
        root.end = end;
        let total = root.end - root.start;
        let mut children = 0;
        for s in &self.current[1..] {
            children += s.end - s.start;
            self.self_ns[s.name as usize] += s.end - s.start;
        }
        self.self_ns[REQUEST] += total.saturating_sub(children);
        self.request_ns += total;
        if (self.current[0].request as usize) < KEPT_REQUESTS {
            self.kept.extend_from_slice(&self.current);
        }
    }

    /// Write the kept spans as tab-separated `request span name start_ns
    /// end_ns parent` lines. A span is numbered within its request, the
    /// root being 0; `parent` is the parent's number (`-` for the root).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tspan\tname\tstart_ns\tend_ns\tparent")?;
        let mut index = 0;
        for s in &self.kept {
            let parent = if s.parent == NO_PARENT {
                index = 0;
                "-".to_string()
            } else {
                index += 1;
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{index}\t{}\t{}\t{}\t{parent}",
                s.request, SPAN_NAMES[s.name as usize], s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Result of a traced replay.
pub struct Traced {
    pub wall: Duration,
    /// Tokens the replay pushed through the network (transition tokens
    /// plus those of rule actions, which `run_rules` counts).
    pub tokens: u64,
}

/// Replay `stream` on `db`, one span per layer call, into `tracer`.
/// Mirrors the engine's transition: each top-level command (a `do … end`
/// block counts as one) is one transition whose commands are resolved,
/// planned, executed, turned into tokens and matched in turn, followed by
/// one recognize-act cycle.
pub fn traced(db: &mut Ariel, stream: &[Request], tracer: &mut Tracer) -> Result<Traced, String> {
    let before = db.stats().tokens;
    let mut tokens = 0u64;
    let t0 = Instant::now();
    for req in stream {
        tracer.begin_request();
        let parsed = tracer.span(PARSE, || match req.kind {
            Kind::Command => parse_script(&req.text),
            Kind::Query => parse_command(&req.text).map(|c| vec![c]),
        });
        let cmds = parsed.map_err(|e| format!("`{}`: {e}", req.text))?;
        let mut changes = 0u32;
        let mut rows = 0usize;
        let mut first = None;
        for cmd in &cmds {
            let body = match cmd {
                Command::Block(inner) => inner.as_slice(),
                single => std::slice::from_ref(single),
            };
            let mut delta = DeltaTracker::new();
            for cmd in body {
                let rcmd = tracer
                    .span(RESOLVE, || Resolver::new(db.catalog()).resolve_command(cmd))
                    .map_err(|e| format!("`{}`: {e}", req.text))?;
                let plan = tracer
                    .span(PLAN, || plan_command(&rcmd, db.catalog(), None))
                    .map_err(|e| format!("`{}`: {e}", req.text))?;
                let out = tracer
                    .span(EXEC, || {
                        execute_with_plan(&rcmd, plan.as_ref(), db.catalog_mut(), None)
                    })
                    .map_err(|e| format!("`{}`: {e}", req.text))?;
                let toks = tracer.span(DELTA, || delta.tokens_for_all(&out.changes));
                tokens += toks.len() as u64;
                tracer
                    .span(MATCH, || db.match_tokens(&toks))
                    .map_err(|e| format!("`{}`: {e}", req.text))?;
                changes += out.changes.len() as u32;
                rows += out.rows.len();
                if first.is_none() {
                    first = out
                        .rows
                        .first()
                        .and_then(|r| r.first())
                        .map(|v| v.to_string());
                }
            }
            tracer
                .span(RULES, || db.run_rules())
                .map_err(|e| format!("`{}`: {e}", req.text))?;
        }
        tracer.end_request();
        req.expect
            .check(changes, rows, first.as_deref())
            .map_err(|e| format!("replay `{}`: {e}", req.text))?;
    }
    let wall = t0.elapsed();
    tokens += db.stats().tokens - before;
    Ok(Traced { wall, tokens })
}

/// Replay `stream` through the engine's own entry points, untraced.
pub fn untraced(db: &mut Ariel, stream: &[Request]) -> Result<Duration, String> {
    let t0 = Instant::now();
    for req in stream {
        execute_checked(db, req)?;
    }
    Ok(t0.elapsed())
}
