//! The server: accept loop, per-connection reader threads, and one engine
//! thread that owns the [`Ariel`] and runs every session's requests with
//! per-transition write batching.
//!
//! ## Threading model
//!
//! ```text
//! accept thread ──spawns──> reader (1 per connection, blocking I/O)
//!                               │ parse frame + script, enqueue Entry
//!                               ▼
//!                        request queue (FIFO, Mutex + Condvar)
//!                               │ pop; pop further *consecutive*
//!                               │ append-only entries → one group
//!                               ▼
//!                  engine thread (the caller of Server::run)
//!                               │ owns the Ariel: group → ONE transition
//!                               ▼
//!                        reply channel → reader writes the result frame
//! ```
//!
//! Readers own their socket for both directions, so no frame is ever
//! interleaved at the byte level and a session's replies are in request
//! order (a reader does not read the next frame until the previous reply
//! is on the wire — clients may still pipeline; extra frames just wait in
//! the kernel buffer). The engine thread never touches a socket, so it
//! never waits on a blocking network write. Metrics requests (the
//! `metrics` and `metrics-prom` frames and the `GET /metrics` shim) are
//! queue entries too: readers never touch the engine.
//!
//! A reader checks the shutdown flag and pushes its entry under the queue
//! lock, and the engine thread exits only when it finds the queue empty
//! with the flag set, under the same lock — so every queued entry gets a
//! reply.
//!
//! ## Write batching
//!
//! An entry whose commands are all plain `append`s is *batchable*. The
//! engine thread, having popped one, keeps popping while the queue front
//! stays batchable, up to [`ariel::EngineOptions::serve_batch`] commands,
//! and runs the whole group through [`Ariel::execute_transition`] — one
//! Δ-set and one recognize-act cycle. Each session is acked with its own
//! change counts. Two semantic consequences, both documented in
//! `docs/SERVER.md`: a batched group forms a single logical-event
//! transition (concurrent clients' appends may merge net effects), and a
//! notification raised by a batched transition is delivered to every
//! session in the group. If a grouped transition fails, the group is
//! re-run entry by entry so one session's bad command cannot poison
//! another session's good one.

use crate::protocol::{
    decode_hello_client, encode_error, encode_hello_server, encode_result_frame, write_frame,
    ErrorCode, Opcode, ResultBody, Table, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::telemetry::{opcode_label, LogLevel, Logger, Telemetry};
use ariel::query::{parse_command, parse_script, CmdOutput, Command};
use ariel::storage::Value;
use ariel::Ariel;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a blocked read/accept waits before re-checking the shutdown
/// flag. Purely a shutdown-latency bound — frames are handled the moment
/// they arrive, because every connection has a dedicated reader.
const POLL_QUANTUM: Duration = Duration::from_millis(25);

/// Bound on a reply write to a stalled client; past it the session is
/// dropped so a dead peer cannot wedge its reader thread forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Server configuration (the engine's own knobs live in
/// [`ariel::EngineOptions`]).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Record per-opcode/per-session latency telemetry and the slow log
    /// (default `true`; off means no clock reads on the request path).
    pub telemetry: bool,
    /// Slow-command log capacity (the N slowest commands kept).
    pub slow_capacity: usize,
    /// Slow-command threshold in nanoseconds (0 = every command
    /// competes for a slow-log slot, but nothing is *logged* as slow).
    pub slow_threshold_ns: u64,
    /// Structured-logging verbosity (`--log-level`); default off.
    pub log_level: LogLevel,
    /// Structured-logging destination (`--log-file`); `None` = stderr.
    pub log_file: Option<std::path::PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            telemetry: true,
            slow_capacity: 32,
            slow_threshold_ns: 0,
            log_level: LogLevel::Off,
            log_file: None,
        }
    }
}

/// Buckets of the batch-size histogram: group sizes (in *entries*) of
/// 1, 2, 3–4, 5–8, 9–16 and 17+.
pub const BATCH_BUCKETS: usize = 6;

/// Counters the server accumulates while running; snapshot via
/// [`Server::run`]'s return value or the `metrics` frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions accepted over the server's lifetime.
    pub sessions: u64,
    /// `command` frames answered (with `result` or engine `error`).
    pub commands: u64,
    /// `query` frames answered.
    pub queries: u64,
    /// Engine-level errors returned (session kept).
    pub engine_errors: u64,
    /// Protocol violations (connection closed).
    pub protocol_errors: u64,
    /// Accepted connections closed at once because no reader thread
    /// could be spawned for them.
    pub rejected_sessions: u64,
    /// Combined transitions executed (groups, including size-1 groups).
    pub batches: u64,
    /// Requests that rode in a group of ≥ 2 (cross-session coalescing).
    pub batched_requests: u64,
    /// Largest group executed, in entries.
    pub max_batch: u64,
    /// Histogram over group sizes; see [`BATCH_BUCKETS`].
    pub batch_hist: [u64; BATCH_BUCKETS],
}

impl ServerStats {
    /// Render the server half of the `metrics` frame.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sessions\":{},\"commands\":{},\"queries\":{},\"engine_errors\":{},\
             \"protocol_errors\":{},\"rejected_sessions\":{},\"batches\":{},\
             \"batched_requests\":{},\"max_batch\":{},\"batch_hist\":[{}]}}",
            self.sessions,
            self.commands,
            self.queries,
            self.engine_errors,
            self.protocol_errors,
            self.rejected_sessions,
            self.batches,
            self.batched_requests,
            self.max_batch,
            self.batch_hist
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// Histogram bucket for a group of `n` entries.
fn bucket(n: usize) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Command,
    Query,
}

/// What a queue entry asks of the engine thread.
enum Job {
    /// A `command` or `query` frame's parsed commands.
    Run {
        cmds: Vec<Command>,
        /// All commands are plain `append`s — eligible for group
        /// coalescing.
        batchable: bool,
    },
    /// The `metrics` frame: server, telemetry and engine JSON.
    Metrics,
    /// The `metrics-prom` frame and the `GET /metrics` shim.
    MetricsProm,
}

/// A reply frame: opcode and payload.
type Reply = (Opcode, Vec<u8>);

/// One request waiting for the engine thread.
struct Entry {
    job: Job,
    reply: mpsc::Sender<Reply>,
}

impl Entry {
    /// The commands of a `Run` entry (none for a metrics entry).
    fn cmds(&self) -> &[Command] {
        match &self.job {
            Job::Run { cmds, .. } => cmds,
            Job::Metrics | Job::MetricsProm => &[],
        }
    }

    /// Command count of a batchable entry; `None` for anything that must
    /// run on its own.
    fn batch_len(&self) -> Option<usize> {
        match &self.job {
            Job::Run {
                cmds,
                batchable: true,
            } => Some(cmds.len()),
            _ => None,
        }
    }
}

#[derive(Default)]
struct Queue {
    entries: VecDeque<Entry>,
}

struct Shared {
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    /// Set only while holding `queue`, so a reader's check-and-push and
    /// the engine thread's empty-and-exit check cannot interleave.
    shutdown: AtomicBool,
    serve_batch: usize,
    next_session: AtomicU32,
    sessions: AtomicU64,
    commands: AtomicU64,
    queries: AtomicU64,
    engine_errors: AtomicU64,
    protocol_errors: AtomicU64,
    rejected_sessions: AtomicU64,
    telemetry: Telemetry,
    logger: Logger,
}

/// Group counters, kept by the engine thread.
#[derive(Default)]
struct BatchStats {
    batches: u64,
    batched_requests: u64,
    max_batch: u64,
    hist: [u64; BATCH_BUCKETS],
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn shutting_down_frame() -> Reply {
    (
        Opcode::Error,
        encode_error(ErrorCode::ShuttingDown, "server is shutting down"),
    )
}

impl Shared {
    fn stats(&self, b: &BatchStats) -> ServerStats {
        ServerStats {
            sessions: self.sessions.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            engine_errors: self.engine_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            rejected_sessions: self.rejected_sessions.load(Ordering::Relaxed),
            batches: b.batches,
            batched_requests: b.batched_requests,
            max_batch: b.max_batch,
            batch_hist: b.hist,
        }
    }

    fn request_shutdown(&self) {
        {
            let _queue = lock(&self.queue);
            self.shutdown.store(true, Ordering::SeqCst);
        }
        self.queue_cv.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Queue `job` for the engine thread and wait for its reply; `None`
    /// once shutdown has begun. The engine thread answers every entry it
    /// pops and exits only on an empty queue, so the wait always ends.
    fn ask(&self, job: Job, tx: &mpsc::Sender<Reply>, rx: &mpsc::Receiver<Reply>) -> Option<Reply> {
        {
            let mut q = lock(&self.queue);
            if self.shutting_down() {
                return None;
            }
            q.entries.push_back(Entry {
                job,
                reply: tx.clone(),
            });
            self.telemetry.queue_push();
        }
        self.queue_cv.notify_one();
        rx.recv().ok()
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread until shutdown; [`Server::spawn`] runs it on a background
/// thread and returns a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine: Ariel,
}

/// A failed [`Server::bind`]. Carries the engine back out so a bind
/// failure (port in use, bad address) never costs the caller its
/// database — the REPL's `\serve` relies on this to keep its state.
pub struct BindError {
    /// The underlying socket error.
    pub source: std::io::Error,
    /// The engine handed to [`Server::bind`], returned unharmed
    /// (boxed: the engine is large and this is the cold path).
    pub engine: Box<Ariel>,
}

impl std::fmt::Debug for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BindError")
            .field("source", &self.source)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot bind: {}", self.source)
    }
}

impl std::error::Error for BindError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and wrap `engine`.
    /// The engine's [`ariel::EngineOptions::serve_batch`] sets the coalescing
    /// bound. On failure the engine rides back in the error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Ariel,
        options: ServerOptions,
    ) -> Result<Server, BindError> {
        let listener = match TcpListener::bind(addr).and_then(|l| {
            let addr = l.local_addr()?;
            Ok((l, addr))
        }) {
            Ok(pair) => pair,
            Err(source) => {
                return Err(BindError {
                    source,
                    engine: Box::new(engine),
                })
            }
        };
        let (listener, addr) = listener;
        let logger = match (&options.log_file, options.log_level) {
            (_, LogLevel::Off) => Logger::off(),
            (Some(path), level) => match Logger::file(level, path) {
                Ok(l) => l,
                Err(source) => {
                    return Err(BindError {
                        source,
                        engine: Box::new(engine),
                    })
                }
            },
            (None, level) => Logger::stderr(level),
        };
        let telemetry = Telemetry::new(
            options.telemetry,
            options.slow_capacity,
            options.slow_threshold_ns,
        );
        let serve_batch = engine.options().serve_batch.max(1);
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue::default()),
                queue_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                serve_batch,
                next_session: AtomicU32::new(1),
                sessions: AtomicU64::new(0),
                commands: AtomicU64::new(0),
                queries: AtomicU64::new(0),
                engine_errors: AtomicU64::new(0),
                protocol_errors: AtomicU64::new(0),
                rejected_sessions: AtomicU64::new(0),
                telemetry,
                logger,
            }),
            engine,
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a client sends `shutdown` (or a handle requests it).
    /// The calling thread becomes the engine thread. Returns the
    /// accumulated stats and the engine, whose state survives the server
    /// — `\serve` hands the REPL database to a server and gets it back
    /// when the server stops.
    pub fn run(self) -> (ServerStats, Ariel) {
        let Server {
            listener,
            shared,
            mut engine,
            ..
        } = self;
        listener
            .set_nonblocking(true)
            .expect("listener nonblocking");
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ariel-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        let batch = engine_loop(&shared, &mut engine);
        for r in accept.join().unwrap_or_default() {
            let _ = r.join();
        }
        (shared.stats(&batch), engine)
    }

    /// Run on a background thread; the handle can stop the server and
    /// collect its stats (and engine) without a client connection.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let join = std::thread::Builder::new()
            .name("ariel-server".into())
            .spawn(move || self.run())
            .expect("spawn server thread");
        ServerHandle { addr, shared, join }
    }
}

/// Handle to a [`Server::spawn`]ed server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: std::thread::JoinHandle<(ServerStats, Ariel)>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and join every server thread. Returns the final
    /// stats and the engine.
    pub fn shutdown(self) -> (ServerStats, Ariel) {
        self.shared.request_shutdown();
        self.join.join().expect("server thread panicked")
    }

    /// Wait for a client-initiated shutdown.
    pub fn join(self) -> (ServerStats, Ariel) {
        self.join.join().expect("server thread panicked")
    }
}

// ----- accept --------------------------------------------------------------

/// Accept sessions until shutdown; returns the readers still unjoined.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutting_down() {
            return readers;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // an exited but unjoined thread keeps its stack mapped, so
                // session churn (every `GET /metrics` scrape is one) would
                // grow memory without bound
                let (done, live): (Vec<_>, Vec<_>) =
                    readers.into_iter().partition(JoinHandle::is_finished);
                readers = live;
                for r in done {
                    let _ = r.join();
                }
                let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
                shared.sessions.fetch_add(1, Ordering::Relaxed);
                let session_shared = Arc::clone(shared);
                // on failure the closure, and with it the stream, is
                // dropped: the connection closes
                match std::thread::Builder::new()
                    .name(format!("ariel-session-{id}"))
                    .spawn(move || reader_loop(stream, id, &session_shared))
                {
                    Ok(handle) => readers.push(handle),
                    Err(e) => {
                        shared.rejected_sessions.fetch_add(1, Ordering::Relaxed);
                        shared.logger.log(
                            LogLevel::Error,
                            "reject",
                            format_args!("session={id} error={e:?}"),
                        );
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

// ----- reader (one per session) -------------------------------------------

/// Outcome of reading one frame off a session socket.
enum ReadOutcome {
    Frame(Opcode, Vec<u8>),
    /// Peer closed at a frame boundary.
    Closed,
    /// Server is shutting down (noticed at an idle poll tick).
    Shutdown,
    /// Protocol violation; the message is sent back before closing.
    Violation(String),
    /// Unrecoverable socket error.
    Io,
}

/// Read exactly `buf.len()` bytes, tolerating poll-quantum timeouts
/// (re-checking the shutdown flag at each) without ever losing bytes —
/// unlike `read_exact`, a timeout here resumes where it left off.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shared: &Shared) -> Result<bool, ReadOutcome> {
    let mut off = 0;
    while off < buf.len() {
        match stream.read(&mut buf[off..]) {
            Ok(0) => {
                return Err(if off == 0 {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Violation("truncated frame".into())
                });
            }
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down() {
                    return Err(ReadOutcome::Shutdown);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ReadOutcome::Io),
        }
    }
    Ok(true)
}

fn read_session_frame(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    let mut len_buf = [0u8; 4];
    if let Err(out) = read_full(stream, &mut len_buf, shared) {
        return out;
    }
    read_frame_body(stream, u32::from_be_bytes(len_buf), shared)
}

/// Read the rest of a frame whose 4-byte length prefix is already in hand
/// (the handshake reads the prefix itself so it can sniff `GET ` first).
fn read_frame_body(stream: &mut TcpStream, len: u32, shared: &Shared) -> ReadOutcome {
    if len == 0 {
        return ReadOutcome::Violation("zero-length frame".into());
    }
    if len > MAX_FRAME_LEN {
        return ReadOutcome::Violation(format!(
            "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
        ));
    }
    let mut body = vec![0u8; len as usize];
    if let Err(out) = read_full(stream, &mut body, shared) {
        return out;
    }
    let Some(opcode) = Opcode::from_u8(body[0]) else {
        return ReadOutcome::Violation(format!("unknown opcode 0x{:02x}", body[0]));
    };
    body.remove(0);
    ReadOutcome::Frame(opcode, body)
}

fn send(stream: &mut TcpStream, opcode: Opcode, payload: &[u8]) -> bool {
    write_frame(stream, opcode, payload).is_ok()
}

fn protocol_error(stream: &mut TcpStream, shared: &Shared, msg: &str) {
    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let _ = send(
        stream,
        Opcode::Error,
        &encode_error(ErrorCode::Protocol, msg),
    );
    // connection closes when the reader returns
}

fn reader_loop(stream: TcpStream, session: u32, shared: &Arc<Shared>) {
    let hello_done = reader_session(stream, session, shared);
    if hello_done {
        shared.logger.log(
            LogLevel::Info,
            "disconnect",
            format_args!("session={session}"),
        );
    }
}

/// Drive one session to completion. Returns whether the handshake
/// completed (so the wrapper logs `disconnect` only for real sessions).
fn reader_session(mut stream: TcpStream, session: u32, shared: &Arc<Shared>) -> bool {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_QUANTUM));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));

    // handshake: the first frame must be a hello with our version — but
    // sniff the first 4 bytes first: an HTTP `GET ` (0x47455420, far past
    // MAX_FRAME_LEN as a length prefix) is the Prometheus scrape shim
    let mut len_buf = [0u8; 4];
    if let Err(out) = read_full(&mut stream, &mut len_buf, shared) {
        if let ReadOutcome::Violation(msg) = out {
            protocol_error(&mut stream, shared, &msg);
        }
        return false;
    }
    if &len_buf == b"GET " {
        serve_http_metrics(&mut stream, session, shared);
        return false;
    }
    match read_frame_body(&mut stream, u32::from_be_bytes(len_buf), shared) {
        ReadOutcome::Frame(Opcode::Hello, payload) => match decode_hello_client(&payload) {
            Ok(v) if v == PROTOCOL_VERSION => {
                if !send(&mut stream, Opcode::Hello, &encode_hello_server(session)) {
                    return false;
                }
            }
            Ok(v) => {
                protocol_error(
                    &mut stream,
                    shared,
                    &format!(
                        "protocol version {v} not supported (server speaks {PROTOCOL_VERSION})"
                    ),
                );
                return false;
            }
            Err(e) => {
                protocol_error(&mut stream, shared, &e.to_string());
                return false;
            }
        },
        ReadOutcome::Frame(_, _) => {
            protocol_error(&mut stream, shared, "expected hello as first frame");
            return false;
        }
        ReadOutcome::Violation(msg) => {
            protocol_error(&mut stream, shared, &msg);
            return false;
        }
        ReadOutcome::Closed | ReadOutcome::Shutdown | ReadOutcome::Io => return false,
    }
    if shared.logger.enabled(LogLevel::Info) {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        shared.logger.log(
            LogLevel::Info,
            "connect",
            format_args!("session={session} peer={peer}"),
        );
    }

    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let shutting_down = |stream: &mut TcpStream| {
        let (op, body) = shutting_down_frame();
        let _ = send(stream, op, &body);
        true
    };
    loop {
        match read_session_frame(&mut stream, shared) {
            ReadOutcome::Frame(opcode, payload) => {
                if shared.shutting_down() {
                    return shutting_down(&mut stream);
                }
                match opcode {
                    Opcode::Command | Opcode::Query => {
                        let src = match String::from_utf8(payload) {
                            Ok(s) => s,
                            Err(_) => {
                                protocol_error(&mut stream, shared, "non-UTF-8 source");
                                return true;
                            }
                        };
                        // latency bracket: enqueue → reply on the wire
                        let t0 = shared.telemetry.start();
                        let kind = if opcode == Opcode::Command {
                            shared.commands.fetch_add(1, Ordering::Relaxed);
                            ReqKind::Command
                        } else {
                            shared.queries.fetch_add(1, Ordering::Relaxed);
                            ReqKind::Query
                        };
                        match parse_request(kind, &src) {
                            Ok(cmds) => {
                                let batchable = !cmds.is_empty()
                                    && cmds.iter().all(|c| matches!(c, Command::Append { .. }));
                                // wait for the engine thread's reply, then put
                                // it on the wire before reading the next frame
                                let job = Job::Run { cmds, batchable };
                                let Some((op, body)) = shared.ask(job, &reply_tx, &reply_rx) else {
                                    return shutting_down(&mut stream);
                                };
                                if !send(&mut stream, op, &body) {
                                    return true;
                                }
                                finish_request(shared, opcode, session, t0, &src);
                            }
                            Err(msg) => {
                                shared.engine_errors.fetch_add(1, Ordering::Relaxed);
                                if !send(
                                    &mut stream,
                                    Opcode::Error,
                                    &encode_error(ErrorCode::Engine, &msg),
                                ) {
                                    return true;
                                }
                                finish_request(shared, opcode, session, t0, &src);
                            }
                        }
                    }
                    Opcode::Metrics | Opcode::MetricsProm => {
                        shared.telemetry.count(opcode, session);
                        let job = if opcode == Opcode::Metrics {
                            Job::Metrics
                        } else {
                            Job::MetricsProm
                        };
                        let Some((op, body)) = shared.ask(job, &reply_tx, &reply_rx) else {
                            return shutting_down(&mut stream);
                        };
                        if !send(&mut stream, op, &body) {
                            return true;
                        }
                    }
                    Opcode::Shutdown => {
                        shared.telemetry.count(Opcode::Shutdown, session);
                        shared.logger.log(
                            LogLevel::Info,
                            "shutdown",
                            format_args!("session={session}"),
                        );
                        let _ = send(&mut stream, Opcode::Result, &ResultBody::default().encode());
                        shared.request_shutdown();
                        return true;
                    }
                    Opcode::Hello => {
                        protocol_error(&mut stream, shared, "duplicate hello");
                        return true;
                    }
                    Opcode::Result | Opcode::Error => {
                        protocol_error(
                            &mut stream,
                            shared,
                            "result/error frames are server-to-client only",
                        );
                        return true;
                    }
                }
            }
            ReadOutcome::Violation(msg) => {
                protocol_error(&mut stream, shared, &msg);
                return true;
            }
            ReadOutcome::Closed | ReadOutcome::Shutdown | ReadOutcome::Io => return true,
        }
    }
}

/// Record an answered request's latency and, when past the slow-log
/// threshold, log it.
fn finish_request(shared: &Shared, opcode: Opcode, session: u32, t0: Option<Instant>, src: &str) {
    let dur_ns = shared.telemetry.observe(opcode, session, t0, src);
    let threshold = shared.telemetry.slow.threshold_ns();
    if threshold > 0 && dur_ns >= threshold && shared.logger.enabled(LogLevel::Info) {
        let head: String = src.chars().take(crate::telemetry::SLOW_TEXT_CAP).collect();
        shared.logger.log(
            LogLevel::Info,
            "slow_command",
            format_args!(
                "session={session} opcode={} dur_ns={dur_ns} src={head:?}",
                opcode_label(opcode)
            ),
        );
    }
}

/// The `GET /metrics` shim: a fresh connection that starts with `GET `
/// instead of a frame length gets one Prometheus text-exposition response
/// and is closed — enough for `curl` or a Prometheus scrape job, with no
/// HTTP stack. The request head is drained (bounded) and ignored: every
/// path serves the metrics document.
fn serve_http_metrics(stream: &mut TcpStream, session: u32, shared: &Shared) {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    let mut idle_polls = 0u32;
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8192 || idle_polls > 80 {
            return; // oversized or stalled request head: just close
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down() {
                    return;
                }
                idle_polls += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    shared.logger.log(
        LogLevel::Info,
        "http_metrics",
        format_args!("session={session}"),
    );
    let (tx, rx) = mpsc::channel();
    let Some((_, body)) = shared.ask(Job::MetricsProm, &tx, &rx) else {
        return; // shutting down: just close
    };
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(&body));
}

/// The full Prometheus exposition: server request counters, batch-size
/// distribution, telemetry families, then the engine's own families.
fn render_prometheus_all(shared: &Shared, batch: &BatchStats, engine: &Ariel) -> String {
    use ariel::obs::{write_prom_family, write_prom_metric, write_prom_sample};
    let mut out = String::new();
    let stats = shared.stats(batch);
    write_prom_metric(
        &mut out,
        "ariel_server_sessions_total",
        "counter",
        "Sessions accepted over the server's lifetime.",
        stats.sessions,
    );
    write_prom_metric(
        &mut out,
        "ariel_server_commands_total",
        "counter",
        "Command frames answered.",
        stats.commands,
    );
    write_prom_metric(
        &mut out,
        "ariel_server_queries_total",
        "counter",
        "Query frames answered.",
        stats.queries,
    );
    write_prom_metric(
        &mut out,
        "ariel_server_engine_errors_total",
        "counter",
        "Engine-level errors returned (session kept).",
        stats.engine_errors,
    );
    write_prom_metric(
        &mut out,
        "ariel_server_protocol_errors_total",
        "counter",
        "Protocol violations (connection closed).",
        stats.protocol_errors,
    );
    write_prom_metric(
        &mut out,
        "ariel_server_rejected_sessions_total",
        "counter",
        "Connections closed at once because no reader thread could be spawned.",
        stats.rejected_sessions,
    );
    write_prom_metric(
        &mut out,
        "ariel_server_batches_total",
        "counter",
        "Combined transitions executed (groups, including size-1 groups).",
        stats.batches,
    );
    write_prom_metric(
        &mut out,
        "ariel_server_batched_requests_total",
        "counter",
        "Requests that rode in a group of 2 or more.",
        stats.batched_requests,
    );
    write_prom_metric(
        &mut out,
        "ariel_server_max_batch_entries",
        "gauge",
        "Largest group executed, in entries.",
        stats.max_batch,
    );
    write_prom_family(
        &mut out,
        "ariel_server_batch_groups_total",
        "counter",
        "Executed groups by size bucket (entries per group).",
    );
    for (label, count) in ["1", "2", "3-4", "5-8", "9-16", "17+"]
        .iter()
        .zip(stats.batch_hist.iter())
    {
        write_prom_sample(
            &mut out,
            "ariel_server_batch_groups_total",
            &format!("size=\"{label}\""),
            *count,
        );
    }
    shared.telemetry.render_prometheus(&mut out);
    out.push_str(&engine.metrics_prometheus());
    out
}

fn parse_request(kind: ReqKind, src: &str) -> Result<Vec<Command>, String> {
    match kind {
        ReqKind::Command => parse_script(src).map_err(|e| e.to_string()),
        ReqKind::Query => match parse_command(src) {
            Ok(cmd @ Command::Retrieve { .. }) => Ok(vec![cmd]),
            Ok(other) => Err(format!(
                "a query frame must be a `retrieve`, found `{}`",
                other.kind_name()
            )),
            Err(e) => Err(e.to_string()),
        },
    }
}

// ----- engine thread --------------------------------------------------------

/// Answer queue entries until shutdown; returns the group counters.
fn engine_loop(shared: &Shared, engine: &mut Ariel) -> BatchStats {
    let mut batch = BatchStats::default();
    loop {
        let group = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(first) = q.entries.pop_front() {
                    let mut group = vec![first];
                    // coalesce while the queue front stays batchable,
                    // bounded by serve_batch *commands*
                    if let Some(mut cmds) = group[0].batch_len() {
                        while let Some(n) = q.entries.front().and_then(Entry::batch_len) {
                            if cmds + n > shared.serve_batch {
                                break;
                            }
                            cmds += n;
                            group.push(q.entries.pop_front().expect("front checked"));
                        }
                    }
                    break group;
                }
                // empty and shutting down, under the lock readers push with
                if shared.shutting_down() {
                    return batch;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.telemetry.queue_pop(group.len() as u64);
        match group[0].job {
            Job::Metrics => {
                let json = format!(
                    "{{\"server\":{},\"telemetry\":{},\"engine\":{}}}",
                    shared.stats(&batch).to_json(),
                    shared.telemetry.to_json(),
                    engine.metrics_json()
                );
                let _ = group[0].reply.send((Opcode::Metrics, json.into_bytes()));
            }
            Job::MetricsProm => {
                let text = render_prometheus_all(shared, &batch, engine);
                let _ = group[0]
                    .reply
                    .send((Opcode::MetricsProm, text.into_bytes()));
            }
            // drain: answer queued work with a shutting-down error rather
            // than mutating the engine while it is being torn down
            Job::Run { .. } if shared.shutting_down() => {
                for entry in &group {
                    let _ = entry.reply.send(shutting_down_frame());
                }
            }
            Job::Run { .. } => execute_group(shared, &mut batch, engine, &group),
        }
    }
}

/// Run one popped group: a single combined transition for a batch, or the
/// entry's own commands otherwise, and send each entry its reply.
fn execute_group(shared: &Shared, b: &mut BatchStats, engine: &mut Ariel, group: &[Entry]) {
    b.batches += 1;
    b.hist[bucket(group.len())] += 1;
    b.max_batch = b.max_batch.max(group.len() as u64);
    if group.len() > 1 {
        b.batched_requests += group.len() as u64;
        // all batchable: one transition over the concatenated appends
        let all: Vec<Command> = group
            .iter()
            .flat_map(|e| e.cmds().iter().cloned())
            .collect();
        shared.logger.log(
            LogLevel::Debug,
            "coalesce",
            format_args!("entries={} commands={}", group.len(), all.len()),
        );
        match engine.execute_transition(&all) {
            Ok(outputs) => {
                // notifications raised by the combined transition go to
                // every session in the group (see module docs)
                let notes = render_notes(engine.drain_notifications());
                let mut off = 0;
                let mut replies = Vec::with_capacity(group.len());
                for entry in group {
                    let n = entry.cmds().len();
                    let mut body = merge_outputs(&outputs[off..off + n]);
                    off += n;
                    body.notes.extend(notes.iter().cloned());
                    replies.push((entry, Ok(body)));
                }
                deliver(shared, replies);
            }
            Err(_) => {
                // one bad append must not fail the others: re-run each
                // entry as its own transition
                let mut replies = Vec::with_capacity(group.len());
                for entry in group {
                    let r = engine
                        .execute_transition(entry.cmds())
                        .map(|outs| {
                            let mut body = merge_outputs(&outs);
                            body.notes = render_notes(engine.drain_notifications());
                            body
                        })
                        .map_err(|e| e.to_string());
                    replies.push((entry, r));
                }
                deliver(shared, replies);
            }
        }
    } else {
        let entry = &group[0];
        let r = execute_entry(engine, entry).map(|mut body| {
            body.notes = render_notes(engine.drain_notifications());
            body
        });
        deliver(shared, vec![(entry, r)]);
    }
}

/// Execute a single entry: an append-only frame runs as one transition
/// (the batcher's unit, `do…end` semantics); anything else runs command
/// by command exactly like the REPL.
fn execute_entry(engine: &mut Ariel, entry: &Entry) -> Result<ResultBody, String> {
    if entry.batch_len().is_some() {
        return engine
            .execute_transition(entry.cmds())
            .map(|outs| merge_outputs(&outs))
            .map_err(|e| e.to_string());
    }
    let mut outputs = Vec::with_capacity(entry.cmds().len());
    for cmd in entry.cmds() {
        outputs.push(engine.execute_command(cmd).map_err(|e| e.to_string())?);
    }
    Ok(merge_outputs(&outputs))
}

fn deliver(shared: &Shared, replies: Vec<(&Entry, Result<ResultBody, String>)>) {
    for (entry, result) in replies {
        let frame = match result {
            // downgrades to an `error` frame when the body exceeds the
            // frame cap, so the session survives an oversized retrieve
            Ok(body) => encode_result_frame(&body),
            Err(msg) => {
                shared.engine_errors.fetch_add(1, Ordering::Relaxed);
                (Opcode::Error, encode_error(ErrorCode::Engine, &msg))
            }
        };
        // a dead reader (killed client) just drops the reply; the engine
        // already committed, which is what the kill-mid-batch test checks
        let _ = entry.reply.send(frame);
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Sym(sym) => sym.as_str().to_string(),
        other => other.to_string(),
    }
}

fn render_table(columns: &[String], rows: &[Vec<Value>]) -> Table {
    Table {
        columns: columns.to_vec(),
        rows: rows
            .iter()
            .map(|r| r.iter().map(render_value).collect())
            .collect(),
    }
}

fn render_notes(notes: Vec<ariel::Notification>) -> Vec<(String, Table)> {
    notes
        .into_iter()
        .map(|n| (n.channel, render_table(&n.columns, &n.rows)))
        .collect()
}

/// Merge per-command outputs into one reply body (changes summed, last
/// result table wins — the REPL prints the same way).
fn merge_outputs(outputs: &[CmdOutput]) -> ResultBody {
    let mut body = ResultBody::default();
    for out in outputs {
        body.changes += out.changes.len() as u32;
        if !out.columns.is_empty() {
            body.table = render_table(&out.columns, &out.rows);
        }
        for n in &out.notifications {
            body.notes
                .push((n.channel.clone(), render_table(&n.columns, &n.rows)));
        }
    }
    body
}

// `Ariel` must move into the server's engine thread (`Server::spawn` moves
// the whole `Server`); this fails to compile if a non-`Send` type sneaks
// back into the engine.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Ariel>();
    assert_send::<Server>();
};
