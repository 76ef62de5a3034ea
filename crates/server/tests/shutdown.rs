//! Leak-free shutdown: after a client-initiated shutdown, no server thread
//! outlives `ServerHandle::join` and the port is released; a shutdown under
//! load always returns; and session churn does not grow memory.
//!
//! The checks read process-wide figures (`/proc/self/task`,
//! `/proc/self/status`), so they live in a test binary of their own: beside
//! other tests that start and stop servers, those threads would change the
//! figures under them. Within this binary the tests take [`SERIAL`] so they
//! do not overlap either.

use ariel::{Ariel, EngineOptions};
use ariel_server::protocol::{encode_hello_client, read_frame, write_frame, Opcode};
use ariel_server::{Client, Server, ServerHandle, ServerOptions};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh engine with a `kv` relation and an active rule mirroring large
/// values into `audit`, as in `server.rs`.
fn spawn_server(serve_batch: usize) -> (SocketAddr, ServerHandle) {
    let mut db = Ariel::with_options(EngineOptions {
        serve_batch,
        ..Default::default()
    });
    db.execute("create kv (k = int, v = int)").unwrap();
    db.execute("create audit (k = int, v = int)").unwrap();
    db.execute("define rule big if kv.v >= 100 then append to audit (k = kv.k, v = kv.v)")
        .unwrap();
    let server = Server::bind("127.0.0.1:0", db, ServerOptions::default()).unwrap();
    let addr = server.local_addr();
    (addr, server.spawn())
}

#[test]
fn client_initiated_shutdown_and_no_leaked_threads() {
    let _serial = serial();
    let (addr, handle) = spawn_server(64);
    let mut c = Client::connect(addr).unwrap();
    c.command("append kv (k = 1, v = 1)").unwrap();

    let before = thread_count();
    c.shutdown().unwrap();
    // join() returns only after every reader/executor/accept thread joined
    let (stats, _engine) = handle.join();
    assert_eq!(stats.sessions, 1);
    let after = thread_count();
    assert!(
        after <= before,
        "no threads outlive the server (before={before}, after={after})"
    );

    // the port is released
    assert!(
        TcpStream::connect(addr).is_err() || {
            // a racing TIME_WAIT accept is possible; a write must then fail
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, Opcode::Hello, &encode_hello_client()).is_err()
                || read_frame(&mut s).is_err()
        }
    );
}

/// Shut a server down while several clients keep sending, many times
/// over: every `shutdown()` must return. A request that a reader queues
/// while the engine thread is deciding to exit must still be answered, or
/// its reader waits forever and `run()` blocks joining it.
#[test]
fn shutdown_under_load_always_returns() {
    let _serial = serial();
    const CLIENTS: usize = 4;
    for round in 0..20 {
        let (addr, handle) = spawn_server(8);
        let (busy_tx, busy_rx) = mpsc::channel();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let busy_tx = busy_tx.clone();
                std::thread::spawn(move || {
                    let Ok(mut client) = Client::connect(addr) else {
                        let _ = busy_tx.send(());
                        return;
                    };
                    for i in 0.. {
                        if i == 3 {
                            let _ = busy_tx.send(());
                        }
                        let v = (c * 1000 + i) as i64;
                        if client
                            .command(&format!("append kv (k = {v}, v = {v})"))
                            .is_err()
                        {
                            break;
                        }
                    }
                })
            })
            .collect();
        // every client is mid-stream before the shutdown starts; one that
        // exits unsignalled fails the recv instead of hanging it
        drop(busy_tx);
        for _ in 0..CLIENTS {
            busy_rx.recv().expect("client signalled");
        }
        let (done_tx, done_rx) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            let _ = done_tx.send(handle.shutdown().0);
        });
        let stats = done_rx
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("round {round}: shutdown() did not return"));
        stopper.join().unwrap();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(stats.protocol_errors, 0, "round {round}");
    }
}

/// Opening and closing sessions one after another must not grow the
/// process: the accept loop joins the readers of finished sessions
/// instead of keeping every exited thread (and its stack mapping) until
/// shutdown.
#[test]
fn session_churn_does_not_grow_memory() {
    let _serial = serial();
    let (addr, handle) = spawn_server(64);
    let churn = |n: usize| {
        for _ in 0..n {
            let mut c = Client::connect(addr).unwrap();
            c.query("retrieve (kv.all)").unwrap();
        }
    };
    churn(20); // warm up allocator and thread-stack caches
    let before = vm_size_kb();
    churn(200);
    let after = vm_size_kb();
    let (stats, _engine) = handle.shutdown();
    assert_eq!(stats.sessions, 220);
    // a joined reader's stack is reused or unmapped; what may still
    // appear is a new malloc arena (64 MB of address space each) when two
    // readers briefly overlap. 200 unjoined readers hold over 400 MB.
    let growth_mb = after.saturating_sub(before) / 1024;
    assert!(
        growth_mb < 160,
        "200 closed sessions grew VmSize by {growth_mb} MB ({before} kB -> {after} kB)"
    );
}

/// This process's virtual size in kB, from /proc (0 where /proc is
/// absent, so the bound trivially holds).
fn vm_size_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmSize:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Count live threads in this process via /proc (linux-only, which is
/// where CI runs; elsewhere fall back to a constant so the assertion
/// trivially holds).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}
