//! Leak-free shutdown: after a client-initiated shutdown, no server thread
//! outlives `ServerHandle::join` and the port is released.
//!
//! The check counts every thread of the process (`/proc/self/task`), so it
//! lives in a test binary of its own: beside other tests that start and
//! stop servers, their threads would change the count under it.

use ariel::{Ariel, EngineOptions};
use ariel_server::protocol::{encode_hello_client, read_frame, write_frame, Opcode};
use ariel_server::{Client, Server, ServerHandle, ServerOptions};
use std::net::{SocketAddr, TcpStream};

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

/// Count live threads in this process via /proc (linux-only, which is
/// where CI runs; elsewhere fall back to a constant so the assertion
/// trivially holds).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}
