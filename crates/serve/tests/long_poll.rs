//! Long-poll lease acquisition over HTTP: a worker parked in
//! `POST /leases` is answered as soon as a fleet job publishes its
//! chunks, not when its wait runs out, and engine shutdown releases a
//! parked request at once.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsp_serve::Json;
use fsp_serve::{Engine, EngineConfig, JobSpec, Server};

/// What every parked request asks for: the server's cap.
const WAIT_MS: u64 = 2000;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fsp-long-poll-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `POST /leases` for worker `w` with a long-poll wait; returns the reply.
fn acquire(addr: &str, wait_ms: u64) -> Json {
    let body = format!(r#"{{"worker": "w", "wait_ms": {wait_ms}}}"#);
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /leases HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("complete reply");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    Json::parse(body).expect("json reply")
}

fn start(tag: &str) -> (Arc<Engine>, fsp_serve::ServerHandle, std::path::PathBuf) {
    let dir = tmp_dir(tag);
    let engine = Arc::new(Engine::open(EngineConfig::new(&dir).job_workers(1)).expect("open"));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine))
        .and_then(Server::spawn)
        .expect("serve");
    (engine, handle, dir)
}

#[test]
fn parked_lease_request_is_granted_on_publish() {
    let (engine, handle, dir) = start("publish");
    let addr = handle.addr().to_string();
    let mut spec = JobSpec::sampled("lud_k46", 16);
    spec.seed = 11;

    let (reply, submitted, answered) = std::thread::scope(|scope| {
        let parked = scope.spawn(|| {
            let reply = acquire(&addr, WAIT_MS);
            (reply, Instant::now())
        });
        // Let the request reach the table and park on an empty fleet.
        std::thread::sleep(Duration::from_millis(100));
        let submitted = Instant::now();
        engine.submit_with(spec, true).expect("submit fleet job");
        let (reply, answered) = parked.join().expect("parked request");
        (reply, submitted, answered)
    });
    // The request parked before the submit; had it waited out its
    // 2 s, the reply would come ~1.9 s after the submit. Planning the
    // tiny job takes milliseconds, so a second is a generous bound.
    let latency = answered - submitted;
    assert!(
        reply.get("lease").and_then(Json::as_str).is_some(),
        "parked request must be granted: {reply}"
    );
    assert!(
        latency < Duration::from_secs(1),
        "granted {latency:?} after submit"
    );

    handle.stop();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_releases_a_parked_lease_request() {
    let (engine, handle, dir) = start("shutdown");
    let addr = handle.addr().to_string();
    let waited = std::thread::scope(|scope| {
        let parked = scope.spawn(|| {
            let start = Instant::now();
            let reply = acquire(&addr, WAIT_MS);
            (reply, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(100));
        engine.shutdown();
        parked.join().expect("parked request")
    });
    let (reply, waited) = waited;
    assert_eq!(reply.get("pending").and_then(Json::as_u64), Some(0));
    assert!(
        waited < Duration::from_millis(WAIT_MS - 500),
        "shutdown released the request after {waited:?}"
    );
    // After shutdown nothing parks: a new request is answered at once.
    let start = Instant::now();
    acquire(&addr, WAIT_MS);
    assert!(start.elapsed() < Duration::from_millis(WAIT_MS - 500));

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
