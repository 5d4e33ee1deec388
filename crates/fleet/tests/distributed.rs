//! End-to-end distributed determinism: a real coordinator (engine + HTTP
//! server) drained by two workers, one of which crashes holding a lease,
//! and an early-stopped job drained by two concurrent workers.
//!
//! This is the acceptance test for the fleet layer's core claim: the
//! result document is **byte-identical** to an in-process `run_local`
//! run regardless of worker count, kill schedule or early stop, expired
//! leases are requeued (work stealing), and no fault site is
//! double-counted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fsp_fleet::{run_worker, WorkerConfig};
use fsp_serve::{Client, Engine, EngineConfig, JobSpec, Json, Server};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fsp-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fleet_result_is_byte_identical_despite_worker_crash() {
    let dir = scratch_dir("distributed");
    let config = EngineConfig::new(&dir)
        .job_workers(1)
        .chunk_sites(8)
        .lease_ttl(Duration::from_millis(500));
    let engine = Arc::new(Engine::open(config).expect("open engine"));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine))
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server");
    let addr = handle.addr().to_string();
    let client = Client::new(&addr);

    let mut spec = JobSpec::sampled("pathfinder", 40);
    spec.seed = 7;
    let job = client.submit_fleet(&spec).expect("submit fleet job");

    // Phase 1: a worker that "crashes" — it acquires its first lease and
    // exits without executing or releasing it. The coordinator must
    // recover that chunk through lease expiry alone.
    let stop = AtomicBool::new(false);
    let mut crasher = WorkerConfig::new(&addr, "crasher");
    crasher.campaign_workers = 1;
    crasher.fail_after = Some(0);
    let crashed = run_worker(&crasher, &stop).expect("crasher loop");
    assert!(crashed.abandoned, "crasher must die holding a lease");
    assert_eq!(crashed.chunks, 0, "crasher must deliver nothing");

    // Phase 2: a healthy worker drains the fleet, stealing the dead
    // worker's chunk once its lease expires.
    let status = std::thread::scope(|scope| {
        let mut steady = WorkerConfig::new(&addr, "steady");
        steady.campaign_workers = 1;
        let stop = &stop;
        scope.spawn(move || {
            let _ = run_worker(&steady, stop);
        });
        let status = client
            .wait(&job, Duration::from_secs(300))
            .expect("job finishes");
        stop.store(true, Ordering::Relaxed);
        status
    });
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("completed"),
        "job must complete: {status}"
    );
    let total = status.get("total").and_then(Json::as_u64).expect("total");
    let done = status.get("done").and_then(Json::as_u64).expect("done");
    assert_eq!(done, total, "every planned site resolved exactly once");

    let fleet_doc = client.fleet_status().expect("fleet status");
    let requeues = fleet_doc
        .get("requeues")
        .and_then(Json::as_u64)
        .expect("requeues");
    assert!(requeues >= 1, "the abandoned lease must be requeued");
    // No double counting: sites credited across all workers equal the
    // job's plan exactly — the stolen chunk was executed once, by the
    // worker that stole it.
    let credited: u64 = fleet_doc
        .get("workers")
        .and_then(Json::as_arr)
        .expect("workers")
        .iter()
        .map(|w| w.get("sites").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert_eq!(credited, total, "sites credited once across the fleet");

    let fleet_result = client.result(&job).expect("result document").to_string();
    handle.stop();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // The whole point: distribution is placement, not policy. The result
    // document matches a single-process run byte for byte.
    let local = fsp_serve::run_local(&spec, 1)
        .expect("local run")
        .to_string();
    assert_eq!(
        fleet_result, local,
        "fleet result must be byte-identical to `fsp submit --local`"
    );
}

#[test]
fn early_stopped_fleet_result_is_byte_identical_to_local() {
    let dir = scratch_dir("early-stop");
    let config = EngineConfig::new(&dir).job_workers(1).chunk_sites(8);
    let engine = Arc::new(Engine::open(config).expect("open engine"));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine))
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server");
    let addr = handle.addr().to_string();

    let mut spec = JobSpec::sampled("gemm", 400).with_stop(0.1, 0.9);
    spec.seed = 7;
    let stop = AtomicBool::new(false);
    let fleet_result = std::thread::scope(|scope| {
        // Stops the workers however the scope ends, so a failed assertion
        // fails the test instead of leaving the scope waiting on them.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _stop_workers = StopOnDrop(&stop);
        for name in ["w0", "w1"] {
            let mut worker = WorkerConfig::new(&addr, name);
            worker.campaign_workers = 1;
            let stop = &stop;
            scope.spawn(move || run_worker(&worker, stop).expect("worker loop"));
        }
        let job = engine.submit_with(spec.clone(), true).expect("submit");
        assert!(
            engine.wait_idle(Duration::from_secs(300)),
            "fleet job never finished"
        );
        engine.result_json(&job).expect("completed job")
    });
    handle.stop();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        fleet_result.get("early_stopped").and_then(Json::as_bool),
        Some(true),
        "the loose rule must fire at n=400"
    );
    let local = fsp_serve::run_local(&spec, 2).expect("local run");
    assert_eq!(
        fleet_result.to_string(),
        local.to_string(),
        "early-stopped fleet result must be byte-identical to `fsp submit --local`"
    );
}
