//! `/metrics` after an early-stopped job, for both store-backed
//! placements: the engine's own campaign threads and the worker fleet.
//!
//! An early stop cancels (or retracts) work the stopped prefix does not
//! need, so the injection counters must report only the sites that
//! actually ran and reached the store, and a warm resubmission whose
//! cached prefix alone fires the stop rule must still count its hits.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fsp_core::{PruningConfig, PruningPipeline};
use fsp_fleet::{run_worker, WorkerConfig};
use fsp_inject::Experiment;
use fsp_serve::{CampaignMode, Engine, EngineConfig, JobSpec, Json, Server};
use fsp_workloads::Scale;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fsp-stop-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A pruned spec whose loose stop rule fires on a short plan prefix.
fn spec() -> JobSpec {
    JobSpec::pruned("gemm").with_stop(0.1, 0.9)
}

/// The spec's plan, recomputed the way the engine plans pruned jobs.
fn planned_sites(spec: &JobSpec) -> Vec<fsp_inject::FaultSite> {
    let CampaignMode::Pruned {
        static_ace,
        loop_samples,
    } = spec.mode
    else {
        panic!("pruned spec expected");
    };
    let workload = fsp_workloads::by_id(&spec.kernel, Scale::Eval).unwrap();
    let experiment = Experiment::prepare(&workload).unwrap();
    let config = PruningConfig {
        static_ace,
        loop_samples,
        loop_seed: spec.seed,
        ..PruningConfig::default()
    };
    let plan = PruningPipeline::new(config).plan_for(&experiment).unwrap();
    plan.sites.iter().map(|ws| ws.site).collect()
}

/// An unlabeled counter or gauge from the engine's `/metrics` text.
fn metric(engine: &Engine, name: &str) -> u64 {
    let text = engine.metrics_text();
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("`{name}` missing from /metrics"));
    let value: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    value as u64
}

/// Stops the workers when dropped, so a failed assertion ends the test
/// instead of leaving `thread::scope` waiting on them.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn run_job(engine: &Engine, spec: &JobSpec, fleet: bool) -> Json {
    let id = engine.submit_with(spec.clone(), fleet).unwrap();
    assert!(
        engine.wait_idle(Duration::from_secs(300)),
        "job never finished"
    );
    let status = engine.job_json(&id).unwrap();
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("completed"),
        "job must complete: {status}"
    );
    engine.result_json(&id).unwrap()
}

fn early_stop_counts_delivered_sites(fleet: bool) {
    let spec = spec();
    let planned = planned_sites(&spec);
    let unique: BTreeSet<_> = planned.iter().collect();
    assert_eq!(
        unique.len(),
        planned.len(),
        "the store gain equals the injected count only for a plan without repeated sites"
    );

    let dir = tmp_dir(if fleet { "fleet" } else { "pool" });
    let config = EngineConfig::new(&dir)
        .job_workers(1)
        .chunk_sites(16)
        .lease_ttl(Duration::from_secs(5));
    let engine = Arc::new(Engine::open(config).unwrap());
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr().to_string();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let _stop_workers = StopOnDrop(&stop);
        if fleet {
            for name in ["w0", "w1"] {
                let mut worker = WorkerConfig::new(&addr, name);
                worker.campaign_workers = 1;
                let stop = &stop;
                scope.spawn(move || run_worker(&worker, stop).expect("worker loop"));
            }
        }

        // Cold: every site the job injects is new to the store.
        let stored_before = metric(&engine, "fsp_store_outcomes");
        let cold = run_job(&engine, &spec, fleet);
        assert_eq!(
            cold.get("early_stopped").and_then(Json::as_bool),
            Some(true),
            "the loose rule must fire: {cold}"
        );
        let injected = metric(&engine, "fsp_sites_injected_total");
        let gained = metric(&engine, "fsp_store_outcomes") - stored_before;
        assert_eq!(
            injected, gained,
            "injected sites must be exactly the sites the job added to the store"
        );
        assert!(
            injected < planned.len() as u64,
            "an early stop must leave planned sites uninjected ({injected} of {})",
            planned.len()
        );

        // Warm: the cached prefix alone fires the stop rule.
        let hits_before = metric(&engine, "fsp_cache_hits_total");
        let warm = run_job(&engine, &spec, fleet);
        assert_eq!(warm.to_string(), cold.to_string(), "warm result drifted");
        assert!(
            metric(&engine, "fsp_cache_hits_total") > hits_before,
            "a warm early-stopped job must count its store hits"
        );
        assert_eq!(
            metric(&engine, "fsp_sites_injected_total"),
            injected,
            "a warm job whose cached prefix fires injects nothing"
        );
    });

    handle.stop();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pool_early_stop_counts_delivered_sites() {
    early_stop_counts_delivered_sites(false);
}

#[test]
fn fleet_early_stop_counts_delivered_sites() {
    early_stop_counts_delivered_sites(true);
}
