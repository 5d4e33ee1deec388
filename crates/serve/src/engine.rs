//! The resumable job engine: a bounded worker pool draining a queue of
//! campaign jobs against the persistent outcome store.
//!
//! # Resume protocol
//!
//! A job is persisted to `jobs/<id>.json` on every state transition, and
//! every injected outcome is persisted to the outcome store chunk by
//! chunk. A crash (or [`Engine::shutdown`], which deliberately behaves
//! like one for in-flight work) therefore loses nothing but liveness: on
//! the next [`Engine::open`], jobs still marked queued/running are
//! requeued, re-planned (planning is deterministic), and their campaign
//! re-run — at which point every site injected before the crash is a
//! store hit, so the engine only executes the remainder. A completed
//! job's profile is recomputed from the full outcome vector in site
//! order, making it bit-identical to an uninterrupted run's.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fsp_core::{PruningConfig, PruningPipeline};
use fsp_fleet::lease::{ChunkSpec, FleetConfig, LeaseTable, Submission};
use fsp_fleet::wire::{OutcomeFrame, TraceFrame};
use fsp_inject::{CampaignObserver, Experiment, InjectionTarget, WeightedSite};
use fsp_protect::{
    harden, harden_and_verify, plan_protection, remap_sites, HardenConfig, PlanInputs,
    ProtectScope, ProtectedTarget,
};
use fsp_stats::stream::{EarlyStop, StopRule, StreamEstimator};
use fsp_stats::{Outcome, ResilienceProfile};
use fsp_workloads::{program_fingerprint, Scale, Workload};

/// Launch-hash component of store keys and result documents: the
/// workload's launch-configuration hash mixed with the outcome
/// classifier's calibration ([`fsp_inject::classifier_hash`]), the
/// static analysis version ([`fsp_analyze::absint_version`]), *and* the
/// batched-injection format tag ([`fsp_inject::batch_version`]), so
/// outcomes persisted under a different hang-budget calibration — or
/// planned by an older abstract-interpretation semantics, or produced by
/// an incompatible lane-batching scheme — miss instead of being served
/// as current.
fn keyed_launch_hash(w: &Workload) -> u64 {
    w.launch_hash()
        ^ fsp_inject::classifier_hash()
        ^ fsp_analyze::absint_version()
        ^ fsp_inject::batch_version()
}
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::job::{
    CampaignMode, EarlyStopReport, JobRecord, JobResult, JobSpec, JobState, StopSpec,
};
use crate::json::Json;
use crate::metrics::{mode_index, Metrics};
use crate::store::{OutcomeKey, OutcomeStore};

/// Log records accumulated before the engine folds them into a fresh
/// checkpoint (bounds recovery replay time).
const CHECKPOINT_EVERY: u64 = 100_000;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Root of the persistent state (`store/` and `jobs/` live here).
    pub data_dir: PathBuf,
    /// Concurrent jobs (the bounded worker pool).
    pub job_workers: usize,
    /// OS threads per job's injection campaign.
    pub campaign_workers: usize,
    /// Lease TTL and chunk granularity for fleet-executed jobs.
    pub fleet: FleetConfig,
    /// Enable the span tracer at engine start (`GET /trace` then serves a
    /// live Chrome trace; fleet grants instruct workers to trace too).
    pub trace: bool,
}

impl EngineConfig {
    /// Defaults: the worker pool spans the machine
    /// (`available_parallelism`), one campaign thread per job worker.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> EngineConfig {
        EngineConfig {
            data_dir: data_dir.into(),
            job_workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            campaign_workers: 1,
            fleet: FleetConfig::default(),
            trace: false,
        }
    }

    /// Enables (or disables) the span tracer at engine start.
    #[must_use]
    pub fn trace(mut self, on: bool) -> EngineConfig {
        self.trace = on;
        self
    }

    /// Overrides the worker-pool width (`0` is clamped to 1).
    #[must_use]
    pub fn job_workers(mut self, n: usize) -> EngineConfig {
        self.job_workers = n.max(1);
        self
    }

    /// Overrides the fleet lease TTL (heartbeat deadline).
    #[must_use]
    pub fn lease_ttl(mut self, ttl: Duration) -> EngineConfig {
        self.fleet.lease_ttl = ttl;
        self
    }

    /// Overrides the fleet chunk granularity (`0` is clamped to 1).
    #[must_use]
    pub fn chunk_sites(mut self, n: usize) -> EngineConfig {
        self.fleet.chunk_sites = n.max(1);
        self
    }
}

/// Why `GET /jobs/:id/result` cannot produce a result yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultError {
    /// No such job.
    NotFound,
    /// The job exists but is not completed; carries its current state.
    NotReady(JobState),
    /// The job failed, with its error message.
    Failed(String),
}

struct Shared {
    jobs_dir: PathBuf,
    store: Mutex<OutcomeStore>,
    jobs: Mutex<BTreeMap<String, JobRecord>>,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    cancel_flags: Mutex<HashMap<String, Arc<AtomicBool>>>,
    metrics: Metrics,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    campaign_workers: usize,
    leases: LeaseTable,
}

/// The campaign orchestration engine. Open one per data directory; share
/// it (via `Arc`) with the HTTP server.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("jobs_dir", &self.shared.jobs_dir)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Opens the engine over `data_dir`: recovers the outcome store,
    /// reloads persisted jobs, requeues unfinished ones and starts the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from store recovery or directory creation.
    pub fn open(config: EngineConfig) -> std::io::Result<Engine> {
        let EngineConfig {
            data_dir,
            job_workers,
            campaign_workers,
            fleet,
            trace,
        } = config;
        if trace {
            fsp_obs::set_tracing(true);
        }
        let store = OutcomeStore::open(data_dir.join("store"))?;
        let jobs_dir = data_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;

        let mut jobs = BTreeMap::new();
        let mut max_id = 0u64;
        let mut requeue: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&jobs_dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path)?;
            let record = match Json::parse(&text).and_then(|v| JobRecord::from_json(&v)) {
                Ok(record) => record,
                Err(e) => {
                    eprintln!(
                        "fsp-serve: skipping unreadable job file {}: {e}",
                        path.display()
                    );
                    continue;
                }
            };
            if let Some(n) = record.id.strip_prefix("job-").and_then(|n| n.parse().ok()) {
                max_id = max_id.max(n);
            }
            if record.state.is_active() {
                requeue.push(record.id.clone());
            }
            jobs.insert(record.id.clone(), record);
        }
        // Oldest first, so recovery preserves submission order.
        requeue.sort_by_key(|id| {
            id.strip_prefix("job-")
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(u64::MAX)
        });

        let shared = Arc::new(Shared {
            jobs_dir,
            store: Mutex::new(store),
            jobs: Mutex::new(jobs),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            cancel_flags: Mutex::new(HashMap::new()),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(max_id + 1),
            campaign_workers: campaign_workers.max(1),
            leases: LeaseTable::new(fleet),
        });
        {
            let mut jobs = shared.jobs.lock().expect("engine poisoned");
            let mut queue = shared.queue.lock().expect("engine poisoned");
            for id in requeue {
                if let Some(record) = jobs.get_mut(&id) {
                    record.state = JobState::Queued;
                    persist(&shared.jobs_dir, record);
                    queue.push_back(id);
                }
            }
        }

        let engine = Engine {
            shared: Arc::clone(&shared),
            workers: Mutex::new(Vec::new()),
        };
        let mut workers = engine.workers.lock().expect("engine poisoned");
        for i in 0..job_workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fsp-job-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning job worker"),
            );
        }
        drop(workers);
        Ok(engine)
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    ///
    /// Rejects unknown kernels (with the known ids in the message).
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        self.submit_with(spec, false)
    }

    /// Submits a job, optionally placing its campaign on the worker fleet
    /// (leased chunks drained by `fsp worker` processes) instead of the
    /// in-process pool. Protect jobs ignore the placement flag: their
    /// re-injection campaign targets a hardened program workers cannot
    /// re-derive from a kernel id, so they always run in-process.
    ///
    /// # Errors
    ///
    /// Rejects unknown kernels (with the known ids in the message).
    pub fn submit_with(&self, spec: JobSpec, fleet: bool) -> Result<String, String> {
        if fsp_workloads::by_id(&spec.kernel, Scale::Eval).is_none() {
            return Err(format!(
                "unknown kernel `{}` (try: {})",
                spec.kernel,
                fsp_workloads::registry_ids().join(", ")
            ));
        }
        if spec.stop.is_some() && matches!(spec.mode, CampaignMode::Protect { .. }) {
            return Err("early stopping is not supported for protect jobs".to_owned());
        }
        let id = format!(
            "job-{}",
            self.shared.next_id.fetch_add(1, Ordering::Relaxed)
        );
        let mut record = JobRecord::new(id.clone(), spec);
        record.fleet = fleet && !matches!(record.spec.mode, CampaignMode::Protect { .. });
        {
            let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
            persist(&self.shared.jobs_dir, &record);
            jobs.insert(id.clone(), record);
        }
        self.shared
            .queue
            .lock()
            .expect("engine poisoned")
            .push_back(id.clone());
        self.shared.queue_cv.notify_one();
        self.shared.metrics.jobs_submitted.inc();
        Ok(id)
    }

    /// The job's full status document, or `None` if unknown.
    #[must_use]
    pub fn job_json(&self, id: &str) -> Option<Json> {
        self.shared
            .jobs
            .lock()
            .expect("engine poisoned")
            .get(id)
            .map(JobRecord::to_json)
    }

    /// The live statistical progress document (`GET /jobs/:id/progress`),
    /// or `None` if unknown. Assembled from the job record's per-outcome
    /// counters, so in-process and fleet jobs render identically.
    #[must_use]
    pub fn progress_json(&self, id: &str) -> Option<Json> {
        self.shared
            .jobs
            .lock()
            .expect("engine poisoned")
            .get(id)
            .map(crate::job::progress_to_json)
    }

    /// Status documents of every known job, in id order.
    #[must_use]
    pub fn jobs_json(&self) -> Json {
        Json::Arr(
            self.shared
                .jobs
                .lock()
                .expect("engine poisoned")
                .values()
                .map(JobRecord::to_json)
                .collect(),
        )
    }

    /// The canonical result document of a completed job.
    ///
    /// # Errors
    ///
    /// [`ResultError`] when the job is unknown, unfinished or failed.
    pub fn result_json(&self, id: &str) -> Result<Json, ResultError> {
        let jobs = self.shared.jobs.lock().expect("engine poisoned");
        let record = jobs.get(id).ok_or(ResultError::NotFound)?;
        match (&record.result, record.state) {
            (Some(result), JobState::Completed) => {
                Ok(crate::job::result_to_json(&record.spec, result))
            }
            (_, JobState::Failed) => Err(ResultError::Failed(
                record.error.clone().unwrap_or_else(|| "failed".to_owned()),
            )),
            (_, state) => Err(ResultError::NotReady(state)),
        }
    }

    /// Requests cancellation: queued jobs cancel immediately, running jobs
    /// at their next chunk boundary. Returns whether a cancellation was
    /// initiated.
    pub fn cancel(&self, id: &str) -> bool {
        let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
        match jobs.get_mut(id).map(|r| r.state) {
            Some(JobState::Queued) => {
                let record = jobs.get_mut(id).expect("checked above");
                record.state = JobState::Cancelled;
                persist(&self.shared.jobs_dir, record);
                self.shared.metrics.jobs_cancelled.inc();
                true
            }
            Some(JobState::Running) => {
                let flags = self.shared.cancel_flags.lock().expect("engine poisoned");
                flags.get(id).is_some_and(|flag| {
                    flag.store(true, Ordering::Relaxed);
                    true
                })
            }
            _ => false,
        }
    }

    /// Grants a lease to `worker`, requeuing expired leases first
    /// (`POST /leases`), parking up to `wait` for one when nothing is
    /// available (see [`LeaseTable::acquire_wait`]). When nothing comes
    /// the body carries the count of still-pending chunks so idle workers
    /// can tell a drained fleet from a fully-leased one.
    #[must_use]
    pub fn fleet_acquire(&self, worker: &str, wait: Duration) -> Json {
        let acquired = self.shared.leases.acquire_wait(worker, wait);
        match acquired.grant {
            Some(grant) => {
                fsp_obs::instant(
                    "serve.lease.grant",
                    Some(format!("{worker} {}", grant.lease)),
                );
                grant.to_json()
            }
            None => Json::obj([
                ("lease", Json::Null),
                ("pending", Json::u64(acquired.pending as u64)),
            ]),
        }
    }

    /// Renews a lease's deadline (`POST /leases/:id/heartbeat`). Returns
    /// `(status, body)`: 404 for a lease that no longer exists, 409 for
    /// one stolen by another worker — either way the renewing worker
    /// should abandon the chunk.
    #[must_use]
    pub fn fleet_heartbeat(&self, lease: &str, worker: &str) -> (u16, Json) {
        match self.shared.leases.heartbeat(lease, worker) {
            Ok(ttl) => (
                200,
                Json::obj([("ttl_ms", Json::u64(ttl.as_millis() as u64))]),
            ),
            Err(fsp_fleet::HeartbeatError::Unknown) => (404, error_json("unknown lease")),
            Err(fsp_fleet::HeartbeatError::NotHolder) => {
                (409, error_json("lease stolen by another worker"))
            }
        }
    }

    /// Accepts a worker's outcome frame (`POST /leases/:id/outcomes`).
    ///
    /// Every record is validated against the lease's key fields, then
    /// persisted to the outcome store *before* the lease is marked done —
    /// the store is the durability boundary, so a coordinator crash after
    /// this call can never lose an acknowledged chunk. Duplicate and
    /// stale deliveries (the normal weather of at-least-once delivery)
    /// return 200 with `accepted: 0` so workers move on quietly.
    #[must_use]
    pub fn fleet_submit_outcomes(&self, lease: &str, body: &Json) -> (u16, Json) {
        let frame = match OutcomeFrame::from_json(body) {
            Ok(frame) => frame,
            Err(e) => return (400, error_json(&e)),
        };
        let Some(meta) = self.shared.leases.meta(lease) else {
            return (
                200,
                Json::obj([("accepted", Json::u64(0)), ("stale", Json::Bool(true))]),
            );
        };
        let model = meta.model.code();
        if frame.records.iter().any(|(k, _)| {
            k.fingerprint != meta.fingerprint || k.launch != meta.launch || k.model != model
        }) {
            return (
                400,
                error_json("frame records do not match the lease's campaign"),
            );
        }
        // Re-anchor any spans the worker shipped with the frame onto this
        // process's clock (see [`TraceFrame`]) so `GET /trace` renders a
        // single cross-process timeline.
        if fsp_obs::tracing_enabled() {
            match TraceFrame::from_json(body) {
                Ok(Some(trace)) => {
                    let events: Vec<fsp_obs::Event> = trace
                        .spans
                        .iter()
                        .map(|s| fsp_obs::Event {
                            process: None,
                            tid: s.tid,
                            name: s.name.clone().into(),
                            label: s.label.clone(),
                            start_ns: u64::try_from(trace.grant_ns.cast_signed() + s.rel_ns)
                                .unwrap_or(0),
                            dur_ns: s.dur_ns,
                            depth: s.depth,
                            instant: s.instant,
                        })
                        .collect();
                    fsp_obs::inject_foreign(&frame.worker, events);
                }
                Ok(None) => {}
                Err(e) => eprintln!("fsp-serve: dropping malformed trace frame: {e}"),
            }
        }
        {
            let mut store = self.shared.store.lock().expect("engine poisoned");
            for (key, outcome) in &frame.records {
                if let Err(e) = store.insert(*key, *outcome) {
                    eprintln!("fsp-serve: store append failed: {e}");
                }
            }
            let flush_start = fsp_obs::now_ns();
            let _ = store.flush();
            self.shared
                .metrics
                .store_flush_nanos
                .record(fsp_obs::now_ns() - flush_start);
        }
        let outcomes: std::collections::BTreeMap<_, _> =
            frame.records.iter().map(|(k, o)| (k.site, *o)).collect();
        match self.shared.leases.complete(lease, &frame.worker, &outcomes) {
            Submission::Accepted => {
                fsp_obs::instant(
                    "serve.lease.complete",
                    Some(format!("{} {lease}", frame.worker)),
                );
                (
                    200,
                    Json::obj([("accepted", Json::u64(frame.records.len() as u64))]),
                )
            }
            Submission::Duplicate => (
                200,
                Json::obj([("accepted", Json::u64(0)), ("duplicate", Json::Bool(true))]),
            ),
            // The lease vanished between `meta` and `complete` (job
            // retracted): the records were valid, treat as stale.
            Submission::Unknown => (
                200,
                Json::obj([("accepted", Json::u64(0)), ("stale", Json::Bool(true))]),
            ),
            Submission::Incomplete => (400, error_json("frame does not cover the lease's sites")),
        }
    }

    /// The fleet status document (`GET /fleet`): chunk counts by state,
    /// requeue/duplicate totals and per-worker counters.
    #[must_use]
    pub fn fleet_status_json(&self) -> Json {
        self.shared.leases.status_json()
    }

    /// Prometheus text exposition of the service metrics.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let by_state: Vec<(&str, u64)> = {
            let jobs = self.shared.jobs.lock().expect("engine poisoned");
            JobState::ALL
                .iter()
                .map(|s| {
                    (
                        s.name(),
                        jobs.values().filter(|r| r.state == *s).count() as u64,
                    )
                })
                .collect()
        };
        let store_len = self.shared.store.lock().expect("engine poisoned").len() as u64;
        let mut text = self.shared.metrics.render(&by_state, store_len);
        self.shared.leases.render_metrics(&mut text);
        // Process-wide metrics (injection-engine histograms and counters)
        // registered on the global registry by whichever layers ran.
        text.push_str(&fsp_obs::registry().render());
        text
    }

    /// The live span timeline as Chrome trace-event JSON (`GET /trace`):
    /// this process's spans plus any worker spans re-anchored from
    /// submitted frames. Non-destructive — the ring keeps accumulating.
    #[must_use]
    pub fn trace_json(&self) -> String {
        fsp_obs::chrome_trace_json(&fsp_obs::snapshot(), "coordinator")
    }

    /// Blocks until no job is queued or running, or `timeout` elapses;
    /// returns whether the engine went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let busy = {
                let jobs = self.shared.jobs.lock().expect("engine poisoned");
                jobs.values().any(|r| r.state.is_active())
            };
            if !busy {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops the worker pool without waiting for in-flight jobs to finish
    /// — deliberately equivalent to a crash for resumability: running jobs
    /// stop at their next chunk boundary, stay `running` on disk, and
    /// resume (from the store) on the next [`Engine::open`]. Flushes and
    /// checkpoints the store before returning.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue_cv.notify_all();
        // Wakes parked lease requests and fleet supervisors.
        self.shared.leases.close();
        let workers: Vec<_> = self
            .workers
            .lock()
            .expect("engine poisoned")
            .drain(..)
            .collect();
        for w in workers {
            let _ = w.join();
        }
        let mut store = self.shared.store.lock().expect("engine poisoned");
        if let Err(e) = store.flush().and_then(|()| store.checkpoint()) {
            eprintln!("fsp-serve: checkpoint on shutdown failed: {e}");
        }
    }
}

/// The kernel registry document for `GET /kernels`: ids, names, geometry
/// and the store-key fingerprints at evaluation scale.
#[must_use]
pub fn kernels_json() -> Json {
    Json::Arr(
        fsp_workloads::all(Scale::Eval)
            .iter()
            .map(|w| {
                Json::obj([
                    ("id", Json::Str(w.registry_id().to_owned())),
                    ("app", Json::Str(w.app().to_owned())),
                    ("kernel", Json::Str(w.kernel().to_owned())),
                    ("threads", Json::u64(u64::from(w.launch().num_threads()))),
                    ("fingerprint", Json::u64(w.fingerprint())),
                    ("launch", Json::u64(keyed_launch_hash(w))),
                ])
            })
            .collect(),
    )
}

/// Runs a job spec in-process, without a server or a store — the library
/// path `fsp submit --local` uses, producing the same canonical result
/// document as `GET /jobs/:id/result` for the same spec.
///
/// # Errors
///
/// Returns a message for unknown kernels or workload faults.
pub fn run_local(spec: &JobSpec, workers: usize) -> Result<Json, String> {
    let workload = fsp_workloads::by_id(&spec.kernel, Scale::Eval)
        .ok_or_else(|| format!("unknown kernel `{}`", spec.kernel))?;
    if spec.stop.is_some() && matches!(spec.mode, CampaignMode::Protect { .. }) {
        return Err("early stopping is not supported for protect jobs".to_owned());
    }
    if let CampaignMode::Protect {
        budget_millis,
        scope,
        samples,
    } = spec.mode
    {
        let outcome = harden_and_verify(
            &workload,
            &protect_config(spec, budget_millis, scope, samples, workers),
        )
        .map_err(|e| e.to_string())?;
        return Ok(crate::job::result_to_json(
            spec,
            &JobResult {
                fingerprint: program_fingerprint(&outcome.hardened.program),
                launch: keyed_launch_hash(&workload),
                sites: outcome.report.samples,
                profile: outcome.report.protected,
                early: None,
            },
        ));
    }
    let experiment = Experiment::prepare(&workload).map_err(|e| e.to_string())?;
    let planned = plan_sites(spec, &workload, &experiment)?;
    if let Some(stop) = spec.stop {
        // Same incremental engine + prefix tracker as the service path,
        // so `--local` and served early-stopped runs agree on the exact
        // stopping prefix and produce byte-identical result documents.
        let stopper = Mutex::new(new_stopper(stop, &planned));
        let run = experiment.run_campaign_incremental(
            &planned.sites,
            spec.model,
            workers,
            &[],
            &StopObserver { stopper: &stopper },
        );
        let tracker = stopper.into_inner().expect("stop tracker poisoned");
        let used = tracker.stop_len().unwrap_or(planned.sites.len());
        let prefix: Vec<Outcome> = run.outcomes[..used]
            .iter()
            .map(|o| o.expect("contiguous stopped prefix is resolved"))
            .collect();
        let mut profile = profile_in_site_order(&planned.sites[..used], &prefix);
        planned.settle(&mut profile);
        let early = early_report(
            stop,
            &planned,
            &planned.sites[..used],
            &prefix,
            tracker.stop_len().is_some(),
        );
        return Ok(crate::job::result_to_json(
            spec,
            &JobResult {
                fingerprint: workload.fingerprint(),
                launch: keyed_launch_hash(&workload),
                sites: planned.sites.len(),
                profile,
                early: Some(early),
            },
        ));
    }
    let result = experiment.run_campaign_with(&planned.sites, spec.model, workers);
    let mut profile = result.profile;
    planned.settle(&mut profile);
    Ok(crate::job::result_to_json(
        spec,
        &JobResult {
            fingerprint: workload.fingerprint(),
            launch: keyed_launch_hash(&workload),
            sites: planned.sites.len(),
            profile,
            early: None,
        },
    ))
}

/// The [`HardenConfig`] equivalent of a protect job spec. The engine path
/// mirrors every field of this (same seed, same sample count, no ACE
/// scaling) so the library and service paths plan identical protections
/// and report identical profiles.
fn protect_config(
    spec: &JobSpec,
    budget_millis: u32,
    scope: ProtectScope,
    samples: usize,
    workers: usize,
) -> HardenConfig {
    HardenConfig {
        scope,
        budget: f64::from(budget_millis) / 1000.0,
        samples,
        seed: spec.seed,
        model: spec.model,
        workers,
        use_ace: false,
    }
}

/// A planned campaign: the sites to run plus the weight the planner
/// accounted statically (assumed masked, predicted DUEs) and the
/// per-stage accounting for the metrics endpoint.
struct PlannedCampaign {
    sites: Vec<WeightedSite>,
    assumed_masked: f64,
    predicted_crash: f64,
    predicted_detected: f64,
    stages: Option<fsp_core::StageCounts>,
}

impl PlannedCampaign {
    /// The statically settled mass as per-class certain weight in
    /// `Outcome::code()` order, for streaming estimators.
    fn certain(&self) -> [f64; 5] {
        [
            self.assumed_masked,
            0.0,
            self.predicted_crash,
            0.0,
            self.predicted_detected,
        ]
    }

    /// The `[masked, crash, detected]` triple persisted on job records.
    fn settled3(&self) -> [f64; 3] {
        [
            self.assumed_masked,
            self.predicted_crash,
            self.predicted_detected,
        ]
    }

    /// Folds the statically-accounted weight into a campaign profile.
    fn settle(&self, profile: &mut ResilienceProfile) {
        profile.record_weighted(Outcome::Masked, self.assumed_masked);
        if self.predicted_crash > 0.0 {
            profile.record_weighted(Outcome::CRASH, self.predicted_crash);
        }
        if self.predicted_detected > 0.0 {
            profile.record_weighted(Outcome::Detected, self.predicted_detected);
        }
    }
}

/// Deterministically expands a spec into its weighted site list and
/// statically-accounted weights. Shared by the engine and [`run_local`],
/// so the service and library paths run byte-identical campaigns.
fn plan_sites(
    spec: &JobSpec,
    workload: &fsp_workloads::Workload,
    experiment: &Experiment<'_, fsp_workloads::Workload>,
) -> Result<PlannedCampaign, String> {
    match spec.mode {
        CampaignMode::Pruned {
            static_ace,
            loop_samples,
        } => {
            let config = PruningConfig {
                static_ace,
                loop_samples,
                loop_seed: spec.seed,
                ..PruningConfig::default()
            };
            let plan = PruningPipeline::new(config)
                .plan_for(experiment)
                .map_err(|e| format!("planning failed: {e}"))?;
            Ok(PlannedCampaign {
                sites: plan.sites,
                assumed_masked: plan.assumed_masked_weight,
                predicted_crash: plan.predicted_crash_weight,
                predicted_detected: plan.predicted_detected_weight,
                stages: Some(plan.stages),
            })
        }
        CampaignMode::Sampled { samples } => {
            let space = experiment.site_space(0..workload.launch().num_threads());
            let mut rng = StdRng::seed_from_u64(spec.seed);
            Ok(PlannedCampaign {
                sites: space
                    .sample_many(samples, &mut rng)
                    .into_iter()
                    .map(WeightedSite::from)
                    .collect(),
                assumed_masked: 0.0,
                predicted_crash: 0.0,
                predicted_detected: 0.0,
                stages: None,
            })
        }
        // Protect jobs run two campaigns against two programs; both
        // callers branch to their protect paths before planning sites.
        CampaignMode::Protect { .. } => unreachable!("protect jobs never reach plan_sites"),
    }
}

/// Builds the early-stop prefix tracker for a planned campaign.
fn new_stopper(stop: StopSpec, planned: &PlannedCampaign) -> EarlyStop {
    EarlyStop::new(
        StopRule::new(stop.confidence, stop.margin),
        planned.sites.iter().map(|ws| ws.weight).collect(),
        planned.certain(),
    )
}

/// Recomputes the early-stop report over the used plan prefix — a pure
/// function of the prefix outcomes, so local, fleet and resumed runs
/// agree byte-for-byte.
fn early_report(
    stop: StopSpec,
    planned: &PlannedCampaign,
    sites: &[WeightedSite],
    outcomes: &[Outcome],
    stopped: bool,
) -> EarlyStopReport {
    let mut est = StreamEstimator::with_certain(planned.certain());
    for (ws, o) in sites.iter().zip(outcomes) {
        est.record_weighted(*o, ws.weight);
    }
    EarlyStopReport {
        stopped,
        sites_injected: sites.len(),
        achieved_margin: est.achieved_margin(stop.confidence),
    }
}

/// Observer for `run_local` early-stopped campaigns: feeds the prefix
/// tracker and cancels the worker pool once the rule fires.
struct StopObserver<'a> {
    stopper: &'a Mutex<EarlyStop>,
}

impl CampaignObserver for StopObserver<'_> {
    fn on_chunk(&self, indices: &[usize], outcomes: &[Outcome]) {
        let mut tracker = self.stopper.lock().expect("stop tracker poisoned");
        for (&i, &o) in indices.iter().zip(outcomes) {
            tracker.resolve(i, o);
        }
    }

    fn should_cancel(&self) -> bool {
        self.stopper
            .lock()
            .expect("stop tracker poisoned")
            .should_stop()
    }
}

fn persist(jobs_dir: &std::path::Path, record: &JobRecord) {
    let path = jobs_dir.join(format!("{}.json", record.id));
    let tmp = jobs_dir.join(format!("{}.json.tmp", record.id));
    let write = || -> std::io::Result<()> {
        std::fs::write(&tmp, record.to_json().to_string())?;
        std::fs::rename(&tmp, &path)
    };
    if let Err(e) = write() {
        eprintln!("fsp-serve: persisting {} failed: {e}", record.id);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut queue = shared.queue.lock().expect("engine poisoned");
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = shared.queue_cv.wait(queue).expect("engine poisoned");
            }
        };
        run_job(shared, &id);
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
}

enum RunEnd {
    Completed(JobResult),
    /// Stopped by engine shutdown: stays `running` on disk, resumes on
    /// the next open.
    Interrupted,
    Cancelled,
    Failed(String),
}

fn run_job(shared: &Shared, id: &str) {
    let (spec, fleet) = {
        let mut jobs = shared.jobs.lock().expect("engine poisoned");
        let Some(record) = jobs.get_mut(id) else {
            return;
        };
        // A queued job can have been cancelled before a worker claimed it.
        if record.state != JobState::Queued {
            return;
        }
        record.state = JobState::Running;
        persist(&shared.jobs_dir, record);
        (record.spec.clone(), record.fleet)
    };
    let cancel = Arc::new(AtomicBool::new(false));
    shared
        .cancel_flags
        .lock()
        .expect("engine poisoned")
        .insert(id.to_owned(), Arc::clone(&cancel));
    let end = {
        let _job = fsp_obs::span_labeled("serve.job", format!("{id} {}", spec.kernel));
        execute(shared, id, &spec, fleet, &cancel)
    };
    shared
        .cancel_flags
        .lock()
        .expect("engine poisoned")
        .remove(id);
    let mut jobs = shared.jobs.lock().expect("engine poisoned");
    let Some(record) = jobs.get_mut(id) else {
        return;
    };
    match end {
        RunEnd::Completed(result) => {
            record.state = JobState::Completed;
            // An early-stopped campaign legitimately finishes with
            // unresolved tail sites; keep its true progress count.
            if !result.early.is_some_and(|e| e.stopped) {
                record.done = record.total;
            }
            record.partial = result.profile;
            record.result = Some(result);
            shared.metrics.jobs_completed.inc();
            shared.metrics.jobs_completed_by_mode[mode_index(spec.mode.mode_name())].inc();
        }
        RunEnd::Interrupted => return, // stays `running` on disk
        RunEnd::Cancelled => {
            record.state = JobState::Cancelled;
            shared.metrics.jobs_cancelled.inc();
        }
        RunEnd::Failed(error) => {
            record.state = JobState::Failed;
            record.error = Some(error);
            shared.metrics.jobs_failed.inc();
        }
    }
    persist(&shared.jobs_dir, record);
}

#[allow(clippy::too_many_lines)]
fn execute(shared: &Shared, id: &str, spec: &JobSpec, fleet: bool, cancel: &AtomicBool) -> RunEnd {
    let Some(workload) = fsp_workloads::by_id(&spec.kernel, Scale::Eval) else {
        return RunEnd::Failed(format!("unknown kernel `{}`", spec.kernel));
    };
    let experiment = match Experiment::prepare(&workload) {
        Ok(e) => e,
        Err(e) => return RunEnd::Failed(format!("golden run failed: {e}")),
    };
    if let CampaignMode::Protect {
        budget_millis,
        scope,
        samples,
    } = spec.mode
    {
        return execute_protect(
            shared,
            id,
            spec,
            cancel,
            &workload,
            &experiment,
            budget_millis,
            scope,
            samples,
        );
    }
    let planned = match plan_sites(spec, &workload, &experiment) {
        Ok(planned) => planned,
        Err(e) => return RunEnd::Failed(e),
    };
    if let Some(stages) = &planned.stages {
        shared
            .metrics
            .record_plan(stages, planned.predicted_crash, planned.predicted_detected);
    }
    let sites = &planned.sites;
    let fingerprint = workload.fingerprint();
    let launch = keyed_launch_hash(&workload);
    reset_progress(shared, id, sites.len(), planned.settled3());
    let stopper = spec
        .stop
        .map(|stop| Mutex::new(new_stopper(stop, &planned)));
    let campaign = if fleet {
        fleet_campaign_through_store(
            shared,
            id,
            spec,
            sites,
            fingerprint,
            launch,
            workload.launch().threads_per_cta(),
            cancel,
            stopper.as_ref(),
        )
    } else {
        campaign_through_store(
            shared,
            id,
            spec,
            &experiment,
            sites,
            fingerprint,
            launch,
            cancel,
            stopper.as_ref(),
        )
    };
    let outcomes = match campaign {
        Ok(outcomes) => outcomes,
        Err(end) => return end,
    };
    // Early-stopped campaigns score only the contiguous stopped prefix in
    // plan order — the deterministic basis that makes reruns and
    // local/fleet placements byte-identical. Without a stopper the prefix
    // is the whole plan.
    let stopped_at = stopper
        .as_ref()
        .and_then(|s| s.lock().expect("stop tracker poisoned").stop_len());
    let used = stopped_at.unwrap_or(sites.len());
    let prefix: Vec<Outcome> = outcomes[..used]
        .iter()
        .map(|o| o.expect("contiguous resolved prefix"))
        .collect();
    // Final profile: recomputed over the complete outcome vector in site
    // order, so cold, warm and resumed runs agree bit-for-bit.
    let mut profile = profile_in_site_order(&sites[..used], &prefix);
    planned.settle(&mut profile);
    let early = spec.stop.map(|stop| {
        early_report(
            stop,
            &planned,
            &sites[..used],
            &prefix,
            stopped_at.is_some(),
        )
    });
    if early.is_some() {
        // Cancellation is best-effort, so workers may overshoot the
        // stopped prefix; re-baseline the record's streaming counters to
        // the scored prefix so the progress document of a finished job
        // agrees with its result document.
        let mut counts = [0u64; 5];
        let mut sum_w2 = 0.0;
        for (ws, o) in sites[..used].iter().zip(&prefix) {
            counts[o.code() as usize] += 1;
            sum_w2 += ws.weight * ws.weight;
        }
        let mut jobs = shared.jobs.lock().expect("engine poisoned");
        if let Some(record) = jobs.get_mut(id) {
            record.outcome_counts = counts;
            record.sum_w2 = sum_w2;
            if stopped_at.is_some() {
                record.done = used;
                record.cache_hits = record.cache_hits.min(used);
            }
        }
    }
    RunEnd::Completed(JobResult {
        fingerprint,
        launch,
        sites: sites.len(),
        profile,
        early,
    })
}

/// The engine path of a protect job, mirroring
/// [`fsp_protect::harden_and_verify`] with both campaigns routed through
/// the outcome store: the baseline campaign shares cache entries with
/// plain sampled jobs of the same kernel, and the re-injection campaign
/// keys its outcomes under the *hardened* program's fingerprint, so
/// resubmitting the same protect spec is a pure warm read.
#[allow(clippy::too_many_arguments)]
fn execute_protect(
    shared: &Shared,
    id: &str,
    spec: &JobSpec,
    cancel: &AtomicBool,
    workload: &fsp_workloads::Workload,
    experiment: &Experiment<'_, fsp_workloads::Workload>,
    budget_millis: u32,
    scope: ProtectScope,
    samples: usize,
) -> RunEnd {
    let launch = workload.launch();
    let space = experiment.site_space(0..launch.num_threads());
    if space.total_sites() == 0 {
        return RunEnd::Failed("kernel has no fault sites".to_owned());
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let sites: Vec<WeightedSite> = space
        .sample_many(samples, &mut rng)
        .into_iter()
        .map(WeightedSite::from)
        .collect();
    let launch_hash = keyed_launch_hash(workload);
    // Two campaigns of equal site count: baseline, then re-injection.
    reset_progress(shared, id, sites.len() * 2, [0.0; 3]);
    let baseline_outcomes: Vec<Outcome> = match campaign_through_store(
        shared,
        id,
        spec,
        experiment,
        &sites,
        workload.fingerprint(),
        launch_hash,
        cancel,
        None,
    ) {
        Ok(outcomes) => outcomes
            .into_iter()
            .map(|o| o.expect("uncancelled campaign resolves every site"))
            .collect(),
        Err(end) => return end,
    };

    // Plan and transform. Planning is deterministic in (spec, store
    // outcomes), so a resumed or resubmitted job re-derives the same
    // hardened program and hits the same store keys.
    let program = launch.program();
    let plan = plan_protection(
        &PlanInputs {
            program,
            space: &space,
            sites: &sites,
            outcomes: &baseline_outcomes,
            ace: None,
            classify: None,
        },
        scope,
        f64::from(budget_millis) / 1000.0,
    );
    let hardened = match harden(program, &plan.selected_pcs) {
        Ok(hardened) => hardened,
        Err(e) => return RunEnd::Failed(format!("hardening failed: {e}")),
    };
    let protected_target = ProtectedTarget::new(workload, hardened.program.clone());
    let protected_exp = match Experiment::prepare(&protected_target) {
        Ok(e) => e,
        Err(e) => return RunEnd::Failed(format!("hardened golden run failed: {e}")),
    };
    if protected_exp.golden() != experiment.golden() {
        return RunEnd::Failed("hardened kernel broke output transparency".to_owned());
    }
    let tids: BTreeSet<u32> = sites.iter().map(|ws| ws.site.tid).collect();
    let protected_space = protected_exp.site_space(tids);
    let mapped = remap_sites(&hardened, &space, &protected_space, &sites);

    let outcomes: Vec<Outcome> = match campaign_through_store(
        shared,
        id,
        spec,
        &protected_exp,
        &mapped,
        program_fingerprint(&hardened.program),
        launch_hash,
        cancel,
        None,
    ) {
        Ok(outcomes) => outcomes
            .into_iter()
            .map(|o| o.expect("uncancelled campaign resolves every site"))
            .collect(),
        Err(end) => return end,
    };
    RunEnd::Completed(JobResult {
        fingerprint: program_fingerprint(&hardened.program),
        launch: launch_hash,
        sites: sites.len(),
        profile: profile_in_site_order(&mapped, &outcomes),
        early: None,
    })
}

/// Resets a job's progress counters for a (re)run. Resumed jobs reload
/// stale `done`/`partial` values from disk; the store replay below
/// re-derives them.
fn reset_progress(shared: &Shared, id: &str, total: usize, settled: [f64; 3]) {
    let mut jobs = shared.jobs.lock().expect("engine poisoned");
    if let Some(record) = jobs.get_mut(id) {
        record.total = total;
        record.done = 0;
        record.cache_hits = 0;
        record.partial = ResilienceProfile::new();
        record.outcome_counts = [0; 5];
        record.sum_w2 = 0.0;
        record.settled = settled;
        persist(&shared.jobs_dir, record);
    }
}

/// Runs one campaign with the store as cache: resolves hits under the
/// given program fingerprint, injects only the misses (persisting each
/// chunk), and returns the complete outcome vector in site order.
/// Progress is *added* to the job record so a job can chain campaigns.
///
/// `Err` carries the terminal [`RunEnd`] when the campaign was stopped.
#[allow(clippy::too_many_arguments)]
fn campaign_through_store<T: InjectionTarget>(
    shared: &Shared,
    id: &str,
    spec: &JobSpec,
    experiment: &Experiment<'_, T>,
    sites: &[WeightedSite],
    fingerprint: u64,
    launch: u64,
    cancel: &AtomicBool,
    stopper: Option<&Mutex<EarlyStop>>,
) -> Result<Vec<Option<Outcome>>, RunEnd> {
    let _campaign = fsp_obs::span_labeled("serve.campaign", id.to_owned());
    let keys: Vec<OutcomeKey> = sites
        .iter()
        .map(|ws| OutcomeKey::new(fingerprint, launch, spec.model, ws.site))
        .collect();

    // Drain the store: anything this service ever injected for these keys
    // is a hit; only the misses run.
    let resolved: Vec<Option<Outcome>> = {
        let store = shared.store.lock().expect("engine poisoned");
        keys.iter().map(|k| store.get(k)).collect()
    };
    let hits = resolved.iter().filter(|o| o.is_some()).count();
    {
        let mut jobs = shared.jobs.lock().expect("engine poisoned");
        if let Some(record) = jobs.get_mut(id) {
            record.done += hits;
            record.cache_hits += hits;
            for (ws, o) in sites.iter().zip(&resolved) {
                if let Some(o) = o {
                    record.partial.record_weighted(*o, ws.weight);
                    record.outcome_counts[o.code() as usize] += 1;
                    record.sum_w2 += ws.weight * ws.weight;
                    shared.metrics.job_outcome_total[o.code() as usize].inc();
                }
            }
            persist(&shared.jobs_dir, record);
        }
    }
    if let Some(stopper) = stopper {
        let mut tracker = stopper.lock().expect("stop tracker poisoned");
        for (i, o) in resolved.iter().enumerate() {
            if let Some(o) = o {
                tracker.resolve(i, *o);
            }
        }
    }

    let observer = EngineObserver {
        shared,
        id,
        keys: &keys,
        sites,
        cancel,
        stopper,
    };
    let started = Instant::now();
    let run = experiment.run_campaign_incremental(
        sites,
        spec.model,
        shared.campaign_workers,
        &resolved,
        &observer,
    );
    shared.metrics.record_campaign(
        mode_index(spec.mode.mode_name()),
        hits as u64,
        run.injected as u64,
        started.elapsed().as_nanos() as u64,
    );
    shared.metrics.record_fast_path(
        run.checkpoint_hits,
        run.skipped_instructions,
        run.early_converged,
    );
    {
        let mut store = shared.store.lock().expect("engine poisoned");
        let flush_start = fsp_obs::now_ns();
        let _ = store.flush();
        shared
            .metrics
            .store_flush_nanos
            .record(fsp_obs::now_ns() - flush_start);
        if store.appended_since_checkpoint() >= CHECKPOINT_EVERY {
            if let Err(e) = store.checkpoint() {
                eprintln!("fsp-serve: store checkpoint failed: {e}");
            }
        }
    }
    if run.cancelled {
        if shared.shutdown.load(Ordering::Relaxed) {
            return Err(RunEnd::Interrupted);
        }
        if cancel.load(Ordering::Relaxed) {
            return Err(RunEnd::Cancelled);
        }
        // Cancelled by the stop tracker: the contiguous resolved prefix
        // is complete, which is all the caller scores.
        debug_assert!(
            stopper.is_some_and(|s| s.lock().expect("stop tracker poisoned").should_stop())
        );
    }
    Ok(run.outcomes)
}

/// Shards miss indices into lease chunks aligned to batch groups. The
/// worker's batched fast path co-schedules sites that share a CTA onto
/// one golden replay, so a lease boundary that split a CTA group would
/// strand its lanes in thinner batches across two workers. Misses are
/// sorted by (CTA, dynamic index) — sites sharing a resume checkpoint
/// end up adjacent — and a chunk only closes at a CTA boundary once it
/// has reached `chunk_len` (with a 2x hard cap so one huge CTA can't
/// produce an unbounded lease). Outcomes are assembled by plan index,
/// so reordering the misses is invisible to the final profile.
fn batch_aligned_chunks(
    sites: &[WeightedSite],
    mut miss: Vec<usize>,
    chunk_len: usize,
    threads_per_cta: u32,
) -> Vec<Vec<usize>> {
    let tpc = threads_per_cta.max(1);
    miss.sort_by_key(|&i| {
        let s = sites[i].site;
        (s.tid / tpc, s.dyn_idx, s.tid, s.bit)
    });
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    for &i in &miss {
        let cta = sites[i].site.tid / tpc;
        match chunks.last_mut() {
            Some(chunk)
                if chunk.len() < chunk_len * 2
                    && (chunk.len() < chunk_len
                        || sites[*chunk.last().expect("chunk non-empty")].site.tid / tpc
                            == cta) =>
            {
                chunk.push(i);
            }
            _ => chunks.push(vec![i]),
        }
    }
    chunks
}

/// Runs one campaign on the worker fleet: resolves store hits exactly
/// like the in-process path, shards the misses into chunk leases, then
/// supervises until every chunk is delivered by some worker.
///
/// The supervisor never touches the store — outcome frames are persisted
/// (and flushed) by the HTTP submission path *before* a lease is marked
/// done, so by the time a chunk appears here its records are durable.
/// Outcomes are assembled into the plan's site order, which makes the
/// final profile byte-identical to the in-process path regardless of
/// worker count, chunk interleaving, lease steals or duplicate
/// deliveries.
///
/// `Err` carries the terminal [`RunEnd`] when the job was stopped; the
/// job's published leases are retracted so workers stop pulling them.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn fleet_campaign_through_store(
    shared: &Shared,
    id: &str,
    spec: &JobSpec,
    sites: &[WeightedSite],
    fingerprint: u64,
    launch: u64,
    threads_per_cta: u32,
    cancel: &AtomicBool,
    stopper: Option<&Mutex<EarlyStop>>,
) -> Result<Vec<Option<Outcome>>, RunEnd> {
    let _campaign = fsp_obs::span_labeled("serve.fleet_campaign", id.to_owned());
    let keys: Vec<OutcomeKey> = sites
        .iter()
        .map(|ws| OutcomeKey::new(fingerprint, launch, spec.model, ws.site))
        .collect();
    let mut outcomes: Vec<Option<Outcome>> = {
        let store = shared.store.lock().expect("engine poisoned");
        keys.iter().map(|k| store.get(k)).collect()
    };
    let hits = outcomes.iter().filter(|o| o.is_some()).count();
    {
        let mut jobs = shared.jobs.lock().expect("engine poisoned");
        if let Some(record) = jobs.get_mut(id) {
            record.done += hits;
            record.cache_hits += hits;
            for (ws, o) in sites.iter().zip(&outcomes) {
                if let Some(o) = o {
                    record.partial.record_weighted(*o, ws.weight);
                    record.outcome_counts[o.code() as usize] += 1;
                    record.sum_w2 += ws.weight * ws.weight;
                    shared.metrics.job_outcome_total[o.code() as usize].inc();
                }
            }
            persist(&shared.jobs_dir, record);
        }
    }
    if let Some(stopper) = stopper {
        let mut tracker = stopper.lock().expect("stop tracker poisoned");
        for (i, o) in outcomes.iter().enumerate() {
            if let Some(o) = o {
                tracker.resolve(i, *o);
            }
        }
        if tracker.should_stop() {
            // The cached prefix alone satisfies the rule: nothing to lease.
            return Ok(outcomes);
        }
    }

    // Shard the misses, aligned to batch groups; a sampled plan may
    // repeat a site, and every index gets its outcome from its own
    // chunk's map, so repeats are harmless.
    let miss: Vec<usize> = (0..sites.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
    let misses = miss.len();
    let chunk_len = shared.leases.config().chunk_sites.max(1);
    let chunks = batch_aligned_chunks(sites, miss, chunk_len, threads_per_cta);
    let specs: Vec<ChunkSpec> = chunks
        .iter()
        .enumerate()
        .map(|(chunk_idx, indices)| ChunkSpec {
            job: id.to_owned(),
            chunk_idx,
            kernel: spec.kernel.clone(),
            model: spec.model,
            fingerprint,
            launch,
            sites: indices.iter().map(|&i| sites[i].site).collect(),
        })
        .collect();
    let started = Instant::now();
    let mut remaining = specs.len();
    shared.leases.publish(specs);

    while remaining > 0 {
        if shared.shutdown.load(Ordering::Relaxed) || cancel.load(Ordering::Relaxed) {
            shared.leases.retract_job(id);
            if shared.shutdown.load(Ordering::Relaxed) {
                return Err(RunEnd::Interrupted);
            }
            return Err(RunEnd::Cancelled);
        }
        let seen = shared.leases.completions();
        let delivered = shared.leases.take_completed(id);
        if delivered.is_empty() {
            shared
                .leases
                .wait_progress(seen, Duration::from_millis(200));
            continue;
        }
        let mut fresh: Vec<(usize, Outcome)> = Vec::new();
        {
            let mut jobs = shared.jobs.lock().expect("engine poisoned");
            for (chunk_idx, map) in delivered {
                for &i in &chunks[chunk_idx] {
                    let o = *map
                        .get(&sites[i].site)
                        .expect("lease completion covers every chunk site");
                    outcomes[i] = Some(o);
                    fresh.push((i, o));
                    if let Some(record) = jobs.get_mut(id) {
                        record.done += 1;
                        record.partial.record_weighted(o, sites[i].weight);
                        record.outcome_counts[o.code() as usize] += 1;
                        record.sum_w2 += sites[i].weight * sites[i].weight;
                        shared.metrics.job_outcome_total[o.code() as usize].inc();
                    }
                }
                remaining -= 1;
            }
            if let Some(record) = jobs.get_mut(id) {
                persist(&shared.jobs_dir, record);
            }
        }
        shared.leases.prune_delivered(id);
        if let Some(stopper) = stopper {
            let mut tracker = stopper.lock().expect("stop tracker poisoned");
            for (i, o) in fresh {
                tracker.resolve(i, o);
            }
            if tracker.should_stop() {
                // CI convergence: stop issuing leases and retract the
                // job's remaining chunks; in-flight workers see their
                // submissions answered as stale and move on.
                shared.leases.retract_job(id);
                break;
            }
        }
    }
    shared.metrics.record_campaign(
        mode_index(spec.mode.mode_name()),
        hits as u64,
        misses as u64,
        started.elapsed().as_nanos() as u64,
    );
    {
        let mut store = shared.store.lock().expect("engine poisoned");
        if store.appended_since_checkpoint() >= CHECKPOINT_EVERY {
            if let Err(e) = store.checkpoint() {
                eprintln!("fsp-serve: store checkpoint failed: {e}");
            }
        }
    }
    Ok(outcomes)
}

fn error_json(message: &str) -> Json {
    Json::obj([("error", Json::Str(message.to_owned()))])
}

/// The weighted profile of a complete campaign, accumulated in site order
/// (bit-identical across worker counts and cache splits).
fn profile_in_site_order(sites: &[WeightedSite], outcomes: &[Outcome]) -> ResilienceProfile {
    let mut profile = ResilienceProfile::new();
    for (ws, o) in sites.iter().zip(outcomes) {
        profile.record_weighted(*o, ws.weight);
    }
    profile
}

struct EngineObserver<'a> {
    shared: &'a Shared,
    id: &'a str,
    keys: &'a [OutcomeKey],
    sites: &'a [WeightedSite],
    cancel: &'a AtomicBool,
    stopper: Option<&'a Mutex<EarlyStop>>,
}

impl CampaignObserver for EngineObserver<'_> {
    fn on_chunk(&self, indices: &[usize], outcomes: &[Outcome]) {
        {
            let mut store = self.shared.store.lock().expect("engine poisoned");
            // Every reported site is a fresh injection (pre-resolved sites
            // are never re-reported), so each one is appended.
            for (&i, &o) in indices.iter().zip(outcomes) {
                if let Err(e) = store.insert(self.keys[i], o) {
                    eprintln!("fsp-serve: store append failed: {e}");
                }
            }
            // One flush per chunk: a crash loses at most the torn tail of
            // the final in-flight record.
            let flush_start = fsp_obs::now_ns();
            let _ = store.flush();
            self.shared
                .metrics
                .store_flush_nanos
                .record(fsp_obs::now_ns() - flush_start);
        }
        {
            let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
            if let Some(record) = jobs.get_mut(self.id) {
                for (&i, &o) in indices.iter().zip(outcomes) {
                    record.done += 1;
                    record.partial.record_weighted(o, self.sites[i].weight);
                    record.outcome_counts[o.code() as usize] += 1;
                    record.sum_w2 += self.sites[i].weight * self.sites[i].weight;
                    self.shared.metrics.job_outcome_total[o.code() as usize].inc();
                }
            }
        }
        if let Some(stopper) = self.stopper {
            let mut tracker = stopper.lock().expect("stop tracker poisoned");
            for (&i, &o) in indices.iter().zip(outcomes) {
                tracker.resolve(i, o);
            }
        }
    }

    fn should_cancel(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
            || self.cancel.load(Ordering::Relaxed)
            || self
                .stopper
                .is_some_and(|s| s.lock().expect("stop tracker poisoned").should_stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_inject::FaultSite;

    fn site(tid: u32, dyn_idx: u32) -> WeightedSite {
        WeightedSite::from(FaultSite {
            tid,
            dyn_idx,
            bit: 0,
        })
    }

    /// Chunks cover every miss exactly once, never mix CTAs before
    /// reaching the target length, and respect the 2x hard cap.
    #[test]
    fn chunk_formation_aligns_to_cta_groups() {
        let tpc = 4;
        // CTA 0: 3 sites; CTA 1: 11 sites (forces a within-CTA split at
        // the 2x cap); CTA 2: 1 site.
        let sites: Vec<WeightedSite> = (0..3)
            .map(|i| site(i % tpc, i))
            .chain((0..11).map(|i| site(4 + i % tpc, i)))
            .chain([site(9, 0)])
            .collect();
        let miss: Vec<usize> = (0..sites.len()).collect();
        let chunks = batch_aligned_chunks(&sites, miss, 4, tpc);
        let mut seen: Vec<usize> = chunks.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..sites.len()).collect::<Vec<_>>());
        for chunk in &chunks {
            assert!(chunk.len() <= 8, "2x cap violated: {}", chunk.len());
            let ctas: std::collections::BTreeSet<u32> =
                chunk.iter().map(|&i| sites[i].site.tid / tpc).collect();
            // A chunk may only span CTAs past the target length — and
            // then only because the previous CTA's tail filled it.
            if chunk.len() <= 4 {
                assert!(ctas.len() <= 2, "short chunk spans {} CTAs", ctas.len());
            }
        }
        // All three CTAs are covered, and the chunk sequence never
        // returns to a CTA it has moved past (group contiguity).
        let cta_seq: Vec<u32> = chunks
            .iter()
            .flatten()
            .map(|&i| sites[i].site.tid / tpc)
            .collect();
        let mut deduped = cta_seq.clone();
        deduped.dedup();
        assert_eq!(deduped, vec![0, 1, 2], "CTA groups torn: {cta_seq:?}");
    }
}
