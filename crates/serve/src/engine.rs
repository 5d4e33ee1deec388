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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fsp_core::{PruningConfig, PruningPipeline};
use fsp_fleet::lease::{ChunkSpec, FleetConfig, LeaseTable, Submission};
use fsp_fleet::wire::{OutcomeFrame, TraceFrame};
use fsp_inject::{CampaignObserver, Experiment, FaultSite, InjectionTarget, WeightedSite};
use fsp_protect::{
    harden_and_verify, harden_and_verify_with, CampaignRunner, HardenConfig, ProtectError,
};
use fsp_stats::stream::{EarlyStop, StopRule, StreamEstimator};
use fsp_stats::{Outcome, ResilienceProfile};
use fsp_workloads::{program_fingerprint, Scale, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::job::{
    CampaignMode, EarlyStopReport, JobRecord, JobResult, JobSpec, JobState, StopSpec,
};
use crate::metrics::{mode_index, Metrics};
use crate::store::OutcomeStore;
use crate::{Json, OutcomeKey};

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
        spec.check()?;
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
        let stale = || {
            (
                200,
                Json::obj([("accepted", Json::u64(0)), ("stale", Json::Bool(true))]),
            )
        };
        // The store lock is held from the lease check to the completion:
        // an early stop retracts a job's leases under the same lock, so a
        // frame's records reach the store only if the supervisor will see
        // its chunk (see `run_on_fleet`).
        let submission = {
            let mut store = self.shared.store.lock().expect("engine poisoned");
            let Some(meta) = self.shared.leases.meta(lease) else {
                return stale();
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
            for (key, outcome) in &frame.records {
                if let Err(e) = store.insert(*key, *outcome) {
                    eprintln!("fsp-serve: store append failed: {e}");
                }
            }
            timed_flush(&mut store, &self.shared.metrics);
            let outcomes: BTreeMap<_, _> =
                frame.records.iter().map(|(k, o)| (k.site, *o)).collect();
            self.shared.leases.complete(lease, &frame.worker, &outcomes)
        };
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
        match submission {
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
            // cancelled or chunk pruned): the records were valid, treat
            // as stale.
            Submission::Unknown => stale(),
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
/// Returns a message for invalid specs, unknown kernels or workload
/// faults.
pub fn run_local(spec: &JobSpec, workers: usize) -> Result<Json, String> {
    spec.check()?;
    match run_spec(spec, Placement::InProcess { workers }) {
        Ok(result) => Ok(crate::job::result_to_json(spec, &result)),
        Err(Halt::Failed(e)) => Err(e),
        Err(Halt::Interrupted | Halt::Cancelled) => {
            unreachable!("nothing halts an in-process campaign")
        }
    }
}

/// Where a job's campaigns run. Placement never reaches the result
/// document: every placement goes through [`run_spec`].
#[derive(Clone, Copy)]
enum Placement<'a> {
    /// [`Experiment::run_campaign_incremental`] on `workers` threads, with
    /// no store ([`run_local`]).
    InProcess { workers: usize },
    /// The engine's outcome store as cache; misses run on the engine's
    /// campaign threads.
    Pool(StoreJob<'a>),
    /// The engine's outcome store as cache; misses are leased to the
    /// worker fleet.
    Fleet(StoreJob<'a>),
}

/// Why a job stopped without a result.
enum Halt {
    /// Stopped by engine shutdown: stays `running` on disk, resumes on
    /// the next open.
    Interrupted,
    Cancelled,
    Failed(String),
}

impl From<ProtectError> for Halt {
    fn from(e: ProtectError) -> Halt {
        Halt::Failed(e.to_string())
    }
}

/// The one campaign sequence of every job, whatever its placement:
/// prepare, plan, run, take the contiguous early-stop prefix, settle the
/// statically accounted mass and report. Protect jobs run
/// [`harden_and_verify_with`]'s sequence instead.
fn run_spec(spec: &JobSpec, placement: Placement<'_>) -> Result<JobResult, Halt> {
    let workload = fsp_workloads::by_id(&spec.kernel, Scale::Eval)
        .ok_or_else(|| Halt::Failed(format!("unknown kernel `{}`", spec.kernel)))?;
    let launch = keyed_launch_hash(&workload);
    if matches!(spec.mode, CampaignMode::Protect { .. }) {
        return run_protect(spec, placement, &workload, launch);
    }
    let experiment = Experiment::prepare(&workload)
        .map_err(|e| Halt::Failed(format!("golden run failed: {e}")))?;
    let planned = plan_sites(spec, &workload, &experiment).map_err(Halt::Failed)?;
    let sites = &planned.sites;
    let fingerprint = workload.fingerprint();
    if let Placement::Pool(job) | Placement::Fleet(job) = placement {
        if let Some(stages) = &planned.stages {
            job.shared.metrics.record_plan(
                stages,
                planned.predicted_crash,
                planned.predicted_detected,
            );
        }
        job.reset_progress(sites.len(), planned.settled3());
    }
    let stopper = spec
        .stop
        .map(|stop| Mutex::new(new_stopper(stop, &planned)));
    let stopper = stopper.as_ref();
    let outcomes = match placement {
        Placement::InProcess { workers } => {
            let feed = CampaignFeed {
                store: None,
                stopper,
            };
            experiment
                .run_campaign_incremental(sites, spec.model, workers, &[], &feed)
                .outcomes
        }
        Placement::Pool(job) | Placement::Fleet(job) => campaign_through_store(
            job,
            spec,
            &experiment,
            sites,
            fingerprint,
            launch,
            stopper,
            matches!(placement, Placement::Fleet(_)),
        )?,
    };
    // Early-stopped campaigns score only the contiguous stopped prefix in
    // plan order — the deterministic basis that makes reruns and every
    // placement byte-identical. Without a stopper the prefix is the whole
    // plan.
    let stopped_at = stopper.and_then(|s| s.lock().expect("stop tracker poisoned").stop_len());
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
    if let (Placement::Pool(job) | Placement::Fleet(job), Some(_)) = (placement, early) {
        // Cancellation is best-effort, so workers may overshoot the
        // stopped prefix; re-baseline the record's streaming counters to
        // the scored prefix so the progress document of a finished job
        // agrees with its result document.
        job.with_record(false, |record| {
            record.outcome_counts = [0; 5];
            record.sum_w2 = 0.0;
            for (ws, o) in sites[..used].iter().zip(&prefix) {
                record.outcome_counts[o.code() as usize] += 1;
                record.sum_w2 += ws.weight * ws.weight;
            }
            if stopped_at.is_some() {
                record.done = used;
                record.cache_hits = record.cache_hits.min(used);
            }
        });
    }
    Ok(JobResult {
        fingerprint,
        launch,
        sites: sites.len(),
        profile,
        early,
    })
}

/// The protect sequence of [`run_spec`]: [`harden_and_verify_with`]
/// with the placement's campaign runner. Protect jobs never reach the
/// fleet (`submit_with` clears the flag), so store placements run both
/// campaigns on the engine's own threads.
fn run_protect(
    spec: &JobSpec,
    placement: Placement<'_>,
    workload: &Workload,
    launch: u64,
) -> Result<JobResult, Halt> {
    let CampaignMode::Protect {
        budget_millis,
        scope,
        samples,
    } = spec.mode
    else {
        unreachable!("run_spec routes only protect jobs here")
    };
    let config = |workers| HardenConfig {
        scope,
        budget: f64::from(budget_millis) / 1000.0,
        samples,
        seed: spec.seed,
        model: spec.model,
        workers,
        use_ace: false,
    };
    let outcome = match placement {
        Placement::InProcess { workers } => harden_and_verify(workload, &config(workers))?,
        Placement::Pool(job) | Placement::Fleet(job) => {
            // Two campaigns of equal site count: baseline, then
            // re-injection.
            job.reset_progress(2 * samples, [0.0; 3]);
            let mut runner = StoreRunner { job, spec, launch };
            harden_and_verify_with(workload, &config(job.shared.campaign_workers), &mut runner)?
        }
    };
    Ok(JobResult {
        fingerprint: program_fingerprint(&outcome.hardened.program),
        launch,
        sites: outcome.report.samples,
        profile: outcome.report.protected,
        early: None,
    })
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
/// statically-accounted weights.
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
        // Protect jobs run two campaigns against two programs;
        // `run_spec` branches to their sequence before planning sites.
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
        let job = StoreJob {
            shared,
            id,
            cancel: &cancel,
        };
        run_spec(
            &spec,
            if fleet {
                Placement::Fleet(job)
            } else {
                Placement::Pool(job)
            },
        )
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
        Ok(result) => {
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
        Err(Halt::Interrupted) => return, // stays `running` on disk
        Err(Halt::Cancelled) => {
            record.state = JobState::Cancelled;
            shared.metrics.jobs_cancelled.inc();
        }
        Err(Halt::Failed(error)) => {
            record.state = JobState::Failed;
            record.error = Some(error);
            shared.metrics.jobs_failed.inc();
        }
    }
    persist(&shared.jobs_dir, record);
}

/// A job running on the engine: the shared state, the job's id and its
/// cancel flag.
#[derive(Clone, Copy)]
struct StoreJob<'a> {
    shared: &'a Shared,
    id: &'a str,
    cancel: &'a AtomicBool,
}

impl StoreJob<'_> {
    /// The halt engine shutdown or a cancel request has called for, if any.
    fn halt(&self) -> Option<Halt> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            Some(Halt::Interrupted)
        } else if self.cancel.load(Ordering::Relaxed) {
            Some(Halt::Cancelled)
        } else {
            None
        }
    }

    /// Updates the job's record under the jobs lock, then persists it if
    /// asked.
    fn with_record(&self, persist_record: bool, update: impl FnOnce(&mut JobRecord)) {
        let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
        if let Some(record) = jobs.get_mut(self.id) {
            update(record);
            if persist_record {
                persist(&self.shared.jobs_dir, record);
            }
        }
    }

    /// Resets the job's progress counters for a (re)run. Resumed jobs
    /// reload stale `done`/`partial` values from disk; the store replay
    /// re-derives them.
    fn reset_progress(&self, total: usize, settled: [f64; 3]) {
        self.with_record(true, |record| {
            record.total = total;
            record.done = 0;
            record.cache_hits = 0;
            record.partial = ResilienceProfile::new();
            record.outcome_counts = [0; 5];
            record.sum_w2 = 0.0;
            record.settled = settled;
        });
    }

    /// Credits resolved `(plan index, outcome)` pairs to the record's live
    /// counters and the per-outcome job metric.
    fn tally(
        &self,
        record: &mut JobRecord,
        sites: &[WeightedSite],
        resolved: impl IntoIterator<Item = (usize, Outcome)>,
    ) {
        for (i, o) in resolved {
            let w = sites[i].weight;
            record.done += 1;
            record.partial.record_weighted(o, w);
            record.outcome_counts[o.code() as usize] += 1;
            record.sum_w2 += w * w;
            self.shared.metrics.job_outcome_total[o.code() as usize].inc();
        }
    }
}

/// Feeds resolved `(plan index, outcome)` pairs to the early-stop tracker,
/// if there is one; returns whether its rule has fired.
fn feed(
    stopper: Option<&Mutex<EarlyStop>>,
    resolved: impl IntoIterator<Item = (usize, Outcome)>,
) -> bool {
    stopper.is_some_and(|s| {
        let mut tracker = s.lock().expect("stop tracker poisoned");
        for (i, o) in resolved {
            tracker.resolve(i, o);
        }
        tracker.should_stop()
    })
}

/// The [`CampaignRunner`] of protect jobs on the engine: both campaigns
/// go through the outcome store, keyed under the fingerprint of the
/// program each one runs. The baseline therefore shares cache entries
/// with sampled jobs of the same kernel, the re-injection keys its
/// outcomes under the *hardened* program, and resubmitting the same
/// protect spec is a pure warm read.
struct StoreRunner<'a> {
    job: StoreJob<'a>,
    spec: &'a JobSpec,
    launch: u64,
}

impl CampaignRunner for StoreRunner<'_> {
    type Error = Halt;

    fn run<T: InjectionTarget>(
        &mut self,
        experiment: &Experiment<'_, T>,
        sites: &[WeightedSite],
        _model: fsp_inject::FaultModel,
    ) -> Result<Vec<Outcome>, Halt> {
        let fingerprint = program_fingerprint(experiment.target().launch().program());
        let outcomes = campaign_through_store(
            self.job,
            self.spec,
            experiment,
            sites,
            fingerprint,
            self.launch,
            None,
            false,
        )?;
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("uncancelled campaign resolves every site"))
            .collect())
    }
}

/// Runs one campaign with the store as cache: resolves hits under the
/// given program fingerprint, runs only the misses — on the engine's
/// campaign threads, or leased to the worker fleet — and returns the
/// outcome vector in site order. Progress is *added* to the job record so
/// a job can chain campaigns.
///
/// `Err` carries the [`Halt`] when shutdown or cancellation stopped the
/// campaign. An early stop returns `Ok`: the contiguous resolved prefix
/// is complete, which is all the caller scores.
#[allow(clippy::too_many_arguments)]
fn campaign_through_store<T: InjectionTarget>(
    job: StoreJob<'_>,
    spec: &JobSpec,
    experiment: &Experiment<'_, T>,
    sites: &[WeightedSite],
    fingerprint: u64,
    launch: u64,
    stopper: Option<&Mutex<EarlyStop>>,
    fleet: bool,
) -> Result<Vec<Option<Outcome>>, Halt> {
    let shared = job.shared;
    let _campaign = fsp_obs::span_labeled(
        if fleet {
            "serve.fleet_campaign"
        } else {
            "serve.campaign"
        },
        job.id.to_owned(),
    );
    let keys: Vec<OutcomeKey> = sites
        .iter()
        .map(|ws| OutcomeKey::new(fingerprint, launch, spec.model, ws.site))
        .collect();

    // Drain the store: anything this service ever injected for these keys
    // is a hit; only the misses run.
    let mut outcomes: Vec<Option<Outcome>> = {
        let store = shared.store.lock().expect("engine poisoned");
        keys.iter().map(|k| store.get(k)).collect()
    };
    let hits: Vec<(usize, Outcome)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.map(|o| (i, o)))
        .collect();
    job.with_record(true, |record| {
        record.cache_hits += hits.len();
        job.tally(record, sites, hits.iter().copied());
    });
    let started = Instant::now();
    let (injected, halted) = if feed(stopper, hits.iter().copied()) {
        // The cached prefix alone satisfies the stop rule: nothing to run.
        (0, false)
    } else if fleet {
        let threads_per_cta = experiment.target().launch().threads_per_cta();
        run_on_fleet(
            job,
            spec,
            sites,
            &mut outcomes,
            fingerprint,
            launch,
            threads_per_cta,
            stopper,
        )
    } else {
        let feed = CampaignFeed {
            store: Some((job, &keys, sites)),
            stopper,
        };
        let run = experiment.run_campaign_incremental(
            sites,
            spec.model,
            shared.campaign_workers,
            &outcomes,
            &feed,
        );
        shared.metrics.record_fast_path(
            run.checkpoint_hits,
            run.skipped_instructions,
            run.early_converged,
        );
        timed_flush(
            &mut shared.store.lock().expect("engine poisoned"),
            &shared.metrics,
        );
        outcomes = run.outcomes;
        (run.injected, run.cancelled)
    };
    shared.metrics.record_campaign(
        mode_index(spec.mode.mode_name()),
        hits.len() as u64,
        injected as u64,
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
    match job.halt() {
        Some(halt) if halted => Err(halt),
        _ => Ok(outcomes),
    }
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

/// Runs a campaign's store misses on the worker fleet: shards them into
/// chunk leases, then supervises until every chunk is delivered by some
/// worker or the stop rule fires. Returns the sites delivered and whether
/// shutdown or cancellation halted the job (its published leases are
/// then retracted so workers stop pulling them).
///
/// The supervisor never writes the store — outcome frames are persisted
/// (and flushed) by the HTTP submission path *before* a lease is marked
/// done, so by the time a chunk appears here its records are durable.
/// Outcomes are assembled into the plan's site order, which makes the
/// final profile byte-identical to the in-process path regardless of
/// worker count, chunk interleaving, lease steals or duplicate
/// deliveries.
#[allow(clippy::too_many_arguments)]
fn run_on_fleet(
    job: StoreJob<'_>,
    spec: &JobSpec,
    sites: &[WeightedSite],
    outcomes: &mut [Option<Outcome>],
    fingerprint: u64,
    launch: u64,
    threads_per_cta: u32,
    stopper: Option<&Mutex<EarlyStop>>,
) -> (usize, bool) {
    let (shared, id) = (job.shared, job.id);
    // Shard the misses, aligned to batch groups; a sampled plan may
    // repeat a site, and every index gets its outcome from its own
    // chunk's map, so repeats are harmless.
    let miss: Vec<usize> = (0..sites.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
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
    let mut remaining = specs.len();
    shared.leases.publish(specs);

    let mut delivered_sites = 0;
    // Fills `outcomes` from delivered chunks and credits them to the job.
    let mut deliver = |delivered: Vec<(usize, BTreeMap<FaultSite, Outcome>)>| {
        let fresh: Vec<(usize, Outcome)> = delivered
            .iter()
            .flat_map(|(chunk_idx, map)| {
                chunks[*chunk_idx].iter().map(|&i| {
                    let o = map
                        .get(&sites[i].site)
                        .expect("lease completion covers every chunk site");
                    (i, *o)
                })
            })
            .collect();
        for &(i, o) in &fresh {
            outcomes[i] = Some(o);
        }
        delivered_sites += fresh.len();
        job.with_record(true, |record| {
            job.tally(record, sites, fresh.iter().copied());
        });
        shared.leases.prune_delivered(id);
        fresh
    };
    while remaining > 0 {
        if job.halt().is_some() {
            shared.leases.retract_job(id);
            return (delivered_sites, true);
        }
        let seen = shared.leases.completions();
        let delivered = shared.leases.take_completed(id);
        if delivered.is_empty() {
            shared
                .leases
                .wait_progress(seen, Duration::from_millis(200));
            continue;
        }
        remaining -= delivered.len();
        if feed(stopper, deliver(delivered)) {
            // CI convergence: retract the job's remaining chunks, so
            // in-flight workers see their submissions answered as stale.
            // The submission path holds the store lock from its lease
            // check to its completion, so under that lock every chunk
            // whose records reached the store is either taken here or
            // already taken — delivered sites are exactly the sites this
            // job added to the store.
            let late = {
                let _store = shared.store.lock().expect("engine poisoned");
                let late = shared.leases.take_completed(id);
                shared.leases.retract_job(id);
                late
            };
            deliver(late);
            break;
        }
    }
    (delivered_sites, false)
}

/// Flushes the store's buffered appends, timing the flush.
fn timed_flush(store: &mut OutcomeStore, metrics: &Metrics) {
    let flush_start = fsp_obs::now_ns();
    let _ = store.flush();
    metrics
        .store_flush_nanos
        .record(fsp_obs::now_ns() - flush_start);
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

/// The campaign observer of every placement. With a store job it appends
/// each chunk to the store and credits the job record; with a stopper it
/// feeds the early-stop tracker and cancels once the rule fires.
struct CampaignFeed<'a> {
    store: Option<(StoreJob<'a>, &'a [OutcomeKey], &'a [WeightedSite])>,
    stopper: Option<&'a Mutex<EarlyStop>>,
}

impl CampaignObserver for CampaignFeed<'_> {
    fn on_chunk(&self, indices: &[usize], outcomes: &[Outcome]) {
        let resolved = || indices.iter().copied().zip(outcomes.iter().copied());
        if let Some((job, keys, sites)) = self.store {
            {
                let mut store = job.shared.store.lock().expect("engine poisoned");
                // Every reported site is a fresh injection (pre-resolved
                // sites are never re-reported), so each one is appended.
                for (i, o) in resolved() {
                    if let Err(e) = store.insert(keys[i], o) {
                        eprintln!("fsp-serve: store append failed: {e}");
                    }
                }
                // One flush per chunk: a crash loses at most the torn tail
                // of the final in-flight record.
                timed_flush(&mut store, &job.shared.metrics);
            }
            job.with_record(false, |record| job.tally(record, sites, resolved()));
        }
        feed(self.stopper, resolved());
    }

    fn should_cancel(&self) -> bool {
        self.store.is_some_and(|(job, ..)| job.halt().is_some()) || feed(self.stopper, [])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
