//! The served-fleet workload: an in-process `Engine` and `Server` on
//! loopback, two `run_worker` threads, and one closed-loop client that
//! keeps one job outstanding at a time.
//!
//! The job mix repeats a four-job cycle: cold sampled specs over gemm,
//! hotspot and pathfinder (fresh seeds, sent with `submit_fleet`), then a
//! warm repeat of a spec whose outcomes the store already holds (sent
//! with `submit`, served from the store). Cold seeds are drawn so that
//! none of a cold job's sites is in the store yet, which bounds how many
//! cycles one store holds; a run is a fixed number of epochs, each with a
//! fresh store filled and set up before its jobs. Completion is observed
//! by polling `Engine::job_json` in-process every millisecond; the job's
//! latency ends when its result document has been fetched over HTTP.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fsp_fleet::{run_worker, WorkerConfig, WorkerSummary};
use fsp_inject::{Experiment, FaultSite, InjectionTarget};
use fsp_serve::{run_local, Client, Engine, EngineConfig, JobSpec, Json, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::{cpu_seconds, delta, median, mix, nproc, parse_prometheus, peak_rss_mib, tail};
use crate::split::{self, Counts};
use crate::trace::Tracer;
use crate::{Report, UNATTRIBUTED_LIMIT};

const KERNELS: [&str; 3] = ["gemm", "hotspot", "pathfinder"];
/// Sites per sampled job.
const SAMPLES: usize = 500;
/// `run_worker` threads; each runs its leases on one campaign thread.
const FLEET_WORKERS: usize = 2;
/// Campaign threads for filling the store and for the reference
/// `run_local` documents.
const LOCAL_WORKERS: usize = 2;
/// Set-up repetitions per epoch; `setup_s` is the median over all.
const SETUP_REPS: usize = 5;
/// Cycles per epoch. An epoch is one store: its cold seeds are drawn so
/// their sites are disjoint, which bounds how many fit in one store.
/// A traced run is one epoch (a fixed job list, so counts repeat).
const EPOCH_CYCLES: usize = 15;
/// Seconds of `--seconds` per epoch. An untraced run makes
/// `round(seconds / SECONDS_PER_EPOCH)` epochs, so every run measures the
/// same jobs (and the fleet's per-worker experiment caches, one set per
/// epoch, weigh the same in `peak_rss_mb`). An epoch's job window takes
/// 6–9 s on a 2-core host; its store fill, set-up and `run_local` checks
/// take the rest of the budget.
const SECONDS_PER_EPOCH: f64 = 10.0;
/// Completion polling interval.
const POLL: Duration = Duration::from_millis(1);
/// A job not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone)]
struct Job {
    spec: JobSpec,
    warm: bool,
}

/// Draws the warm specs and the job list. Every spec's sampled sites are
/// disjoint from all sites drawn before it, so a cold job never finds
/// any of its outcomes in the store.
fn inputs(seed: u64, cycles: usize) -> Result<(Vec<JobSpec>, Vec<Job>), String> {
    let workloads = KERNELS
        .iter()
        .map(|k| split::build(k))
        .collect::<Result<Vec<_>, _>>()?;
    let experiments = workloads
        .iter()
        .map(|w| Experiment::prepare(w).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let spaces: Vec<_> = experiments
        .iter()
        .map(|e| e.site_space(0..e.target().launch().num_threads()))
        .collect();
    let mut used: Vec<HashSet<FaultSite>> = vec![HashSet::new(); KERNELS.len()];
    let mut draw = |k: usize, salt: u64| -> Result<JobSpec, String> {
        for attempt in 0..1_000_000u64 {
            let s = mix(seed, (salt << 24) | attempt);
            let sites = spaces[k].sample_many(SAMPLES, &mut StdRng::seed_from_u64(s));
            if sites.iter().all(|site| !used[k].contains(site)) {
                used[k].extend(sites);
                let mut spec = JobSpec::sampled(KERNELS[k], SAMPLES);
                spec.seed = s;
                return Ok(spec);
            }
        }
        Err(format!("no fresh seed for {}", KERNELS[k]))
    };
    let warm = (0..KERNELS.len())
        .map(|k| draw(k, 1 + k as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let mut jobs = Vec::new();
    for c in 0..cycles {
        for k in 0..KERNELS.len() {
            jobs.push(Job {
                spec: draw(k, 16 + (c * KERNELS.len() + k) as u64)?,
                warm: false,
            });
        }
        jobs.push(Job {
            spec: warm[c % warm.len()].clone(),
            warm: true,
        });
    }
    Ok((warm, jobs))
}

/// A running engine, HTTP server and fleet.
struct Live {
    engine: Arc<Engine>,
    server: ServerHandle,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<Result<WorkerSummary, String>>>,
    addr: String,
}

/// Set-up: construct the mix's workloads, open the engine over the data
/// directory, bind the server and start the fleet. Returns the live
/// system, the set-up seconds and the `Engine::open` seconds.
fn start(data_dir: &Path) -> Result<(Live, f64, f64), String> {
    let t0 = Instant::now();
    for k in KERNELS {
        split::build(k)?;
    }
    let open0 = Instant::now();
    let mut config = EngineConfig::new(data_dir).job_workers(1);
    config.campaign_workers = 1;
    let engine = Arc::new(Engine::open(config).map_err(|e| format!("opening engine: {e}"))?);
    let open_s = open0.elapsed().as_secs_f64();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine))
        .and_then(Server::spawn)
        .map_err(|e| format!("binding server: {e}"))?;
    let addr = server.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let workers = (0..FLEET_WORKERS)
        .map(|i| {
            let config = WorkerConfig::new(addr.clone(), format!("bench-w{i}"));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_worker(&config, &stop))
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((
        Live {
            engine,
            server,
            stop,
            workers,
            addr,
        },
        setup_s,
        open_s,
    ))
}

impl Live {
    fn shutdown(self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        let mut result = Ok(());
        for w in self.workers {
            match w.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => result = Err(format!("fleet worker: {e}")),
                Err(_) => result = Err("fleet worker panicked".to_owned()),
            }
        }
        self.server.stop();
        self.engine.shutdown();
        result
    }
}

/// What the client saw of one job, in seconds since its submit call.
#[derive(Debug, Default, Clone)]
struct Observed {
    submitted: f64,
    running: f64,
    first_outcome: f64,
    finished: f64,
    latency: f64,
    doc: Option<String>,
    sites: u64,
    cache_hits: u64,
    total: u64,
    error: Option<String>,
}

fn field(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Submits one job and follows it to its result document.
fn run_job(live: &Live, client: &Client, job: &Job) -> Observed {
    let t0 = Instant::now();
    let at = || t0.elapsed().as_secs_f64();
    let mut obs = Observed::default();
    let id = if job.warm {
        client.submit(&job.spec)
    } else {
        client.submit_fleet(&job.spec)
    };
    obs.submitted = at();
    let id = match id {
        Ok(id) => id,
        Err(e) => {
            obs.error = Some(format!("submit: {e}"));
            return obs;
        }
    };
    let (mut running, mut first) = (None, None);
    let state = loop {
        let Some(status) = live.engine.job_json(&id) else {
            break "unknown".to_owned();
        };
        let state = status.get("state").and_then(Json::as_str).unwrap_or("");
        if state != "queued" && running.is_none() {
            running = Some(at());
        }
        if field(&status, "done") > 0 && first.is_none() {
            first = Some(at());
        }
        if !matches!(state, "queued" | "running") {
            obs.cache_hits = field(&status, "cache_hits");
            obs.total = field(&status, "total");
            break state.to_owned();
        }
        if t0.elapsed() > JOB_TIMEOUT {
            live.engine.cancel(&id);
            break "timed out".to_owned();
        }
        std::thread::sleep(POLL);
    };
    obs.finished = at();
    obs.running = running.unwrap_or(obs.finished);
    obs.first_outcome = first.unwrap_or(obs.finished);
    if state != "completed" {
        obs.error = Some(format!("job {id} ended {state}"));
        obs.latency = at();
        return obs;
    }
    let result = client.result(&id);
    obs.latency = at();
    match result {
        Ok(doc) => {
            obs.sites = field(&doc, "sites");
            obs.doc = Some(doc.to_string());
        }
        Err(e) => obs.error = Some(format!("result: {e}")),
    }
    obs
}

/// Runs the jobs back to back, one outstanding at a time. Returns the
/// observations and the wall seconds from the first submit to the last
/// result document.
fn drive(live: &Live, jobs: &[Job], mut tr: Option<&mut Tracer>) -> (Vec<Observed>, f64) {
    let client = Client::new(live.addr.clone());
    let mut seen = Vec::new();
    let start = Instant::now();
    for job in jobs {
        let base = tr.as_ref().map_or(0, |t| t.now_ns());
        let obs = run_job(live, &client, job);
        if let Some(t) = tr.as_deref_mut() {
            let ns = |s: f64| base + (s * 1e9) as u64;
            let job = Some(t.record("job", None, base, ns(obs.latency)));
            t.record("serve.submit", job, base, ns(obs.submitted));
            t.record("serve.queue_wait", job, ns(obs.submitted), ns(obs.running));
            t.record(
                "serve.first_outcome",
                job,
                ns(obs.running),
                ns(obs.first_outcome),
            );
            t.record(
                "serve.campaign",
                job,
                ns(obs.first_outcome),
                ns(obs.finished),
            );
            t.record("serve.result", job, ns(obs.finished), ns(obs.latency));
        }
        seen.push(obs);
    }
    (seen, start.elapsed().as_secs_f64())
}

/// Checks every job against its expectations: completed, the right
/// cache-hit count, and a result document byte-identical to `run_local`
/// of the same spec (computed here, outside the measured window).
fn check(report: &mut Report, jobs: &[Job], seen: &[Observed], warm_docs: &[(JobSpec, String)]) {
    for (job, obs) in jobs.iter().zip(seen) {
        report.attempted += 1;
        let problem = if let Some(e) = &obs.error {
            Some(e.clone())
        } else if job.warm && (obs.total == 0 || obs.cache_hits != obs.total) {
            Some(format!(
                "warm repeat hit {} of {}",
                obs.cache_hits, obs.total
            ))
        } else if !job.warm && obs.cache_hits != 0 {
            Some(format!("cold job hit the store {} times", obs.cache_hits))
        } else {
            let want = if job.warm {
                warm_docs
                    .iter()
                    .find(|(s, _)| s.seed == job.spec.seed && s.kernel == job.spec.kernel)
                    .map(|(_, d)| d.clone())
            } else {
                run_local(&job.spec, LOCAL_WORKERS)
                    .ok()
                    .map(|d| d.to_string())
            };
            (want.as_deref() != obs.doc.as_deref())
                .then(|| "result differs from run_local".to_owned())
        };
        if let Some(p) = problem {
            report.failed += 1;
            report
                .problems
                .push(format!("{} seed {}: {p}", job.spec.kernel, job.spec.seed));
        }
    }
}

fn data_dir() -> PathBuf {
    PathBuf::from(".bench_data").join(format!("served-fleet-{}", std::process::id()))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let dir = data_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = Report::default();
    if let Err(e) = run_in(&mut report, &dir, seed, seconds, trace) {
        report.problems.push(e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_data");
    report
}

/// Fills a fresh store with the warm specs (through the engine's
/// in-process path) and returns their `run_local` reference documents.
fn fill(dir: &Path, warm: &[JobSpec]) -> Result<Vec<(JobSpec, String)>, String> {
    let mut config = EngineConfig::new(dir).job_workers(1);
    config.campaign_workers = LOCAL_WORKERS;
    let engine = Engine::open(config).map_err(|e| format!("opening engine: {e}"))?;
    let mut docs = Vec::new();
    for spec in warm {
        let id = engine.submit(spec.clone())?;
        while engine
            .job_json(&id)
            .and_then(|j| j.get("state").and_then(Json::as_str).map(str::to_owned))
            .is_some_and(|s| s == "queued" || s == "running")
        {
            std::thread::sleep(POLL);
        }
        docs.push((spec.clone(), run_local(spec, LOCAL_WORKERS)?.to_string()));
    }
    engine.shutdown();
    Ok(docs)
}

fn run_in(
    report: &mut Report,
    dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut all_jobs = Vec::new();
    let mut all_seen = Vec::new();
    let mut wall = 0.0;
    let epochs = if trace {
        1
    } else {
        ((seconds / SECONDS_PER_EPOCH).round() as usize).max(1)
    };
    for epoch in 0..epochs {
        // Each epoch has a store of its own, filled before its jobs.
        let dir = dir.join(format!("epoch-{epoch}"));
        let (warm, jobs) = inputs(mix(seed, epoch as u64), EPOCH_CYCLES)?;
        let warm_docs = fill(&dir, &warm)?;

        // Set-up, several times over the filled data directory; the last
        // system stays up for the measured jobs.
        let mut live = None;
        for rep in 0..SETUP_REPS {
            let (l, setup_s, open_s) = start(&dir)?;
            setups.push(setup_s);
            opens.push(open_s);
            if rep + 1 == SETUP_REPS {
                live = Some(l);
            } else {
                l.shutdown()?;
            }
        }
        let live = live.expect("at least one set-up");

        let client = Client::new(live.addr.clone());
        let metrics0 = parse_prometheus(&client.metrics()?);
        let cpu0 = cpu_seconds();
        let mut tr = Tracer::new();
        let (seen, epoch_wall) = drive(&live, &jobs, trace.then_some(&mut tr));
        let cpu = cpu_seconds() - cpu0;
        let metrics1 = parse_prometheus(&client.metrics()?);
        live.shutdown()?;
        check(report, &jobs, &seen, &warm_docs);
        if trace {
            traced_metrics(
                report, &mut tr, &seen, &jobs, epoch_wall, cpu, &metrics0, &metrics1, &opens,
            )?;
        }
        wall += epoch_wall;
        all_jobs.extend(jobs);
        all_seen.extend(seen);
    }
    let seen = all_seen;
    let jobs = all_jobs;

    report.set("setup_s", median(&setups));
    if !trace {
        let latencies: Vec<f64> = seen.iter().map(|o| o.latency).collect();
        let sites: u64 = seen.iter().map(|o| o.sites).sum();
        report.set("sites_per_s", sites as f64 / wall);
        report.set("job_p50_s", median(&latencies));
        let (tail_s, pct) = tail(&latencies);
        report.set("job_tail_s", tail_s);
        report.set("peak_rss_mb", peak_rss_mib());
        report.note("tail_percentile", pct);
    }
    let kernels: Vec<String> = KERNELS.iter().map(|k| format!("\"{k}\"")).collect();
    report.note("nproc", nproc());
    report.note("campaign_workers", 1);
    report.note("fleet_workers", FLEET_WORKERS);
    report.note("kernels", format!("[{}]", kernels.join(", ")));
    report.note(
        "sites_per_job",
        format!(
            "[{}]",
            seen.iter()
                .map(|o| o.sites.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    report.note("jobs", seen.len());
    report.note("cold_jobs", jobs.iter().filter(|j| !j.warm).count());
    report.note("warm_jobs", jobs.iter().filter(|j| j.warm).count());
    report.note("p50_jobs", seen.len());
    report.note("setups", setups.len());
    report.note("wall_s", wall);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    report: &mut Report,
    tr: &mut Tracer,
    seen: &[Observed],
    jobs: &[Job],
    wall: f64,
    cpu: f64,
    m0: &std::collections::BTreeMap<String, f64>,
    m1: &std::collections::BTreeMap<String, f64>,
    opens: &[f64],
) -> Result<(), String> {
    let spans = tr.len();
    let window = tr.self_seconds(0);
    let p50 = |f: fn(&Observed) -> f64| median(&seen.iter().map(f).collect::<Vec<_>>());
    report.set("serve.submit_s", p50(|o| o.submitted));
    report.set("serve.queue_wait_s", p50(|o| o.running - o.submitted));
    report.set(
        "serve.first_outcome_s",
        p50(|o| o.first_outcome - o.running),
    );
    report.set("serve.campaign_s", p50(|o| o.finished - o.first_outcome));
    report.set("serve.result_s", p50(|o| o.latency - o.finished));
    report.set("store.open_s", median(opens));
    let hits = delta(m0, m1, "fsp_cache_hits_total");
    let misses = delta(m0, m1, "fsp_cache_misses_total");
    report.set("store.hit_frac", hits / (hits + misses).max(1.0));
    report.set(
        "store.flush_s",
        delta(m0, m1, "fsp_store_flush_nanos_sum") / 1e9,
    );
    let leases = delta(m0, m1, "fsp_fleet_leases_granted_total");
    report.set("fleet.leases", leases);
    report.set(
        "fleet.heartbeats",
        delta(m0, m1, "fsp_fleet_heartbeats_total"),
    );
    let chunks = delta(m0, m1, "fsp_fleet_chunks_completed_total");
    report.set(
        "fleet.sites_per_lease",
        delta(m0, m1, "fsp_fleet_sites_completed_total") / chunks.max(1.0),
    );
    report.set(
        "fleet.requeues",
        delta(m0, m1, "fsp_fleet_lease_requeues_total"),
    );
    report.set(
        "fleet.duplicates",
        delta(m0, m1, "fsp_fleet_duplicate_submissions_total"),
    );
    report.set("host.cpu_frac", cpu / (nproc() as f64 * wall));
    report.set(
        "obs.trace_overhead_frac",
        spans as f64 * Tracer::span_cost_s() / wall,
    );
    let unattributed =
        window.get("job").copied().unwrap_or(0.0) + (wall - window.values().sum::<f64>());
    let unattributed_frac = unattributed / wall;
    report.set("obs.unattributed_frac", unattributed_frac);
    if unattributed_frac > UNATTRIBUTED_LIMIT {
        report.problems.push(format!(
            "serve phases leave {unattributed_frac:.3} of the traced wall unattributed (limit {UNATTRIBUTED_LIMIT})"
        ));
    }

    // The engine and the fleet make the build, prepare, planning and
    // injection calls internally, out of reach of a span from here:
    // replay the same jobs through the split path (cold jobs inject on
    // the fleet's two threads; warm repeats plan only, as the engine
    // does before it finds every outcome in the store).
    let reg0 = parse_prometheus(&fsp_obs::registry().render());
    let mut counts = Counts::default();
    let probe_from = tr.len();
    for (job, obs) in jobs.iter().zip(seen) {
        let (doc, _) = tr.span("probe", |t| {
            split::run(t, &job.spec, FLEET_WORKERS, !job.warm, &mut counts)
        })?;
        if doc.is_some() && doc != obs.doc {
            report.problems.push(format!(
                "{} seed {}: split replay differs from the served result",
                job.spec.kernel, job.spec.seed
            ));
        }
    }
    let reg1 = parse_prometheus(&fsp_obs::registry().render());
    split::layer_metrics(report, &tr.self_seconds(probe_from), &counts, &reg0, &reg1);
    report.note("traced_wall_s", wall);
    report.note("spans", spans);
    report.note(
        "exact_counts",
        format!(
            "{{\"leases\": {leases}, \"plan_sites\": {}, \"golden_instructions\": {}, \"executed_instructions\": {}}}",
            counts.plan_sites, counts.golden_instructions, counts.executed_instructions
        ),
    );
    Ok(())
}
