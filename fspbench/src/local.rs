//! The local workloads: `run_local` on pruned or sampled specs, two
//! campaign workers, one process.
//!
//! An untraced run repeats whole rounds (every kernel once, the same
//! specs each round). The round count is fixed by `--seconds` and the
//! workload's nominal round time on a 2-core host, so every run measures
//! the same jobs and its percentiles rest on the same job count. A traced run makes one round through
//! the split path, then checks it against `plan_for` and `run_local`.

use std::time::Instant;

use fsp_serve::{run_local, JobSpec, Json};

use crate::host::{cpu_seconds, fnv1a, median, nproc, parse_prometheus, peak_rss_mib, tail};
use crate::split::{self, Counts};
use crate::trace::Tracer;
use crate::{Report, DEFAULT_SEED, UNATTRIBUTED_LIMIT};

/// Campaign worker threads per `run_local` call.
const WORKERS: usize = 2;
/// Set-up repetitions before each job; `setup_s` is the median over all
/// of them, so it samples the host across the whole run.
const SETUP_REPS: usize = 6;
/// Sites per sampled spec.
const SAMPLES: usize = 16_000;
/// Nominal seconds of one round on a 2-core host (pruned, sampled).
const NOMINAL_ROUND_S: [f64; 2] = [15.0, 10.0];

const PRUNED_KERNELS: [&str; 5] = ["hotspot", "pathfinder", "kmeans_k2", "gemm", "nn"];
const SAMPLED_KERNELS: [&str; 5] = ["nn", "kmeans_k1", "gaussian_k2", "pathfinder", "2mm"];

/// Result-document digests pinned at [`DEFAULT_SEED`]:
/// `<workload> <kernel> <fnv1a-64 hex>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

fn specs(workload: &str, seed: u64) -> Vec<JobSpec> {
    let (kernels, pruned) = if workload == "local-pruned" {
        (PRUNED_KERNELS, true)
    } else {
        (SAMPLED_KERNELS, false)
    };
    kernels
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let mut spec = if pruned {
                JobSpec::pruned(k)
            } else {
                JobSpec::sampled(k, SAMPLES)
            };
            spec.seed = crate::host::mix(seed, i as u64);
            spec
        })
        .collect()
}

fn pinned_digest(workload: &str, kernel: &str) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(kernel))
            .then(|| f.next().and_then(|h| u64::from_str_radix(h, 16).ok()))
            .flatten()
    })
}

/// Checks a result document against the digest pinned for the default
/// seed (other seeds have no pinned digest).
fn check_digest(report: &mut Report, workload: &str, seed: u64, kernel: &str, doc: &str) -> bool {
    let got = fnv1a(doc.as_bytes());
    println!("# digest {workload} {kernel} {got:016x}");
    if seed != DEFAULT_SEED {
        return true;
    }
    match pinned_digest(workload, kernel) {
        Some(want) if want == got => true,
        Some(want) => {
            report.problems.push(format!(
                "{kernel}: result digest {got:016x} differs from the pinned {want:016x}"
            ));
            false
        }
        None => {
            report
                .problems
                .push(format!("{kernel}: no pinned digest for {workload}"));
            false
        }
    }
}

fn record_context(report: &mut Report, specs: &[JobSpec], sites: &[u64]) {
    let kernels: Vec<String> = specs.iter().map(|s| format!("\"{}\"", s.kernel)).collect();
    report.note("nproc", nproc());
    report.note("campaign_workers", WORKERS);
    report.note("fleet_workers", 0);
    report.note("kernels", format!("[{}]", kernels.join(", ")));
    report.note(
        "sites_per_job",
        format!(
            "[{}]",
            sites
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Report {
    let specs = specs(workload, seed);
    if trace {
        traced(workload, seed, &specs)
    } else {
        untraced(workload, seed, seconds, &specs)
    }
}

/// Set-up: constructing every workload of the round.
fn setup(specs: &[JobSpec]) -> Result<f64, String> {
    let start = Instant::now();
    for spec in specs {
        split::build(&spec.kernel)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

fn untraced(workload: &str, seed: u64, seconds: f64, specs: &[JobSpec]) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut first_round: Vec<Option<String>> = Vec::new();
    let mut sites_per_job = Vec::new();
    let mut total_sites = 0u64;
    let nominal = NOMINAL_ROUND_S[usize::from(workload != "local-pruned")];
    let rounds = ((seconds / nominal).round() as usize).max(1);
    // Jobs run back to back but for the set-up repetitions between them,
    // which are left out: the measured wall time is the sum of the jobs'.
    let mut wall = 0.0;
    for round in 0..rounds {
        for (i, spec) in specs.iter().enumerate() {
            for _ in 0..SETUP_REPS {
                match setup(specs) {
                    Ok(s) => setups.push(s),
                    Err(e) => report.problems.push(e),
                }
            }
            report.attempted += 1;
            let t = Instant::now();
            let doc = run_local(spec, WORKERS).map(|d| (d.to_string(), d));
            let latency = t.elapsed().as_secs_f64();
            latencies.push(latency);
            wall += latency;
            let (text, doc) = match doc {
                Ok(d) => d,
                Err(e) => {
                    report.failed += 1;
                    report.problems.push(format!("{}: {e}", spec.kernel));
                    if round == 0 {
                        first_round.push(None);
                    }
                    continue;
                }
            };
            let sites = doc.get("sites").and_then(Json::as_u64).unwrap_or(0);
            total_sites += sites;
            let ok = if round == 0 {
                sites_per_job.push(sites);
                let ok = check_digest(&mut report, workload, seed, &spec.kernel, &text);
                first_round.push(Some(text));
                ok
            } else {
                // Every round runs the same specs: documents must repeat.
                first_round[i].as_deref() == Some(text.as_str())
            };
            if !ok || sites == 0 {
                report.failed += 1;
            }
        }
    }
    report.set("setup_s", median(&setups));

    report.set("sites_per_s", total_sites as f64 / wall);
    report.set("job_p50_s", median(&latencies));
    let (tail_s, tail_pct) = tail(&latencies);
    report.set("job_tail_s", tail_s);
    report.set("peak_rss_mb", peak_rss_mib());
    record_context(&mut report, specs, &sites_per_job);
    report.note("rounds", rounds);
    report.note("jobs", latencies.len());
    report.note("p50_jobs", latencies.len());
    report.note("tail_percentile", tail_pct);
    report.note("wall_s", wall);
    report
}

fn traced(workload: &str, seed: u64, specs: &[JobSpec]) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let reg0 = parse_prometheus(&fsp_obs::registry().render());
    let cpu0 = cpu_seconds();
    let from = tr.len();
    let start_ns = tr.now_ns();
    let mut outputs = Vec::new();
    for spec in specs {
        report.attempted += 1;
        let out = tr.span("job", |tr| split::run(tr, spec, WORKERS, true, &mut counts));
        outputs.push(out);
    }
    let wall = (tr.now_ns() - start_ns) as f64 / 1e9;
    let cpu = cpu_seconds() - cpu0;
    let reg1 = parse_prometheus(&fsp_obs::registry().render());
    let spans = tr.len() - from;
    let self_s = tr.self_seconds(from);

    // Checks, outside the traced section: the split path must plan the
    // same sites as `plan_for` and render the same document as
    // `run_local`.
    let mut sites_per_job = Vec::new();
    for (spec, out) in specs.iter().zip(outputs) {
        let ok = match out {
            Ok((Some(doc), sites)) => {
                sites_per_job.push(sites.len() as u64);
                let same_plan = !matches!(spec.mode, fsp_serve::CampaignMode::Pruned { .. })
                    || split::plan_for_sites(spec)
                        .is_ok_and(|want| split::same_sites(&sites, &want));
                if !same_plan {
                    report
                        .problems
                        .push(format!("{}: split plan differs from plan_for", spec.kernel));
                }
                let same_doc = run_local(spec, WORKERS).is_ok_and(|d| d.to_string() == doc);
                if !same_doc {
                    report.problems.push(format!(
                        "{}: split result differs from run_local",
                        spec.kernel
                    ));
                }
                let pinned = check_digest(&mut report, workload, seed, &spec.kernel, &doc);
                same_plan && same_doc && pinned
            }
            Ok((None, _)) => false,
            Err(e) => {
                report.problems.push(format!("{}: {e}", spec.kernel));
                false
            }
        };
        if !ok {
            report.failed += 1;
        }
    }

    split::layer_metrics(&mut report, &self_s, &counts, &reg0, &reg1);
    for name in [
        "store.open_s",
        "store.hit_frac",
        "store.flush_s",
        "serve.submit_s",
        "serve.queue_wait_s",
        "serve.first_outcome_s",
        "serve.campaign_s",
        "serve.result_s",
        "fleet.leases",
        "fleet.heartbeats",
        "fleet.sites_per_lease",
        "fleet.requeues",
        "fleet.duplicates",
    ] {
        report.set(name, 0.0);
    }
    report.set("host.cpu_frac", cpu / (nproc() as f64 * wall));
    report.set(
        "obs.trace_overhead_frac",
        spans as f64 * Tracer::span_cost_s() / wall,
    );
    let unattributed =
        self_s.get("job").copied().unwrap_or(0.0) + (wall - self_s.values().sum::<f64>());
    let unattributed_frac = unattributed / wall;
    report.set("obs.unattributed_frac", unattributed_frac);
    if unattributed_frac > UNATTRIBUTED_LIMIT {
        report.problems.push(format!(
            "layers leave {unattributed_frac:.3} of the traced wall unattributed (limit {UNATTRIBUTED_LIMIT})"
        ));
    }
    record_context(&mut report, specs, &sites_per_job);
    report.note("jobs", specs.len());
    report.note("traced_wall_s", wall);
    report.note("spans", spans);
    report.note(
        "exact_counts",
        format!(
            "{{\"plan_sites\": {}, \"golden_instructions\": {}, \"executed_instructions\": {}, \"injected\": {}}}",
            counts.plan_sites, counts.golden_instructions, counts.executed_instructions, counts.injected
        ),
    );
    report
}
