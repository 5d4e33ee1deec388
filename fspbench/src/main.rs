//! End-to-end and per-layer benchmark of fault-site-pruning campaigns.
//!
//! ```text
//! cargo run --release --offline --manifest-path fspbench/Cargo.toml -- \
//!     --workload <local-pruned|local-sampled|served-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics; a traced
//! run (`--trace 1`) replays the workload's jobs through the benchmark's
//! own spans and counter deltas and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod host;
mod local;
mod served;
mod split;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seed whose local result documents are pinned by `digests.txt`.
pub const DEFAULT_SEED: u64 = 7;

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("sites_per_s", "sites/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units.
const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.build_s", "s"),
    ("sim.prepare_s", "s"),
    ("sim.golden_instructions", "count"),
    ("sim.checkpoints", "count"),
    ("plan.trace_s", "s"),
    ("plan.group_s", "s"),
    ("plan.stages_s", "s"),
    ("plan.sample_s", "s"),
    ("plan.sites", "count"),
    ("analyze.absint_s", "s"),
    ("inject.campaign_s", "s"),
    ("inject.sites_per_s", "sites/s"),
    ("inject.executed_instructions", "count"),
    ("inject.ns_per_instruction", "ns"),
    ("inject.checkpoint_hit_frac", "ratio"),
    ("inject.skipped_frac", "ratio"),
    ("inject.early_converged_frac", "ratio"),
    ("inject.lane_occupancy", "lanes"),
    ("inject.demoted_frac", "ratio"),
    ("inject.solo_runs", "count"),
    ("store.open_s", "s"),
    ("store.hit_frac", "ratio"),
    ("store.flush_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.first_outcome_s", "s"),
    ("serve.campaign_s", "s"),
    ("serve.result_s", "s"),
    ("fleet.leases", "count"),
    ("fleet.heartbeats", "count"),
    ("fleet.sites_per_lease", "sites"),
    ("fleet.requeues", "count"),
    ("fleet.duplicates", "count"),
    ("host.cpu_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.unattributed_frac", "ratio"),
];

/// Largest share of the traced wall time the named layers may leave
/// unattributed before the traced run is marked incorrect.
pub const UNATTRIBUTED_LIMIT: f64 = 0.05;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs attempted (a `run_local` call or a served job).
    pub attempted: u64,
    /// Jobs that failed, timed out or returned a wrong result document.
    pub failed: u64,
    /// Check failures that are not attributable to one job.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Recorded context, as pre-encoded JSON values.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.context.push((key, value.to_string()));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fspbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "local-pruned" | "local-sampled" => {
            local::run(&args.workload, args.seed, args.seconds, args.trace)
        }
        "served-fleet" => served::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("fspbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    if report.attempted == 0 {
        report.attempted = 1;
        report.failed = 1;
        report.problems.push("no job ran".to_owned());
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in wanted {
        if !report.metrics.contains_key(name) {
            report
                .problems
                .push(format!("metric {name} was not measured"));
        }
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.note("failed_frac", failed_frac);
    for p in &report.problems {
        println!("# problem: {p}");
    }
    let mut context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}",
        args.workload, args.seed, args.trace
    );
    for (k, v) in &report.context {
        let _ = write!(context, ", \"{k}\": {v}");
    }
    context.push('}');
    println!("# context {context}");
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    let correct = report.failed == 0 && report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
