//! The traced split of one campaign: the same calls `run_local` makes,
//! made one layer at a time from the benchmark so each can be timed from
//! outside, around the call into its public function.
//!
//! `workloads.build` → `sim.prepare` → `plan.trace` (`site_space`) →
//! `plan.group` (`ThreadGrouping`) → `plan.trace` (representatives' full
//! traces) → `analyze.absint` (`ClassifyReport::analyze`) → `plan.stages`
//! (`plan_classified`) → `inject.campaign` (`run_campaign_incremental`),
//! or for sampled specs `plan.trace` → `plan.sample` (`sample_many`).

use fsp_core::{abs_context_for, ClassifyReport, PruningConfig, PruningPipeline, ThreadGrouping};
use fsp_inject::{Experiment, InjectionTarget, NopObserver, WeightedSite};
use fsp_serve::job::{result_to_json, JobResult};
use fsp_serve::{CampaignMode, JobSpec};
use fsp_stats::{Outcome, ResilienceProfile};
use fsp_workloads::{Scale, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::cpu_seconds;
use crate::trace::Tracer;

/// Exact work counts summed over the split campaigns of a traced section.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub golden_instructions: u64,
    pub checkpoints: u64,
    pub plan_sites: u64,
    pub injected: u64,
    pub executed_instructions: u64,
    pub skipped_instructions: u64,
    pub checkpoint_hits: u64,
    pub early_converged: u64,
    pub batch_replays: u64,
    pub batch_lanes: u64,
    /// Process CPU seconds spent inside injection campaigns.
    pub campaign_cpu_s: f64,
}

/// A planned campaign plus the weight the planner settled statically.
struct Planned {
    sites: Vec<WeightedSite>,
    settled: [f64; 3],
}

/// The launch-hash field of result documents and store keys.
pub fn keyed_launch_hash(w: &Workload) -> u64 {
    w.launch_hash()
        ^ fsp_inject::classifier_hash()
        ^ fsp_analyze::absint_version()
        ^ fsp_inject::batch_version()
}

pub fn build(kernel: &str) -> Result<Workload, String> {
    fsp_workloads::by_id(kernel, Scale::Eval).ok_or_else(|| format!("unknown kernel `{kernel}`"))
}

fn pruning_config(spec: &JobSpec) -> Option<PruningConfig> {
    match spec.mode {
        CampaignMode::Pruned {
            static_ace,
            loop_samples,
        } => Some(PruningConfig {
            static_ace,
            loop_samples,
            loop_seed: spec.seed,
            ..PruningConfig::default()
        }),
        _ => None,
    }
}

fn plan(
    tr: &mut Tracer,
    spec: &JobSpec,
    exp: &Experiment<'_, Workload>,
    counts: &mut Counts,
) -> Result<Planned, String> {
    let planned = match spec.mode {
        CampaignMode::Pruned { .. } => {
            let config = pruning_config(spec).expect("pruned spec");
            let summary = tr.span("plan.trace", |_| exp.site_space(std::iter::empty()));
            let reps: Vec<u32> = tr.span("plan.group", |_| {
                ThreadGrouping::analyze_with(summary.trace(), config.cta_key)
                    .representatives(summary.trace())
                    .iter()
                    .map(|r| r.tid)
                    .collect()
            });
            drop(summary);
            let full = tr.span("plan.trace", |_| exp.site_space(reps));
            let launch = exp.target().launch();
            let program = launch.program();
            let classify = tr.span("analyze.absint", |_| {
                config
                    .absint
                    .then(|| ClassifyReport::analyze(program, &abs_context_for(exp.target())))
            });
            let plan = tr.span("plan.stages", |_| {
                PruningPipeline::new(config).plan_classified(
                    program,
                    full.trace(),
                    classify.as_ref(),
                )
            });
            Planned {
                sites: plan.sites,
                settled: [
                    plan.assumed_masked_weight,
                    plan.predicted_crash_weight,
                    plan.predicted_detected_weight,
                ],
            }
        }
        CampaignMode::Sampled { samples } => {
            let threads = exp.target().launch().num_threads();
            let space = tr.span("plan.trace", |_| exp.site_space(0..threads));
            let sites = tr.span("plan.sample", |_| {
                let mut rng = StdRng::seed_from_u64(spec.seed);
                space
                    .sample_many(samples, &mut rng)
                    .into_iter()
                    .map(WeightedSite::from)
                    .collect()
            });
            Planned {
                sites,
                settled: [0.0; 3],
            }
        }
        CampaignMode::Protect { .. } => return Err("protect specs are out of scope".to_owned()),
    };
    counts.plan_sites += planned.sites.len() as u64;
    Ok(planned)
}

/// Runs `spec` through the split path on `workers` campaign threads and
/// returns its canonical result document (as `run_local` renders it) and
/// its planned site list. With `inject == false` the campaign is skipped
/// (a warm repeat: the service resolves every site from its store) and
/// no document is produced.
pub fn run(
    tr: &mut Tracer,
    spec: &JobSpec,
    workers: usize,
    inject: bool,
    counts: &mut Counts,
) -> Result<(Option<String>, Vec<WeightedSite>), String> {
    let workload = tr.span("workloads.build", |_| build(&spec.kernel))?;
    let exp = tr
        .span("sim.prepare", |_| Experiment::prepare(&workload))
        .map_err(|e| e.to_string())?;
    counts.golden_instructions += exp.fault_free_instructions();
    counts.checkpoints += exp.num_checkpoints() as u64;
    let planned = plan(tr, spec, &exp, counts)?;
    if !inject {
        return Ok((None, planned.sites));
    }
    let cpu0 = cpu_seconds();
    let run = tr.span("inject.campaign", |_| {
        exp.run_campaign_incremental(&planned.sites, spec.model, workers, &[], &NopObserver)
    });
    counts.campaign_cpu_s += cpu_seconds() - cpu0;
    counts.injected += run.injected as u64;
    counts.executed_instructions += run.executed_instructions;
    counts.skipped_instructions += run.skipped_instructions;
    counts.checkpoint_hits += run.checkpoint_hits;
    counts.early_converged += run.early_converged;
    counts.batch_replays += run.batch_replays;
    counts.batch_lanes += run.batch_lanes;

    let mut profile = ResilienceProfile::new();
    for (ws, o) in planned.sites.iter().zip(&run.outcomes) {
        profile.record_weighted(o.ok_or("campaign left a site unresolved")?, ws.weight);
    }
    let [masked, crash, detected] = planned.settled;
    profile.record_weighted(Outcome::Masked, masked);
    if crash > 0.0 {
        profile.record_weighted(Outcome::CRASH, crash);
    }
    if detected > 0.0 {
        profile.record_weighted(Outcome::Detected, detected);
    }
    let doc = result_to_json(
        spec,
        &JobResult {
            fingerprint: workload.fingerprint(),
            launch: keyed_launch_hash(&workload),
            sites: planned.sites.len(),
            profile,
            early: None,
        },
    );
    Ok((Some(doc.to_string()), planned.sites))
}

/// The site list `PruningPipeline::plan_for` produces for a pruned spec
/// (the reference the split planner must reproduce).
pub fn plan_for_sites(spec: &JobSpec) -> Result<Vec<WeightedSite>, String> {
    let config = pruning_config(spec).ok_or("not a pruned spec")?;
    let workload = build(&spec.kernel)?;
    let exp = Experiment::prepare(&workload).map_err(|e| e.to_string())?;
    PruningPipeline::new(config)
        .plan_for(&exp)
        .map(|p| p.sites)
        .map_err(|e| e.to_string())
}

/// Whether two site lists are identical, weights compared bit for bit.
pub fn same_sites(a: &[WeightedSite], b: &[WeightedSite]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.site == y.site && x.weight.to_bits() == y.weight.to_bits())
}

/// Fills the build, prepare, planning and injection rows of the per-layer
/// table from a traced section's self times, its exact counts and the
/// process registry before and after it.
pub fn layer_metrics(
    report: &mut crate::Report,
    self_s: &std::collections::BTreeMap<&'static str, f64>,
    counts: &Counts,
    reg0: &std::collections::BTreeMap<String, f64>,
    reg1: &std::collections::BTreeMap<String, f64>,
) {
    use crate::host::delta;
    let secs = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.set("workloads.build_s", secs("workloads.build"));
    report.set("sim.prepare_s", secs("sim.prepare"));
    report.set("sim.golden_instructions", counts.golden_instructions as f64);
    report.set("sim.checkpoints", counts.checkpoints as f64);
    report.set("plan.trace_s", secs("plan.trace"));
    report.set("plan.group_s", secs("plan.group"));
    report.set("plan.stages_s", secs("plan.stages"));
    report.set("plan.sample_s", secs("plan.sample"));
    report.set("plan.sites", counts.plan_sites as f64);
    report.set("analyze.absint_s", secs("analyze.absint"));
    let campaign_s = secs("inject.campaign");
    let injected = counts.injected as f64;
    let executed = counts.executed_instructions as f64;
    report.set("inject.campaign_s", campaign_s);
    report.set("inject.sites_per_s", ratio(injected, campaign_s));
    report.set("inject.executed_instructions", executed);
    report.set(
        "inject.ns_per_instruction",
        ratio(counts.campaign_cpu_s * 1e9, executed),
    );
    report.set(
        "inject.checkpoint_hit_frac",
        ratio(counts.checkpoint_hits as f64, injected),
    );
    let skipped = counts.skipped_instructions as f64;
    report.set("inject.skipped_frac", ratio(skipped, skipped + executed));
    report.set(
        "inject.early_converged_frac",
        ratio(counts.early_converged as f64, injected),
    );
    report.set(
        "inject.lane_occupancy",
        ratio(counts.batch_lanes as f64, counts.batch_replays as f64),
    );
    let lanes = delta(reg0, reg1, "fsp_inject_batch_lane_total");
    let demoted: f64 = ["control", "addr", "cap", "fuel", "replay"]
        .iter()
        .map(|c| {
            delta(
                reg0,
                reg1,
                &format!("fsp_inject_batch_lane_total{{cause=\"demoted_{c}\"}}"),
            )
        })
        .sum();
    report.set("inject.demoted_frac", ratio(demoted, lanes));
    report.set(
        "inject.solo_runs",
        delta(reg0, reg1, "fsp_inject_runs_total"),
    );
}
