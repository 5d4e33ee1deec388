//! Detection-aware re-injection verification.
//!
//! Hardening claims are only as good as their measurement. This module
//! re-runs the *same* fault campaign against the hardened kernel: every
//! baseline fault site is remapped to the equivalent dynamic instruction
//! instance of the transformed program (same thread, same logical
//! instruction execution, same destination bit), so the baseline and
//! protected campaigns are site-for-site comparable — an SDC that the
//! compare catches flips to [`Outcome::Detected`], and the conversion is
//! directly attributable rather than statistical.

use std::collections::{BTreeMap, BTreeSet};

use fsp_analyze::StaticAceReport;
use fsp_inject::{Experiment, FaultModel, InjectionTarget, SiteSpace, WeightedSite};
use fsp_sim::{Launch, MemBlock, SimFault};
use fsp_stats::{Outcome, ResilienceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::plan::{self, PlanInputs, ProtectScope, ProtectionPlan};
use crate::transform::{self, HardenedKernel};

/// A target wrapper that launches the hardened program with the wrapped
/// target's geometry, parameters and memory image.
#[derive(Debug)]
pub struct ProtectedTarget<'a, T: InjectionTarget> {
    inner: &'a T,
    launch: Launch,
    name: String,
}

impl<'a, T: InjectionTarget> ProtectedTarget<'a, T> {
    /// Wraps `inner`, substituting `program` into its launch.
    #[must_use]
    pub fn new(inner: &'a T, program: fsp_isa::KernelProgram) -> Self {
        let base = inner.launch();
        let (gx, gy) = base.grid_dim();
        let (bx, by, bz) = base.block_dim();
        let name = format!("{}__dmr", inner.name());
        let launch = Launch::new(program)
            .grid(gx, gy)
            .block(bx, by, bz)
            .params(base.param_values().iter().copied())
            .shared_bytes(base.shared_size());
        ProtectedTarget {
            inner,
            launch,
            name,
        }
    }
}

impl<T: InjectionTarget> InjectionTarget for ProtectedTarget<'_, T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn launch(&self) -> Launch {
        self.launch.clone()
    }

    fn init_memory(&self) -> MemBlock {
        self.inner.init_memory()
    }

    fn output_region(&self) -> (u32, usize) {
        self.inner.output_region()
    }
}

/// Why hardening or verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtectError {
    /// The unprotected kernel's fault-free run faulted (a workload bug).
    Workload(SimFault),
    /// The *hardened* kernel's fault-free run faulted — the transformation
    /// broke transparency (a hardening bug, never expected).
    Hardened(SimFault),
    /// The transformation itself failed.
    Harden(transform::HardenError),
    /// The kernel exposes no fault sites to measure against.
    EmptySiteSpace,
    /// The hardened kernel's fault-free output differs from the
    /// unprotected one's (a hardening bug, never expected).
    NotTransparent,
}

impl std::fmt::Display for ProtectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtectError::Workload(e) => write!(f, "fault-free run failed: {e}"),
            ProtectError::Hardened(e) => {
                write!(f, "hardened kernel's fault-free run failed: {e}")
            }
            ProtectError::Harden(e) => write!(f, "hardening failed: {e}"),
            ProtectError::EmptySiteSpace => write!(f, "kernel has no fault sites"),
            ProtectError::NotTransparent => {
                write!(f, "hardened kernel broke output transparency")
            }
        }
    }
}

impl std::error::Error for ProtectError {}

impl From<transform::HardenError> for ProtectError {
    fn from(e: transform::HardenError) -> Self {
        ProtectError::Harden(e)
    }
}

/// Configuration of [`harden_and_verify`].
#[derive(Debug, Clone)]
pub struct HardenConfig {
    /// Planner selection granularity.
    pub scope: ProtectScope,
    /// Budget as a fraction of full-DMR dynamic overhead (`1.0` = full).
    pub budget: f64,
    /// Baseline campaign size (sites sampled uniformly from Eq. 1's
    /// population).
    pub samples: usize,
    /// RNG seed for the site sample.
    pub seed: u64,
    /// Fault model of both campaigns.
    pub model: FaultModel,
    /// Campaign worker threads of [`harden_and_verify`]'s in-process
    /// runner.
    pub workers: usize,
    /// Scale vulnerability by the statically-live bit fraction from
    /// fsp-analyze.
    pub use_ace: bool,
}

impl Default for HardenConfig {
    fn default() -> Self {
        HardenConfig {
            scope: ProtectScope::default(),
            budget: 0.25,
            samples: 500,
            seed: 2018,
            model: FaultModel::SingleBitFlip,
            workers: 1,
            use_ace: true,
        }
    }
}

/// The measured outcome of one harden-and-verify run.
#[derive(Debug, Clone)]
pub struct HardeningReport {
    /// Kernel name (unprotected).
    pub kernel: String,
    /// Planner scope.
    pub scope: ProtectScope,
    /// Requested budget fraction.
    pub budget: f64,
    /// DMR-candidate static instructions.
    pub candidate_static: usize,
    /// Protected static instructions.
    pub protected_static: usize,
    /// Campaign size (sites per side).
    pub samples: usize,
    /// Baseline (unprotected) profile over the sampled sites.
    pub baseline: ResilienceProfile,
    /// Protected profile over the same (remapped) sites.
    pub protected: ResilienceProfile,
    /// Weight of baseline-SDC sites the hardened kernel *detects*.
    pub converted_sdc_to_detected: f64,
    /// Total baseline SDC weight (denominator of the coverage).
    pub baseline_sdc_weight: f64,
    /// Fault-free dynamic instructions, unprotected.
    pub baseline_instructions: u64,
    /// Fault-free dynamic instructions, hardened.
    pub hardened_instructions: u64,
    /// Planner-estimated overhead fraction of the selection.
    pub planned_overhead: f64,
    /// Full-DMR overhead fraction (the upper end of the curve).
    pub full_dmr_overhead: f64,
}

impl HardeningReport {
    /// Measured dynamic-instruction overhead of the hardened kernel.
    #[must_use]
    pub fn measured_overhead(&self) -> f64 {
        if self.baseline_instructions == 0 {
            0.0
        } else {
            (self.hardened_instructions as f64 - self.baseline_instructions as f64)
                / self.baseline_instructions as f64
        }
    }

    /// Percentage-point SDC reduction vs the unprotected baseline.
    #[must_use]
    pub fn sdc_reduction_points(&self) -> f64 {
        self.baseline.pct_sdc() - self.protected.pct_sdc()
    }

    /// Fraction of baseline SDC weight converted to detections.
    #[must_use]
    pub fn detection_coverage(&self) -> f64 {
        if self.baseline_sdc_weight == 0.0 {
            0.0
        } else {
            self.converted_sdc_to_detected / self.baseline_sdc_weight
        }
    }
}

/// Everything [`harden_and_verify`] produced: the plan, the transformed
/// kernel and the measurements.
#[derive(Debug, Clone)]
pub struct HardeningOutcome {
    /// The planner's decision and ledger.
    pub plan: ProtectionPlan,
    /// The transformed kernel.
    pub hardened: HardenedKernel,
    /// The measured report.
    pub report: HardeningReport,
    /// Baseline outcomes, in site order.
    pub baseline_outcomes: Vec<Outcome>,
    /// Protected outcomes over the remapped sites, in the same order.
    pub protected_outcomes: Vec<Outcome>,
}

/// Remaps baseline fault sites onto the hardened program.
///
/// A baseline site addresses (thread, k-th retired instruction, bit). The
/// hardened trace interleaves shadow/compare instructions, so the k-th
/// *original* instruction sits at a different dynamic index; this walks
/// the protected thread trace and maps each baseline dynamic index to the
/// dynamic index of the same logical instruction instance. Bits carry
/// over unchanged (the original copy keeps its destination).
///
/// # Panics
///
/// Panics if the traces disagree on the original-instruction sequence —
/// that would mean the transformation changed fault-free control flow,
/// which the transparency tests forbid.
#[must_use]
pub fn remap_sites(
    hardened: &HardenedKernel,
    baseline: &SiteSpace,
    protected: &SiteSpace,
    sites: &[WeightedSite],
) -> Vec<WeightedSite> {
    // new pc -> original pc, for entries that are original instructions
    // (shadows, compares, branches and the trap map to None).
    let mut orig_of_new: Vec<Option<usize>> = vec![None; hardened.program.len()];
    for old_pc in 0..hardened.original_len() {
        orig_of_new[hardened.original_pc(old_pc)] = Some(old_pc);
    }

    let mut per_thread: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    sites
        .iter()
        .map(|ws| {
            let map = per_thread.entry(ws.site.tid).or_insert_with(|| {
                let base = &baseline.trace().full[ws.site.tid];
                let prot = &protected.trace().full[ws.site.tid];
                let mapped: Vec<u32> = prot
                    .entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| orig_of_new[e.pc as usize].is_some())
                    .map(|(j, _)| j as u32)
                    .collect();
                assert_eq!(
                    mapped.len(),
                    base.entries.len(),
                    "hardened trace must retire the same original instructions"
                );
                for (k, &j) in mapped.iter().enumerate() {
                    let old = &base.entries[k];
                    let new = &prot.entries[j as usize];
                    assert_eq!(
                        orig_of_new[new.pc as usize],
                        Some(old.pc as usize),
                        "original-instruction sequences must agree"
                    );
                    assert_eq!(old.dest_bits, new.dest_bits, "destinations must agree");
                }
                mapped
            });
            let mut site = ws.site;
            site.dyn_idx = map[site.dyn_idx as usize];
            WeightedSite {
                site,
                weight: ws.weight,
            }
        })
        .collect()
}

/// Runs the two campaigns of [`harden_and_verify_with`]: the baseline
/// over the unprotected target, then the re-injection over its
/// [`ProtectedTarget`]. The seam lets a caller route both through its own
/// scheduler or outcome cache without re-implementing the sequence.
pub trait CampaignRunner {
    /// What a campaign that did not finish returns.
    type Error: From<ProtectError>;

    /// Runs `sites` against `experiment` under `model` and returns one
    /// outcome per site, in site order.
    ///
    /// # Errors
    ///
    /// Whatever stopped the campaign before every site was resolved.
    fn run<T: InjectionTarget>(
        &mut self,
        experiment: &Experiment<'_, T>,
        sites: &[WeightedSite],
        model: FaultModel,
    ) -> Result<Vec<Outcome>, Self::Error>;
}

/// The plain [`CampaignRunner`]: an in-process campaign on `workers`
/// threads.
struct InProcessRunner {
    workers: usize,
}

impl CampaignRunner for InProcessRunner {
    type Error = ProtectError;

    fn run<T: InjectionTarget>(
        &mut self,
        experiment: &Experiment<'_, T>,
        sites: &[WeightedSite],
        model: FaultModel,
    ) -> Result<Vec<Outcome>, ProtectError> {
        Ok(experiment
            .run_campaign_with(sites, model, self.workers)
            .outcomes)
    }
}

/// Plans, hardens and verifies: baseline campaign → planner → DMR
/// transform → transparency check (fault-free golden equality) → remapped
/// re-injection campaign, both campaigns in process on `config.workers`
/// threads.
///
/// # Errors
///
/// [`ProtectError`] on workload faults, transformation failure, a
/// non-transparent hardening or an empty site population.
pub fn harden_and_verify<T: InjectionTarget>(
    target: &T,
    config: &HardenConfig,
) -> Result<HardeningOutcome, ProtectError> {
    harden_and_verify_with(
        target,
        config,
        &mut InProcessRunner {
            workers: config.workers,
        },
    )
}

/// [`harden_and_verify`] with both campaigns run by `runner`.
///
/// # Errors
///
/// [`ProtectError`] (converted into the runner's error) as for
/// [`harden_and_verify`], or the runner's own error.
pub fn harden_and_verify_with<T: InjectionTarget, R: CampaignRunner>(
    target: &T,
    config: &HardenConfig,
    runner: &mut R,
) -> Result<HardeningOutcome, R::Error> {
    let experiment = Experiment::prepare(target).map_err(ProtectError::Workload)?;
    let launch = target.launch();
    let space = experiment.site_space(0..launch.num_threads());
    if space.total_sites() == 0 {
        return Err(ProtectError::EmptySiteSpace.into());
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sites: Vec<WeightedSite> = space
        .sample_many(config.samples, &mut rng)
        .into_iter()
        .map(WeightedSite::from)
        .collect();
    let baseline_outcomes = runner.run(&experiment, &sites, config.model)?;

    let program = launch.program();
    let ace = config.use_ace.then(|| StaticAceReport::analyze(program));
    let classify = config
        .use_ace
        .then(|| fsp_analyze::ClassifyReport::analyze(program, &fsp_core::abs_context_for(target)));
    let inputs = PlanInputs {
        program,
        space: &space,
        sites: &sites,
        outcomes: &baseline_outcomes,
        ace: ace.as_ref(),
        classify: classify.as_ref(),
    };
    let plan = plan::plan(&inputs, config.scope, config.budget);
    let hardened = transform::harden(program, &plan.selected_pcs).map_err(ProtectError::from)?;

    let protected_target = ProtectedTarget::new(target, hardened.program.clone());
    let protected_exp = Experiment::prepare(&protected_target).map_err(ProtectError::Hardened)?;
    // Transparency: the hardened kernel must reproduce the golden output
    // bit-for-bit with no fault injected.
    if protected_exp.golden() != experiment.golden() {
        return Err(ProtectError::NotTransparent.into());
    }
    let tids: BTreeSet<u32> = sites.iter().map(|ws| ws.site.tid).collect();
    let protected_space = protected_exp.site_space(tids);
    let mapped = remap_sites(&hardened, &space, &protected_space, &sites);
    let protected_outcomes = runner.run(&protected_exp, &mapped, config.model)?;

    let mut baseline_sdc_weight = 0.0;
    let mut converted = 0.0;
    for ((ws, base), prot) in sites
        .iter()
        .zip(&baseline_outcomes)
        .zip(&protected_outcomes)
    {
        if *base == Outcome::Sdc {
            baseline_sdc_weight += ws.weight;
            if *prot == Outcome::Detected {
                converted += ws.weight;
            }
        }
    }

    let report = HardeningReport {
        kernel: target.name().to_owned(),
        scope: config.scope,
        budget: plan.budget,
        candidate_static: transform::candidate_pcs(program).len(),
        protected_static: plan.selected_pcs.len(),
        samples: sites.len(),
        baseline: profile_in_site_order(&sites, &baseline_outcomes),
        protected: profile_in_site_order(&mapped, &protected_outcomes),
        converted_sdc_to_detected: converted,
        baseline_sdc_weight,
        baseline_instructions: experiment.fault_free_instructions(),
        hardened_instructions: protected_exp.fault_free_instructions(),
        planned_overhead: plan.overhead_fraction(),
        full_dmr_overhead: plan.full_dmr_overhead_fraction(),
    };
    Ok(HardeningOutcome {
        plan,
        hardened,
        report,
        baseline_outcomes,
        protected_outcomes,
    })
}

/// The weighted profile of a campaign, accumulated in site order (the
/// order [`Experiment::run_campaign_with`] accumulates in, so every
/// runner reports bit-identical profiles).
fn profile_in_site_order(sites: &[WeightedSite], outcomes: &[Outcome]) -> ResilienceProfile {
    let mut profile = ResilienceProfile::new();
    for (ws, o) in sites.iter().zip(outcomes) {
        profile.record_weighted(*o, ws.weight);
    }
    profile
}

/// Sweeps budgets and returns one report per point — the
/// coverage-vs-overhead curve of `fsp harden-report`.
///
/// # Errors
///
/// Propagates the first [`ProtectError`].
pub fn coverage_curve<T: InjectionTarget>(
    target: &T,
    config: &HardenConfig,
    budgets: &[f64],
) -> Result<Vec<HardeningReport>, ProtectError> {
    budgets
        .iter()
        .map(|&budget| {
            let config = HardenConfig {
                budget,
                ..config.clone()
            };
            harden_and_verify(target, &config).map(|o| o.report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_inject::testing::CountdownTarget;

    fn config(budget: f64) -> HardenConfig {
        HardenConfig {
            budget,
            samples: 300,
            workers: 2,
            ..HardenConfig::default()
        }
    }

    #[test]
    fn full_dmr_detects_most_baseline_sdc() {
        let target = CountdownTarget::new();
        let outcome = harden_and_verify(&target, &config(1.0)).unwrap();
        let report = &outcome.report;
        assert!(report.baseline_sdc_weight > 0.0, "baseline must show SDC");
        assert!(
            report.protected.detected() > 0.0,
            "full DMR must detect faults"
        );
        assert!(
            report.protected.pct_sdc() < report.baseline.pct_sdc(),
            "full DMR must reduce SDC ({:.2}% -> {:.2}%)",
            report.baseline.pct_sdc(),
            report.protected.pct_sdc()
        );
        assert!(report.detection_coverage() > 0.5);
        // Weight conservation: the 4-class profile accounts for every
        // sampled site on both sides (Eq. 1 population of the sample).
        assert!((report.baseline.total() - report.samples as f64).abs() < 1e-9);
        assert!((report.protected.total() - report.samples as f64).abs() < 1e-9);
        assert!(report.measured_overhead() > 0.0);
    }

    #[test]
    fn partial_budget_costs_less_than_full_dmr() {
        // Per-instruction units: the countdown kernel's Range scope folds
        // its whole loop body into one unit too big for a half budget.
        let scoped = |budget| HardenConfig {
            scope: ProtectScope::ThreadGroup,
            ..config(budget)
        };
        let target = CountdownTarget::new();
        let full = harden_and_verify(&target, &scoped(1.0)).unwrap().report;
        let part = harden_and_verify(&target, &scoped(0.5)).unwrap().report;
        assert!(part.protected_static < full.protected_static);
        assert!(part.measured_overhead() < full.measured_overhead());
        assert!(part.planned_overhead <= full.planned_overhead);
        assert!(
            part.protected.pct_sdc() < part.baseline.pct_sdc(),
            "even a half budget must reduce SDC on the countdown kernel"
        );
    }

    #[test]
    fn remapped_sites_reproduce_masked_outcomes() {
        // A site that was masked at baseline because the destination is
        // dead stays analysable after remapping: outcomes vectors line up
        // one-to-one.
        let target = CountdownTarget::new();
        let outcome = harden_and_verify(&target, &config(1.0)).unwrap();
        assert_eq!(
            outcome.baseline_outcomes.len(),
            outcome.protected_outcomes.len()
        );
    }

    #[test]
    fn coverage_curve_is_monotone_in_protected_instructions() {
        let target = CountdownTarget::new();
        let curve = coverage_curve(&target, &config(0.0), &[0.0, 0.5, 1.0]).unwrap();
        assert_eq!(curve.len(), 3);
        assert!(curve[0].protected_static <= curve[1].protected_static);
        assert!(curve[1].protected_static <= curve[2].protected_static);
        assert_eq!(curve[0].measured_overhead(), 0.0, "zero budget is free");
    }
}
