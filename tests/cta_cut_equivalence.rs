//! Differential oracle for the CTA-boundary cut on the registry kernels.
//!
//! Both injection engines stop a run at the end of its faulty CTA once the
//! later CTAs provably replay the golden run, and read the outcome off the
//! output with the words a later CTA rewrites taken as golden. The slow
//! path never cuts, so on sampled sites of every kernel the batched engine
//! (16 lanes) and the solo engine (1 lane) must reproduce its outcomes, and
//! the solo engine its SDC severities, exactly.

use fault_site_pruning::inject::{
    Experiment, FaultModel, InjectionTarget, NopObserver, WeightedSite,
};
use fault_site_pruning::stats::Outcome;
use fault_site_pruning::workloads::{self, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Uniformly sampled sites per kernel.
const SITES: usize = 128;

#[test]
fn cta_cut_matches_slow_path_on_all_kernels() {
    let model = FaultModel::SingleBitFlip;
    let mut cuts = 0;
    for w in workloads::all(Scale::Eval) {
        let id = w.registry_id();
        let mut fast = Experiment::prepare(&w).expect("fault-free run");
        let slow = Experiment::prepare(&w)
            .expect("fault-free run")
            .with_fast_path(false);
        let space = fast.site_space(0..w.launch().num_threads());
        let mut rng = StdRng::seed_from_u64(0xC7A_C07 ^ fast.fault_free_instructions());
        let sites: Vec<WeightedSite> = space
            .sample_many(SITES, &mut rng)
            .into_iter()
            .map(WeightedSite::from)
            .collect();
        let expected: Vec<Option<Outcome>> = slow
            .run_campaign_with(&sites, model, 2)
            .outcomes
            .into_iter()
            .map(Some)
            .collect();
        for lanes in [16, 1] {
            fast.set_batch(lanes);
            let run = fast.run_campaign_incremental(&sites, model, 2, &[], &NopObserver);
            assert_eq!(
                run.outcomes, expected,
                "{id}: batch {lanes} diverged from the slow path"
            );
            cuts += run.cta_cut;
        }
        for (ws, outcome) in sites.iter().zip(&expected) {
            if *outcome == Some(Outcome::Sdc) {
                assert_eq!(
                    fast.run_one_detailed(ws.site, model),
                    slow.run_one_detailed(ws.site, model),
                    "{id}: SDC severity diverged at {:?}",
                    ws.site
                );
            }
        }
    }
    assert!(cuts > 0, "the cut never fired on any registry kernel");
}
