//! The CTA-boundary cut, one proof obligation per test.
//!
//! Each test hand-assembles a two-CTA kernel (one thread per CTA, so tid
//! `t` runs in CTA `t`) and injects every site of one thread through the
//! solo engine, the batched engine and the slow path. Outcomes and SDC
//! severities must agree with the slow path, and the cut must fire exactly
//! where its two conditions hold: no later CTA loads a word the faulty CTA
//! could have changed, and the hang budget covers the later CTAs' golden
//! work.

use std::sync::Arc;

use fsp_inject::{Experiment, FaultModel, FaultSite, InjectionTarget, NopObserver, WeightedSite};
use fsp_isa::{assemble, KernelProgram};
use fsp_sim::{Launch, MemBlock};
use fsp_stats::{Outcome, OutcomeKind};

/// A two-CTA, one-thread-per-CTA kernel with a small input table.
struct TwoCtas {
    program: Arc<KernelProgram>,
    /// `(byte address, word)` written into global memory before the run.
    inputs: Vec<(u32, u32)>,
    /// Output region: `(byte address, words)`.
    out: (u32, usize),
}

impl TwoCtas {
    fn new(src: &str, inputs: &[(u32, u32)], out: (u32, usize)) -> Self {
        TwoCtas {
            program: Arc::new(assemble("two_ctas", src).expect("kernel assembles")),
            inputs: inputs.to_vec(),
            out,
        }
    }
}

impl InjectionTarget for TwoCtas {
    fn name(&self) -> &str {
        "two_ctas"
    }

    fn launch(&self) -> Launch {
        Launch::new(Arc::clone(&self.program))
            .grid(2, 1)
            .block(1, 1, 1)
    }

    fn init_memory(&self) -> MemBlock {
        let mut mem = MemBlock::with_words(16);
        for &(addr, value) in &self.inputs {
            mem.store(addr, value).expect("input in range");
        }
        mem
    }

    fn output_region(&self) -> (u32, usize) {
        self.out
    }
}

/// One site's verdicts: the slow-path outcome and severity, and whether
/// the solo engine took the cut on it.
struct Verdict {
    site: FaultSite,
    outcome: Outcome,
    severity: Option<f64>,
    solo_cut: bool,
}

/// Injects every single-bit-flip site of `tid`, checks both engines
/// against the slow path, and returns the per-site verdicts plus the
/// batched campaign's cut count.
fn inject_thread(target: &TwoCtas, tid: u32) -> (Vec<Verdict>, u64) {
    let model = FaultModel::SingleBitFlip;
    let fast = Experiment::prepare(target).expect("fault-free run");
    let slow = Experiment::prepare(target)
        .expect("fault-free run")
        .with_fast_path(false);
    let sites: Vec<WeightedSite> = fast
        .site_space(0..2)
        .thread_site_iter(tid)
        .map(WeightedSite::from)
        .collect();
    assert!(!sites.is_empty());
    let solo = Experiment::prepare(target)
        .expect("fault-free run")
        .with_batch(1);
    let verdicts = sites
        .iter()
        .map(|ws| {
            let (outcome, severity) = slow.run_one_detailed(ws.site, model);
            assert_eq!(
                fast.run_one_detailed(ws.site, model),
                (outcome, severity),
                "solo engine diverged from the slow path at {:?}",
                ws.site
            );
            let run = solo.run_campaign_incremental(
                std::slice::from_ref(ws),
                model,
                1,
                &[],
                &NopObserver,
            );
            assert_eq!(run.outcomes, vec![Some(outcome)]);
            Verdict {
                site: ws.site,
                outcome,
                severity,
                solo_cut: run.cta_cut == 1,
            }
        })
        .collect::<Vec<_>>();
    let batched = fast.run_campaign_incremental(&sites, model, 1, &[], &NopObserver);
    let expected: Vec<Option<Outcome>> = verdicts.iter().map(|v| Some(v.outcome)).collect();
    assert_eq!(
        batched.outcomes, expected,
        "batched engine diverged from the slow path"
    );
    (verdicts, batched.cta_cut)
}

/// Branches CTA 0 to `first:`; CTA 1 falls through.
const PROLOGUE: &str = r#"
    cvt.u32.u16 $r1, %ctaid.x
    set.eq.u32.u32 $p0/$o127, $r1, $r124
    @$p0.ne bra first
"#;

/// CTA 1 loads the word CTA 0 stores: a corrupted store would reach a
/// later CTA's inputs, so no run may be cut.
#[test]
fn later_cta_loading_the_faulty_store_blocks_the_cut() {
    let src = format!(
        "{PROLOGUE}
        ld.global.u32 $r2, [0x10]
        add.u32 $r2, $r2, 0x1
        st.global.u32 [0x4], $r2
        exit
        first:
        mov.u32 $r3, 0x7
        st.global.u32 [0x10], $r3
        st.global.u32 [0x0], $r3
        exit"
    );
    let target = TwoCtas::new(&src, &[], (0, 2));
    let (verdicts, batch_cuts) = inject_thread(&target, 0);
    assert!(verdicts.iter().all(|v| !v.solo_cut));
    assert_eq!(batch_cuts, 0);
    // The corrupted word travels into CTA 1's output: SDC in both words.
    assert!(verdicts.iter().any(|v| v.outcome == Outcome::Sdc));
}

/// CTA 0's loop bound comes from memory; flipping bit 13 of it makes CTA 0
/// burn most of the hang budget and still finish, leaving too little for
/// CTA 1's golden work. That run must hang, not be cut; smaller flips that
/// leave the budget intact are cut.
#[test]
fn budget_burned_in_the_faulty_cta_is_a_hang_not_a_cut() {
    let src = "
        cvt.u32.u16 $r1, %ctaid.x
        shl.u32 $r5, $r1, 0x2
        add.u32 $r6, $r5, 0x10
        ld.global.u32 $r2, [$r6]
        mov.u32 $r3, 0x0
        loop:
        add.u32 $r3, $r3, $r2
        sub.u32 $r2, $r2, 0x1
        set.ne.u32.u32 $p0/$o127, $r2, $r124
        @$p0.ne bra loop
        st.global.u32 [$r5], $r3
        exit";
    // CTA 0 counts down from 4, CTA 1 from 2250: golden work 23 + 9007
    // retirements, so the budget is 4x that. CTA 0 from 4 + 8192 retires
    // 32791 instructions, under the budget, but leaves too few for CTA 1.
    let target = TwoCtas::new(src, &[(0x10, 4), (0x14, 2250)], (0, 2));
    let (verdicts, batch_cuts) = inject_thread(&target, 0);
    let bound = |bit| {
        verdicts
            .iter()
            .find(|v| v.site.dyn_idx == 3 && v.site.bit == bit)
            .expect("the load's destination bits are sites")
    };
    let burn = bound(13);
    assert_eq!(burn.outcome, Outcome::Other(OutcomeKind::Hang));
    assert!(!burn.solo_cut);
    let small = bound(3);
    assert_eq!(small.outcome, Outcome::Sdc);
    assert!(small.solo_cut);
    assert!(batch_cuts > 0);
}

/// CTA 0's output word is rewritten by CTA 1: the corrupted value never
/// reaches the final output, and the cut proves it at CTA 0's end.
#[test]
fn later_cta_rewriting_the_corrupted_word_masks_it() {
    let src = format!(
        "{PROLOGUE}
        mov.u32 $r2, 0x9
        st.global.u32 [0x0], $r2
        exit
        first:
        mov.u32 $r3, 0x7
        st.global.u32 [0x0], $r3
        exit"
    );
    let target = TwoCtas::new(&src, &[], (0, 1));
    let (verdicts, batch_cuts) = inject_thread(&target, 0);
    let value_flip = verdicts
        .iter()
        .find(|v| v.site.dyn_idx == 3 && v.site.bit == 0)
        .expect("mov's destination bits are sites");
    assert_eq!(value_flip.outcome, Outcome::Masked);
    assert!(value_flip.solo_cut);
    assert!(batch_cuts > 0);
}

/// CTA 0 writes both output words and CTA 1 rewrites only the second: a
/// flip of the stored value is SDC, and its severity — computed with the
/// rewritten word taken as golden — equals the slow path's.
#[test]
fn unrewritten_corrupted_word_is_sdc_with_slow_path_severity() {
    let src = format!(
        "{PROLOGUE}
        mov.u32 $r2, 0x40000000
        st.global.u32 [0x4], $r2
        exit
        first:
        mov.u32 $r3, 0x3f800000
        st.global.u32 [0x0], $r3
        st.global.u32 [0x4], $r3
        exit"
    );
    let target = TwoCtas::new(&src, &[], (0, 2));
    let (verdicts, batch_cuts) = inject_thread(&target, 0);
    let value_flip = verdicts
        .iter()
        .find(|v| v.site.dyn_idx == 3 && v.site.bit == 22)
        .expect("mov's destination bits are sites");
    assert_eq!(value_flip.outcome, Outcome::Sdc);
    assert!(value_flip.solo_cut);
    // 1.0 became 1.5 in out[0]; out[1] ends at CTA 1's 2.0.
    let expected = (0.25f64 / 5.0).sqrt();
    let severity = value_flip.severity.expect("SDC has a severity");
    assert!((severity - expected).abs() < 1e-12, "{severity}");
    assert!(batch_cuts > 0);
}

/// A fault in the last CTA has no later CTA to cut at: every run is
/// classified as before.
#[test]
fn fault_in_the_last_cta_is_never_cut() {
    let src = format!(
        "{PROLOGUE}
        mov.u32 $r2, 0x40000000
        st.global.u32 [0x4], $r2
        exit
        first:
        mov.u32 $r3, 0x3f800000
        st.global.u32 [0x0], $r3
        st.global.u32 [0x4], $r3
        exit"
    );
    let target = TwoCtas::new(&src, &[], (0, 2));
    let (verdicts, batch_cuts) = inject_thread(&target, 1);
    assert!(verdicts.iter().all(|v| !v.solo_cut));
    assert_eq!(batch_cuts, 0);
    assert!(verdicts.iter().any(|v| v.outcome == Outcome::Sdc));
}
