//! The grid executor: CTAs in launch order, barrier-phase thread scheduling.

use fsp_isa::{MemSpace, PredTest};

use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::exec::{step, AccessLog, ExecCtx, SimFault, SrcLog, StepEffect};
use crate::hook::{ExecHook, RetireEvent, Writeback};
use crate::launch::Launch;
use crate::mem::MemBlock;
use crate::thread::{ThreadCoords, ThreadState, ThreadStatus};
use crate::PARAM_BASE;

/// Summary of a completed (fault-free or survivable-fault) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Total dynamic instructions retired across all threads. For runs
    /// resumed from a checkpoint this covers the executed suffix only.
    pub instructions: u64,
    /// Number of barrier releases across all CTAs (suffix-only when
    /// resumed).
    pub barriers: u64,
    /// Total threads executed.
    pub threads: u32,
}

impl RunStats {
    /// Stats of a run of `launch` that has retired nothing yet.
    fn zero(launch: &Launch) -> Self {
        RunStats {
            instructions: 0,
            barriers: 0,
            threads: launch.num_threads(),
        }
    }
}

/// How threads of a CTA are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Threads run to the next barrier one at a time, in thread-id order —
    /// the fast default; functionally equivalent for race-free kernels.
    #[default]
    ThreadSerial,
    /// Warps of `width` lanes run in lockstep with a SIMT reconvergence
    /// stack, as GPGPU-Sim executes PTXPlus. Detects divergent
    /// `bar.sync` ([`SimFault::BarrierDivergence`]).
    WarpLockstep {
        /// Lanes per warp (32 on NVIDIA hardware).
        width: u32,
    },
}

/// The functional simulator.
///
/// Stateless between runs; construct once and reuse. See the crate docs for
/// the scheduling model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simulator {
    mode: ExecMode,
}

/// Reusable per-worker buffers for [`Simulator::run_from_with`]: the
/// thread-state vector and shared-memory image a resume clones out of the
/// checkpoint. Campaigns resume thousands of runs per worker; reusing one
/// scratch keeps those clones off the allocator.
#[derive(Debug)]
pub struct ResumeScratch {
    threads: Vec<ThreadState>,
    shared: MemBlock,
}

impl Default for ResumeScratch {
    fn default() -> Self {
        ResumeScratch {
            threads: Vec::new(),
            shared: MemBlock::with_space(0, MemSpace::Shared),
        }
    }
}

impl ResumeScratch {
    /// Buffers for a cold start of `launch`: one CTA's threads and shared
    /// memory.
    fn cold(launch: &Launch) -> Self {
        ResumeScratch {
            threads: Vec::with_capacity(launch.threads_per_cta() as usize),
            shared: MemBlock::with_space(
                (launch.shared_size() as usize).div_ceil(4),
                MemSpace::Shared,
            ),
        }
    }
}

/// Resets a CTA's shared memory and writes the launch parameters at the
/// base.
fn reset_shared(shared: &mut MemBlock, launch: &Launch) {
    shared.clear();
    for (i, &p) in launch.param_values().iter().enumerate() {
        shared
            .store(PARAM_BASE + 4 * i as u32, p)
            .expect("parameters fit in shared memory");
    }
}

/// (Re)builds the thread states of the CTA at `(cx, cy)` in `threads`,
/// reusing existing allocations.
fn fill_cta_threads(threads: &mut Vec<ThreadState>, launch: &Launch, cx: u32, cy: u32) {
    let (gx, gy) = launch.grid_dim();
    let (bx, by, bz) = launch.block_dim();
    let mut idx = 0;
    for tz in 0..bz {
        for ty in 0..by {
            for tx in 0..bx {
                let coords = ThreadCoords {
                    tid: (tx, ty, tz),
                    ctaid: (cx, cy),
                    ntid: (bx, by, bz),
                    nctaid: (gx, gy),
                };
                if idx < threads.len() {
                    threads[idx].reset(coords);
                } else {
                    threads.push(ThreadState::new(coords));
                }
                idx += 1;
            }
        }
    }
}

/// Capture hook of [`Simulator::run_with_checkpoints`]: forwards every
/// event to the caller's hook, counts retirements grid-wide and per thread,
/// and reports convergence once a capture point is due, so
/// [`Simulator::run_cta`] pauses there for the snapshot.
struct Capture<H> {
    inner: H,
    retired: u64,
    next_at: u64,
    icnt: Vec<u32>,
}

impl<H: ExecHook> ExecHook for Capture<H> {
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        self.retired += 1;
        self.icnt[ev.tid as usize] = ev.dyn_idx + 1;
        self.inner.on_retire(ev);
    }

    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        self.inner.writeback(wb)
    }

    fn on_guard_fail(&mut self, tid: u32, pred: u8, test: PredTest) {
        self.inner.on_guard_fail(tid, pred, test);
    }

    fn converged(&self) -> bool {
        self.retired >= self.next_at
    }
}

impl Simulator {
    /// Creates a simulator with the default thread-serial schedule.
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            mode: ExecMode::ThreadSerial,
        }
    }

    /// Creates a warp-lockstep simulator (hardware warps are 32 lanes).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn warp_lockstep(width: u32) -> Self {
        assert!(width > 0, "warp width must be positive");
        Simulator {
            mode: ExecMode::WarpLockstep { width },
        }
    }

    /// The scheduling mode.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Runs `launch` against `global` memory, reporting execution events to
    /// `hook`.
    ///
    /// In thread-serial mode the hook's [`ExecHook::converged`] is polled
    /// between steps; a `true` stops the run early with the stats retired
    /// so far.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimFault`] raised by any thread (invalid or
    /// misaligned memory access, or dynamic-instruction budget exhaustion).
    /// On error, `global` is left in its partially-updated state — injection
    /// campaigns treat the run as crashed/hung and discard it.
    pub fn run<H: ExecHook>(
        &self,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
    ) -> Result<RunStats, SimFault> {
        let mut stats = RunStats::zero(launch);
        let mut budget = launch.budget();
        let mut scratch = ResumeScratch::cold(launch);
        self.run_ctas(
            launch,
            global,
            hook,
            &mut scratch,
            None,
            &mut budget,
            &mut stats,
        )?;
        Ok(stats)
    }

    /// Runs `launch` like [`Simulator::run`] while capturing resumable
    /// snapshots of the machine every `config.interval` retired
    /// instructions (thread-serial schedule only). The returned checkpoints
    /// are ordered by [`Checkpoint::retired`] and every per-thread
    /// [`Checkpoint::icnt`] is nondecreasing across them.
    ///
    /// Capture is a pause of the ordinary run: the capture hook reports
    /// convergence at each due point, the run returns, the snapshot is
    /// taken, and the run re-enters its CTA exactly as
    /// [`Simulator::run_from_with`] resumes one. A point that falls due
    /// after the final step is not captured: there is nothing left to
    /// resume.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics in warp-lockstep mode: mid-warp reconvergence state is not
    /// snapshot-able.
    pub fn run_with_checkpoints<H: ExecHook>(
        &self,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
        config: CheckpointConfig,
    ) -> Result<(RunStats, Vec<Checkpoint>), SimFault> {
        assert!(
            matches!(self.mode, ExecMode::ThreadSerial),
            "checkpoint capture requires the thread-serial schedule"
        );
        let mut interval = config.interval.max(1);
        let max = config.max.max(1);
        let mut capture = Capture {
            inner: hook,
            retired: 0,
            next_at: interval,
            icnt: vec![0; launch.num_threads() as usize],
        };
        let mut stats = RunStats::zero(launch);
        let mut budget = launch.budget();
        let mut scratch = ResumeScratch::cold(launch);
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut at = None;
        while let Some(cta) = self.run_ctas(
            launch,
            global,
            &mut capture,
            &mut scratch,
            at,
            &mut budget,
            &mut stats,
        )? {
            at = Some(cta);
            let finished = cta + 1 == launch.num_ctas()
                && scratch
                    .threads
                    .iter()
                    .all(|t| t.status == ThreadStatus::Done);
            if !finished {
                let _cap = fsp_obs::span("sim.checkpoint_capture");
                checkpoints.push(Checkpoint {
                    retired: capture.retired,
                    barriers: stats.barriers,
                    cta,
                    threads: scratch.threads.clone(),
                    shared: scratch.shared.clone(),
                    global: global.clone(),
                    icnt: capture.icnt.clone(),
                });
                if checkpoints.len() >= max {
                    // Thin to every other snapshot and double the cadence:
                    // long runs keep a bounded set at geometrically coarser
                    // spacing.
                    let mut keep = 0u32;
                    checkpoints.retain(|_| {
                        keep += 1;
                        keep % 2 == 1
                    });
                    interval *= 2;
                }
            }
            capture.next_at = capture.retired + interval;
        }
        Ok((stats, checkpoints))
    }

    /// Resumes `launch` from `checkpoint`, skipping the already-retired
    /// golden prefix (thread-serial schedule only): the checkpoint's CTA
    /// continues from its snapshot state and the later CTAs start cold.
    /// `global` is overwritten with the checkpoint's image, which already
    /// holds every store of the earlier CTAs (copy-on-write, so this is
    /// O(chunk pointers)). The per-resume thread-state and shared-memory
    /// images are cloned into `scratch`'s allocations, which campaigns
    /// reuse across the thousands of runs each worker resumes. The
    /// remaining dynamic-instruction budget is `launch.budget() -
    /// checkpoint.retired()`, which makes hang classification identical to
    /// a full run.
    ///
    /// The returned stats cover the executed suffix only.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics in warp-lockstep mode, or if the checkpoint does not belong
    /// to an equivalent launch (thread-count mismatch).
    pub fn run_from_with<H: ExecHook>(
        &self,
        checkpoint: &Checkpoint,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
        scratch: &mut ResumeScratch,
    ) -> Result<RunStats, SimFault> {
        assert!(
            matches!(self.mode, ExecMode::ThreadSerial),
            "checkpoint resume requires the thread-serial schedule"
        );
        assert_eq!(
            checkpoint.threads.len(),
            launch.threads_per_cta() as usize,
            "checkpoint does not match this launch"
        );
        let restore = fsp_obs::span("sim.checkpoint_restore");
        global.clone_from(&checkpoint.global);
        scratch.shared.clone_from(&checkpoint.shared);
        scratch.threads.clone_from(&checkpoint.threads);
        drop(restore);
        let mut stats = RunStats::zero(launch);
        let mut budget = launch.budget().saturating_sub(checkpoint.retired);
        let cta = Some(checkpoint.cta);
        self.run_ctas(launch, global, hook, scratch, cta, &mut budget, &mut stats)?;
        Ok(stats)
    }

    /// The CTA driver behind every run: CTAs in launch order under the
    /// configured schedule. `resume` continues that CTA from the thread and
    /// shared state already in `scratch`; `None` starts cold at CTA 0.
    /// Returns the CTA the run paused in when the hook reported convergence
    /// (thread-serial schedule only), or `None` once the grid has finished;
    /// either way `stats` gains the instructions retired meanwhile.
    #[allow(clippy::too_many_arguments)]
    fn run_ctas<H: ExecHook>(
        &self,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
        scratch: &mut ResumeScratch,
        resume: Option<u32>,
        budget: &mut u64,
        stats: &mut RunStats,
    ) -> Result<Option<u32>, SimFault> {
        let program = launch.program();
        let (gx, _) = launch.grid_dim();
        let cta_threads = launch.threads_per_cta() as usize;
        let rpcs = self.reconvergence_pcs(program);
        let entry_budget = *budget;
        let ResumeScratch { threads, shared } = scratch;
        let mut paused = None;
        for cta in resume.unwrap_or(0)..launch.num_ctas() {
            if resume != Some(cta) {
                // Fresh shared memory per CTA, parameters at the base.
                reset_shared(shared, launch);
                fill_cta_threads(threads, launch, cta % gx, cta / gx);
            }
            let threads = &mut threads[..cta_threads];
            match self.mode {
                ExecMode::ThreadSerial => {
                    if self.run_cta(program, global, shared, threads, hook, budget, stats)? {
                        paused = Some(cta);
                        break;
                    }
                }
                ExecMode::WarpLockstep { width } => self.run_cta_warps(
                    program, global, shared, threads, hook, budget, stats, width, &rpcs,
                )?,
            }
        }
        stats.instructions += entry_budget - *budget;
        Ok(paused)
    }

    /// Reconvergence table for warp-lockstep mode (empty otherwise). An
    /// explicit `ssy <label>` earlier in the same basic block wins
    /// (PTXPlus-style annotation); otherwise the immediate post-dominator
    /// from the CFG.
    fn reconvergence_pcs(&self, program: &fsp_isa::KernelProgram) -> Vec<Option<usize>> {
        if self.mode == ExecMode::ThreadSerial {
            return Vec::new();
        }
        let cfg = program.cfg();
        let pdom = cfg.post_dominators();
        (0..program.len())
            .map(|pc| {
                let block = &cfg.blocks()[cfg.block_of(pc)];
                let declared = (block.start..pc).rev().find_map(|p| {
                    let i = program.instr(p);
                    (i.opcode == fsp_isa::Opcode::Ssy)
                        .then_some(i.target)
                        .flatten()
                });
                declared.or_else(|| pdom[cfg.block_of(pc)].map(|b| cfg.blocks()[b].start))
            })
            .collect()
    }

    /// Runs one CTA to completion under the serial schedule: the only
    /// thread-serial barrier-phase loop. Returns `true` if the hook
    /// reported convergence after a step — an early stop for injected
    /// runs, a capture pause for [`Simulator::run_with_checkpoints`].
    /// Calling it again on the same thread and shared state continues
    /// exactly where it returned.
    ///
    /// Each thread's quantum is watched by a [`SpinDetector`]: under the
    /// serial schedule a quantum has exclusive access to the machine, so a
    /// provably periodic thread (architectural state recurs with no stores
    /// in between) is aborted as [`SimFault::BudgetExceeded`] without
    /// grinding through the remaining budget.
    #[allow(clippy::too_many_arguments)]
    fn run_cta<H: ExecHook>(
        &self,
        program: &fsp_isa::KernelProgram,
        global: &mut MemBlock,
        shared: &mut MemBlock,
        threads: &mut [ThreadState],
        hook: &mut H,
        budget: &mut u64,
        stats: &mut RunStats,
    ) -> Result<bool, SimFault> {
        let mut ctx = ExecCtx {
            program,
            global,
            shared,
            accesses: AccessLog::default(),
            srcs: SrcLog::default(),
        };
        loop {
            let mut all_done = true;
            for thread in threads.iter_mut() {
                if thread.status != ThreadStatus::Ready {
                    if thread.status == ThreadStatus::AtBarrier {
                        all_done = false;
                    }
                    continue;
                }
                // Run this thread until it blocks, exits or faults.
                let mut spin = SpinDetector::new();
                loop {
                    let effect = step(thread, &mut ctx, hook, budget)?;
                    if hook.converged() {
                        return Ok(true);
                    }
                    match effect {
                        StepEffect::Continue => {}
                        StepEffect::Barrier => {
                            all_done = false;
                            break;
                        }
                        StepEffect::Done => break,
                    }
                    spin.observe(thread, ctx.accesses.has_store())?;
                }
            }
            if all_done {
                return Ok(false);
            }
            // Every live thread is at the barrier: release them all.
            stats.barriers += 1;
            for thread in threads.iter_mut() {
                if thread.status == ThreadStatus::AtBarrier {
                    thread.status = ThreadStatus::Ready;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_cta_warps<H: ExecHook>(
        &self,
        program: &fsp_isa::KernelProgram,
        global: &mut MemBlock,
        shared: &mut MemBlock,
        threads: &mut [ThreadState],
        hook: &mut H,
        budget: &mut u64,
        stats: &mut RunStats,
        width: u32,
        rpcs: &[Option<usize>],
    ) -> Result<(), SimFault> {
        use crate::warp::{WarpEffect, WarpStack};
        let mut ctx = ExecCtx {
            program,
            global,
            shared,
            accesses: AccessLog::default(),
            srcs: SrcLog::default(),
        };
        let mut warps: Vec<WarpStack> = (0..threads.len())
            .collect::<Vec<_>>()
            .chunks(width as usize)
            .map(|lanes| WarpStack::new(lanes.to_vec()))
            .collect();
        loop {
            let mut any_at_barrier = false;
            for warp in &mut warps {
                match warp.run(threads, &mut ctx, hook, budget, rpcs)? {
                    WarpEffect::Done => {}
                    WarpEffect::AtBarrier => any_at_barrier = true,
                }
            }
            if !any_at_barrier {
                debug_assert!(
                    threads.iter().all(|t| t.status == ThreadStatus::Done),
                    "a warp stopped without finishing or reaching a barrier"
                );
                return Ok(());
            }
            stats.barriers += 1;
            for thread in threads.iter_mut() {
                if thread.status == ThreadStatus::AtBarrier {
                    thread.status = ThreadStatus::Ready;
                }
            }
        }
    }
}

/// Quantum step count a thread must exceed before spin detection arms.
///
/// Legitimate quanta in the workload suite are orders of magnitude shorter
/// (the longest *whole-thread* retirement stream across all evaluated
/// kernels is 588 instructions, and a quantum is a slice of one), so below
/// this threshold the detector costs one counter increment per step and
/// nothing else. The threshold is a performance knob, not a soundness one:
/// arming during a legitimate long quantum merely adds a cheap
/// pc-first state comparison per step until the quantum ends.
const SPIN_ARM_STEPS: u64 = 1 << 12;

/// Detects provably infinite loops inside a single thread quantum.
///
/// Under the serial schedule a thread's quantum has exclusive access to
/// global, shared and local memory — nothing else runs until it blocks. So
/// if the thread's complete architectural state (`pc`, registers,
/// predicates, offset registers) exactly recurs and *no store to any
/// address space* happened in between, every load repeats its previous
/// value and execution is periodic: the quantum can never end. Aborting
/// with [`SimFault::BudgetExceeded`] at that point classifies the run
/// exactly as budget exhaustion would, at a fraction of the cost.
///
/// `icnt` is deliberately excluded from the comparison: it increments every
/// retirement but only feeds hook events, never execution semantics, and a
/// fault-injection hook has necessarily already fired by the time a run
/// diverges into a spin (the fault-free run has no over-length quanta).
///
/// Snapshots are taken at power-of-two step counts (Brent's cycle-finding
/// schedule), so a period of any length is caught within a small constant
/// factor of its first full repetition.
struct SpinDetector {
    steps: u64,
    next_snap: u64,
    /// No store retired since the current snapshot was taken.
    clean: bool,
    /// Register index that broke the last full comparison, checked first:
    /// a monotone hang loop (a corrupted induction variable counting away
    /// from its bound) revisits the snapshot `pc` every iteration but
    /// keeps differing in the same striding register, so this hint turns
    /// the per-revisit scan into a single compare.
    hint: usize,
    snap: Option<Box<SpinSnapshot>>,
}

struct SpinSnapshot {
    pc: usize,
    ofs: [u32; 4],
    preds: [u8; 8],
    gprs: [u32; 128],
}

impl SpinDetector {
    fn new() -> Self {
        SpinDetector {
            steps: 0,
            next_snap: SPIN_ARM_STEPS,
            clean: false,
            hint: 0,
            snap: None,
        }
    }

    /// Observes one retired (non-terminal) step of the watched thread.
    ///
    /// `stored` is whether the step wrote memory; over-reporting is safe
    /// (it only delays detection), under-reporting would be unsound.
    #[inline]
    fn observe(&mut self, thread: &ThreadState, stored: bool) -> Result<(), SimFault> {
        self.steps += 1;
        if stored {
            self.clean = false;
        }
        if self.steps >= self.next_snap {
            self.next_snap *= 2;
            self.snap = Some(Box::new(SpinSnapshot {
                pc: thread.pc,
                ofs: thread.ofs,
                preds: thread.preds,
                gprs: thread.gprs,
            }));
            self.clean = true;
        } else if self.clean {
            if let Some(s) = &self.snap {
                if s.pc == thread.pc
                    && s.gprs[self.hint] == thread.gprs[self.hint]
                    && s.ofs == thread.ofs
                    && s.preds == thread.preds
                {
                    match (0..s.gprs.len()).find(|&i| s.gprs[i] != thread.gprs[i]) {
                        Some(i) => self.hint = i,
                        None => return Err(SimFault::BudgetExceeded),
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NopHook;
    use fsp_isa::assemble;

    #[test]
    fn barrier_communicates_through_shared() {
        // Thread 0 writes a value to shared memory before the barrier; all
        // threads read it after and store to their global slot.
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            // set.eq leaves the zero flag CLEAR when the comparison holds
            // (the boolean result is all-ones), so "branch if equal" is
            // `set.eq` + `@$p0.ne` — exactly the idiom in the paper's
            // PathFinder listing.
            set.eq.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne bra writer
            bra join
            writer:
            mov.u32 $r2, 0x2A
            mov.u32 s[0x0100], $r2
            join:
            bar.sync 0x0
            mov.u32 $r3, s[0x0100]
            shl.u32 $r4, $r1, 0x2
            add.u32 $r4, $r4, s[0x0010]
            st.global.u32 [$r4], $r3
            exit
            "#,
        )
        .unwrap();
        let mut global = MemBlock::with_words(8);
        let launch = Launch::new(p).grid(1, 1).block(8, 1, 1).param(0);
        let stats = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap();
        assert_eq!(global.to_vec(), [42u32; 8]);
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.threads, 8);
    }

    #[test]
    fn provable_spin_aborts_without_draining_budget() {
        // With a budget this large, only spin detection lets the run
        // terminate in test time.
        let p = assemble("t", "spin: bra spin").unwrap();
        let mut global = MemBlock::with_words(1);
        let launch = Launch::new(p).instr_budget(1 << 40);
        let err = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
    }

    #[test]
    fn long_finite_loop_is_not_flagged_as_spin() {
        // 100k iterations, no stores, register state never recurs: must run
        // to completion even though the quantum is far past the arm
        // threshold.
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x186A0
            loop:
            sub.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne bra loop
            mov.u32 $r2, s[0x0010]
            st.global.u32 [$r2], $r1
            exit
            "#,
        )
        .unwrap();
        let mut global = MemBlock::with_words(1);
        let launch = Launch::new(p).instr_budget(1 << 40).param(0);
        let stats = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap();
        assert_eq!(global.load(0).unwrap(), 0);
        assert!(stats.instructions > 100_000);
    }

    #[test]
    fn budget_exhaustion_reports_hang() {
        let p = assemble("t", "spin: bra spin").unwrap();
        let mut global = MemBlock::with_words(1);
        let launch = Launch::new(p).instr_budget(1000);
        let err = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
    }

    #[test]
    fn oob_store_faults() {
        let p = assemble("t", "mov.u32 $r1, 0x1000\nst.global.u32 [$r1], $r1\nexit").unwrap();
        let mut global = MemBlock::with_words(4);
        let launch = Launch::new(p);
        let err = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap_err();
        assert!(matches!(
            err,
            SimFault::InvalidAccess {
                space: MemSpace::Global,
                ..
            }
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            cvt.u32.u16 $r2, %ctaid.x
            mul.lo.u32 $r3, $r2, $r1
            shl.u32 $r4, $r1, 0x2
            add.u32 $r4, $r4, s[0x0010]
            st.global.u32 [$r4], $r3
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p).grid(2, 1).block(4, 1, 1).param(0);
        let run = || {
            let mut g = MemBlock::with_words(16);
            Simulator::new().run(&launch, &mut g, &mut NopHook).unwrap();
            g.to_vec()
        };
        assert_eq!(run(), run());
    }

    /// A multi-CTA, barrier-using kernel for checkpoint tests.
    fn checkpoint_kernel() -> Launch {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            cvt.u32.u16 $r2, %ctaid.x
            mul.lo.u32 $r3, $r2, $r1
            mov.u32 $r5, 0x0
            mov.u32 $r6, 0x8
            loop:
            add.u32 $r3, $r3, $r1
            add.u32 $r5, $r5, 0x1
            set.lt.u32.u32 $p0/$o127, $r5, $r6
            @$p0.ne bra loop
            bar.sync 0x0
            mad.lo.u32 $r4, $r2, 0x4, $r1
            shl.u32 $r4, $r4, 0x2
            add.u32 $r4, $r4, s[0x0010]
            st.global.u32 [$r4], $r3
            exit
            "#,
        )
        .unwrap();
        Launch::new(p)
            .grid(3, 1)
            .block(4, 1, 1)
            .param(0)
            .instr_budget(100_000)
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let launch = checkpoint_kernel();
        let mut plain = MemBlock::with_words(16);
        let plain_stats = Simulator::new()
            .run(&launch, &mut plain, &mut NopHook)
            .unwrap();
        let mut ckpt = MemBlock::with_words(16);
        let (stats, cps) = Simulator::new()
            .run_with_checkpoints(
                &launch,
                &mut ckpt,
                &mut NopHook,
                CheckpointConfig {
                    interval: 16,
                    max: 64,
                },
            )
            .unwrap();
        assert_eq!(stats, plain_stats);
        assert_eq!(ckpt, plain);
        assert!(!cps.is_empty(), "a 16-instruction cadence captures some");
        assert!(cps.windows(2).all(|w| w[0].retired < w[1].retired));
        for tid in 0..launch.num_threads() {
            assert!(
                cps.windows(2).all(|w| w[0].icnt(tid) <= w[1].icnt(tid)),
                "per-thread icnt must be nondecreasing"
            );
        }
    }

    #[test]
    fn resume_from_every_checkpoint_reproduces_the_run() {
        let launch = checkpoint_kernel();
        let mut golden = MemBlock::with_words(16);
        let golden_stats = Simulator::new()
            .run(&launch, &mut golden, &mut NopHook)
            .unwrap();
        // Interval 1 puts a capture point after every retirement, barrier
        // releases and CTA ends included; 7 lands mid-phase.
        for interval in [1, 7] {
            let mut tmp = MemBlock::with_words(16);
            let (_, cps) = Simulator::new()
                .run_with_checkpoints(
                    &launch,
                    &mut tmp,
                    &mut NopHook,
                    CheckpointConfig {
                        interval,
                        max: 1000,
                    },
                )
                .unwrap();
            assert_eq!(
                cps.len() as u64,
                (golden_stats.instructions - 1) / interval,
                "one snapshot per due point before the final step"
            );
            let mut resume = ResumeScratch::default();
            let mut resumed = MemBlock::with_words(16);
            for (i, cp) in cps.iter().enumerate() {
                assert_eq!(cp.retired(), (i as u64 + 1) * interval);
                let icnt: u64 = (0..launch.num_threads())
                    .map(|tid| u64::from(cp.icnt(tid)))
                    .sum();
                assert_eq!(icnt, cp.retired(), "per-thread icnt sums to retired");
                let stats = Simulator::new()
                    .run_from_with(cp, &launch, &mut resumed, &mut NopHook, &mut resume)
                    .unwrap();
                assert_eq!(resumed, golden, "resume at retired={}", cp.retired());
                assert_eq!(
                    stats.instructions,
                    golden_stats.instructions - cp.retired(),
                    "suffix stats count only the skipped-prefix remainder"
                );
            }
        }
    }

    #[test]
    fn checkpoint_thinning_bounds_the_set() {
        let launch = checkpoint_kernel();
        let mut g = MemBlock::with_words(16);
        let (_, cps) = Simulator::new()
            .run_with_checkpoints(
                &launch,
                &mut g,
                &mut NopHook,
                CheckpointConfig {
                    interval: 1,
                    max: 8,
                },
            )
            .unwrap();
        assert!(cps.len() <= 8, "thinning keeps the set bounded");
        assert!(cps.windows(2).all(|w| w[0].retired < w[1].retired));
    }

    #[test]
    fn hang_budget_is_identical_when_resumed() {
        // A kernel that spins forever: full run and resumed run must both
        // classify as BudgetExceeded, with the resumed budget shrunk by
        // exactly the skipped prefix.
        let p = assemble("t", "spin: bra spin").unwrap();
        let launch = Launch::new(p).instr_budget(1000);
        let mut g = MemBlock::with_words(1);
        let err = Simulator::new()
            .run_with_checkpoints(&launch, &mut g, &mut NopHook, CheckpointConfig::default())
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
    }
}
