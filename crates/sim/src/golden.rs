//! Golden value traces: per-thread commit logs of the fault-free run.
//!
//! The checkpoint-resume fast path classifies an injection as Masked the
//! moment its *divergence set* — the registers and memory words whose
//! values differ from the fault-free run at the same retirement point —
//! becomes empty. Deciding membership requires the fault-free values, so
//! [`Experiment::prepare`] records one [`GoldenTrace`] alongside the
//! dynamic-instruction trace: for every thread, the PC stream, every
//! committed register write-back and every store, in retirement order.
//!
//! Because the simulator is deterministic and threads only interact at
//! barrier-phase boundaries (CTAs run serially), a faulty run whose
//! per-thread PC streams stay aligned with the golden run can be compared
//! *positionally*: the value committed by thread `t`'s `k`-th retirement
//! is directly comparable to the golden value at the same `(t, k, slot)`
//! coordinate, with no cursor state in the tracker. The index structures
//! here (`wb_end` / `st_end` prefix-sum arrays) exist to make that random
//! access O(1), which in turn lets checkpoint-resumed runs — which start
//! mid-stream at an arbitrary `dyn_idx` — share the same trace.
//!
//! [`Experiment::prepare`]: ../../fsp_inject/campaign/struct.Experiment.html

use fsp_isa::MemSpace;

use crate::hook::{ExecHook, RetireEvent, Writeback};

/// One store committed by the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenStore {
    /// Address space written.
    pub space: MemSpace,
    /// Resolved byte address.
    pub addr: u32,
    /// The word stored.
    pub value: u32,
}

/// The fault-free commit log of a single thread.
#[derive(Debug, Clone, Default)]
pub struct GoldenThread {
    /// PC of the `k`-th retired instruction.
    pcs: Vec<u32>,
    /// Exclusive prefix-sum: write-backs committed by retirements `0..=k`.
    wb_end: Vec<u32>,
    /// Exclusive prefix-sum: stores committed by retirements `0..=k`.
    st_end: Vec<u32>,
    /// All committed register values, in (retirement, slot) order.
    values: Vec<u32>,
    /// All committed stores, in retirement order.
    stores: Vec<GoldenStore>,
}

impl GoldenThread {
    /// Number of instructions the thread retired in the golden run.
    #[must_use]
    pub fn retirements(&self) -> u32 {
        self.pcs.len() as u32
    }

    /// PC of the `k`-th retirement, or `None` past the end of the stream.
    #[must_use]
    pub fn pc(&self, k: u32) -> Option<u32> {
        self.pcs.get(k as usize).copied()
    }

    /// Index into the value log of the `k`-th retirement's slot-0
    /// write-back (valid for `k <= retirements()`).
    #[must_use]
    pub fn wb_index(&self, k: u32) -> u32 {
        if k == 0 {
            0
        } else {
            self.wb_end[k as usize - 1]
        }
    }

    /// Index into the store log of the `k`-th retirement's store (valid
    /// for `k <= retirements()`).
    #[must_use]
    pub fn store_index(&self, k: u32) -> u32 {
        if k == 0 {
            0
        } else {
            self.st_end[k as usize - 1]
        }
    }

    /// The committed register value at `idx` (see [`Self::wb_index`]).
    #[must_use]
    pub fn value(&self, idx: u32) -> Option<u32> {
        self.values.get(idx as usize).copied()
    }

    /// The committed store at `idx` (see [`Self::store_index`]).
    #[must_use]
    pub fn store(&self, idx: u32) -> Option<GoldenStore> {
        self.stores.get(idx as usize).copied()
    }
}

/// Grid-wide profile of the golden run's stores to one global word.
///
/// Built by [`GoldenTrace::global_write_profile`]; the early-convergence
/// tracker uses it to prove that a divergent output word can never be
/// restored (no golden store to it remains in the schedule's future) and
/// stop tracking the run on the spot.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalWriteStats {
    /// Total golden stores to the word, grid-wide.
    pub count: u32,
    /// Last CTA (serial launch order) whose threads store the word.
    pub last_cta: u32,
}

/// Grid-wide profile of the golden run's global-memory traffic.
///
/// Per word: one [`GlobalWriteStats`] per global word the golden run
/// stores, and the last CTA that loads each global word it loads, both
/// held as sorted vectors keyed by address. Lookup is a branch-free binary
/// search — this is probed on the per-instruction comparison path of the
/// injection fast paths, where the previous `HashMap` paid a SipHash per
/// divergent store.
///
/// Per CTA: the golden retirements of every later CTA, and whether one of
/// the CTA's own global stores is loaded by a later CTA. Together with the
/// per-word facts these decide the injection engines' CTA-boundary cut:
/// once an injected run leaves its faulty CTA, the later CTAs provably
/// replay the golden run when none of them loads a word the faulty CTA
/// could have changed and the hang budget covers their golden work.
#[derive(Debug, Clone, Default)]
pub struct GlobalWriteProfile {
    entries: Vec<(u32, GlobalWriteStats)>,
    /// `(addr, last loading CTA)` for every global word the golden run
    /// loads, ascending by address.
    loads: Vec<(u32, u32)>,
    /// `later_retirements[c]`: golden retirements of all CTAs after `c`.
    later_retirements: Vec<u64>,
    /// `stores_loaded_later[c]`: some golden global store of CTA `c`
    /// targets a word that a later CTA loads.
    stores_loaded_later: Vec<bool>,
}

impl GlobalWriteProfile {
    /// The profile of global word `addr`, or `None` if the golden run
    /// never stores it.
    #[must_use]
    pub fn get(&self, addr: u32) -> Option<&GlobalWriteStats> {
        self.entries
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Number of distinct global words stored by the golden run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the golden run stores no global words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(addr, stats)` pairs in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &GlobalWriteStats)> {
        self.entries.iter().map(|(a, s)| (*a, s))
    }

    /// Whether a CTA after `cta` loads global word `addr` in the golden
    /// run.
    #[must_use]
    pub fn loaded_after(&self, addr: u32, cta: u32) -> bool {
        self.loads
            .binary_search_by_key(&addr, |&(a, _)| a)
            .is_ok_and(|i| self.loads[i].1 > cta)
    }

    /// Golden retirements of all CTAs after `cta` (0 past the last CTA).
    #[must_use]
    pub fn later_retirements(&self, cta: u32) -> u64 {
        self.later_retirements
            .get(cta as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Whether a golden global store of `cta` targets a word that a later
    /// CTA loads (`true` past the last CTA, where no cut applies).
    #[must_use]
    pub fn stores_loaded_later(&self, cta: u32) -> bool {
        self.stores_loaded_later
            .get(cta as usize)
            .copied()
            .unwrap_or(true)
    }
}

/// Per-thread fault-free commit logs for a whole launch.
#[derive(Debug, Clone, Default)]
pub struct GoldenTrace {
    threads: Vec<GoldenThread>,
    /// `(addr, last loading tid)` for every global word loaded, ascending
    /// by address.
    global_loads: Vec<(u32, u32)>,
}

impl GoldenTrace {
    /// Profiles the golden run's global traffic (see
    /// [`GlobalWriteProfile`]): every stored word's store count and last
    /// writer CTA, every loaded word's last loader CTA, and the per-CTA
    /// facts of the CTA-boundary cut. Words absent from the store profile
    /// are never stored by the fault-free run.
    #[must_use]
    pub fn global_write_profile(&self, threads_per_cta: u32) -> GlobalWriteProfile {
        let tpc = threads_per_cta.max(1);
        let num_ctas = self.threads.len().div_ceil(tpc as usize);
        let mut profile = GlobalWriteProfile {
            entries: Vec::new(),
            loads: self
                .global_loads
                .iter()
                .map(|&(addr, tid)| (addr, tid / tpc))
                .collect(),
            later_retirements: vec![0; num_ctas],
            stores_loaded_later: vec![false; num_ctas],
        };
        let mut map = std::collections::BTreeMap::new();
        let mut retirements = vec![0u64; num_ctas];
        for (tid, t) in self.threads.iter().enumerate() {
            let cta = tid as u32 / tpc;
            retirements[cta as usize] += u64::from(t.retirements());
            for s in t.stores.iter().filter(|s| s.space == MemSpace::Global) {
                let e: &mut GlobalWriteStats = map.entry(s.addr).or_default();
                e.count += 1;
                e.last_cta = e.last_cta.max(cta);
                if profile.loaded_after(s.addr, cta) {
                    profile.stores_loaded_later[cta as usize] = true;
                }
            }
        }
        for c in (0..num_ctas.saturating_sub(1)).rev() {
            profile.later_retirements[c] = profile.later_retirements[c + 1] + retirements[c + 1];
        }
        profile.entries = map.into_iter().collect();
        profile
    }

    /// The commit log of flat thread `tid`, if it is in range.
    #[must_use]
    pub fn thread(&self, tid: u32) -> Option<&GoldenThread> {
        self.threads.get(tid as usize)
    }

    /// Number of threads in the recorded launch.
    #[must_use]
    pub fn num_threads(&self) -> u32 {
        self.threads.len() as u32
    }

    /// Total committed register values across all threads (memory sizing).
    #[must_use]
    pub fn total_values(&self) -> usize {
        self.threads.iter().map(|t| t.values.len()).sum()
    }
}

/// Hook that records a [`GoldenTrace`] during a fault-free run.
///
/// Must be composed so that no other hook overrides write-back values
/// (the recorder logs `wb.value` as the committed value).
#[derive(Debug, Clone)]
pub struct GoldenRecorder {
    threads: Vec<GoldenThread>,
    /// One past the largest tid loading each global word, indexed by word
    /// (0: never loaded). CTAs run in tid order, so the largest loading
    /// tid belongs to the last loading CTA.
    last_loader: Vec<u32>,
}

impl GoldenRecorder {
    /// A recorder for a launch of `num_threads` flat threads.
    #[must_use]
    pub fn new(num_threads: u32) -> Self {
        GoldenRecorder {
            threads: vec![GoldenThread::default(); num_threads as usize],
            last_loader: Vec::new(),
        }
    }

    /// Finalizes the recording.
    #[must_use]
    pub fn finish(self) -> GoldenTrace {
        GoldenTrace {
            threads: self.threads,
            global_loads: (0u32..)
                .zip(self.last_loader)
                .filter(|&(_, end)| end > 0)
                .map(|(word, end)| (word * 4, end - 1))
                .collect(),
        }
    }
}

impl ExecHook for GoldenRecorder {
    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        let t = &mut self.threads[wb.tid as usize];
        debug_assert_eq!(
            t.values.len() as u32,
            t.wb_index(wb.dyn_idx) + u32::from(wb.slot),
            "write-back out of retirement order"
        );
        t.values.push(wb.value);
        None
    }

    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        for a in ev.accesses {
            if !a.is_store && a.space == MemSpace::Global {
                let word = (a.addr / 4) as usize;
                if word >= self.last_loader.len() {
                    self.last_loader.resize(word + 1, 0);
                }
                let end = &mut self.last_loader[word];
                *end = (*end).max(ev.tid + 1);
            }
        }
        let t = &mut self.threads[ev.tid as usize];
        debug_assert_eq!(t.pcs.len() as u32, ev.dyn_idx, "retirement gap");
        for a in ev.accesses.iter().filter(|a| a.is_store) {
            t.stores.push(GoldenStore {
                space: a.space,
                addr: a.addr,
                value: a.value,
            });
        }
        t.pcs.push(ev.pc as u32);
        t.wb_end.push(t.values.len() as u32);
        t.st_end.push(t.stores.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Launch, MemBlock, Simulator};
    use fsp_isa::assemble;

    fn trace_of(src: &str, block: u32) -> GoldenTrace {
        let program = assemble("golden_test", src).expect("assembles");
        let launch = Launch::new(program).grid(1, 1).block(block, 1, 1);
        let mut memory = MemBlock::with_words(64);
        let mut rec = GoldenRecorder::new(launch.num_threads());
        Simulator::new()
            .run(&launch, &mut memory, &mut rec)
            .expect("golden run");
        rec.finish()
    }

    #[test]
    fn records_pc_value_and_store_streams() {
        let trace = trace_of(
            r#"
            mov.u32 $r1, 0x7
            add.u32 $r1, $r1, 0x3
            st.global.u32 [0x4], $r1
            exit
            "#,
            1,
        );
        let t = trace.thread(0).expect("thread 0");
        assert_eq!(t.retirements(), 4);
        assert_eq!(t.pc(0), Some(0));
        assert_eq!(t.pc(3), Some(3));
        assert_eq!(t.pc(4), None);
        // Retirements 0 and 1 each committed one write-back.
        assert_eq!(t.wb_index(0), 0);
        assert_eq!(t.wb_index(1), 1);
        assert_eq!(t.value(t.wb_index(0)), Some(7));
        assert_eq!(t.value(t.wb_index(1)), Some(10));
        // The store retired third.
        assert_eq!(t.store_index(2), 0);
        assert_eq!(t.store_index(3), 1);
        assert_eq!(
            t.store(0),
            Some(GoldenStore {
                space: MemSpace::Global,
                addr: 4,
                value: 10
            })
        );
    }

    #[test]
    fn profile_records_later_loads_and_cta_suffixes() {
        // Two one-thread CTAs: CTA 0 stores 0x10, CTA 1 loads it and
        // stores 0x14.
        let program = assemble(
            "golden_test",
            r#"
            cvt.u32.u16 $r1, %ctaid.x
            set.eq.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne bra first
            ld.global.u32 $r2, [0x10]
            st.global.u32 [0x14], $r2
            exit
            first:
            st.global.u32 [0x10], $r1
            exit
            "#,
        )
        .expect("assembles");
        let launch = Launch::new(program).grid(2, 1).block(1, 1, 1);
        let mut memory = MemBlock::with_words(64);
        let mut rec = GoldenRecorder::new(launch.num_threads());
        Simulator::new()
            .run(&launch, &mut memory, &mut rec)
            .expect("golden run");
        let trace = rec.finish();
        let p = trace.global_write_profile(1);
        assert!(p.loaded_after(0x10, 0));
        assert!(!p.loaded_after(0x10, 1));
        assert!(!p.loaded_after(0x14, 0), "stored, never loaded");
        assert!(p.stores_loaded_later(0));
        assert!(!p.stores_loaded_later(1));
        assert!(p.stores_loaded_later(2), "no cut past the last CTA");
        let cta1 = u64::from(trace.thread(1).expect("thread 1").retirements());
        assert_eq!(p.later_retirements(0), cta1);
        assert_eq!(p.later_retirements(1), 0);
        assert_eq!(p.get(0x14).map(|w| w.last_cta), Some(1));
    }

    #[test]
    fn per_thread_streams_are_independent() {
        let trace = trace_of(
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r2, $r1, 0x2
            st.global.u32 [$r2], $r1
            exit
            "#,
            4,
        );
        for tid in 0..4 {
            let t = trace.thread(tid).expect("thread");
            assert_eq!(t.retirements(), 4);
            assert_eq!(t.value(t.wb_index(0)), Some(tid));
            let s = t.store(0).expect("store");
            assert_eq!((s.addr, s.value), (tid * 4, tid));
        }
        assert!(trace.thread(4).is_none());
    }
}
