//! The write-back interceptor that performs the bit flip.

use fsp_sim::{ExecHook, RetireEvent, Writeback};

use crate::model::FaultModel;
use crate::site::FaultSite;

/// An [`ExecHook`] that corrupts one destination-register write at one
/// fault site and passes everything else through untouched. The default
/// corruption is the paper's single-bit flip; see [`FaultModel`] for the
/// extension modes.
///
/// The site's `bit` indexes the instruction's destination bits across its
/// write-back slots in order, so a dual-destination instruction
/// (`set.eq $p0/$r1`) exposes its predicate bits first (`0..4`) and the
/// general-purpose bits after (`4..36`).
#[derive(Debug, Clone, Copy)]
pub struct InjectionHook {
    site: FaultSite,
    model: FaultModel,
    /// Destination bits already seen at the armed (tid, dyn_idx); used to
    /// map the flat bit index onto the right write-back slot.
    bits_seen: u32,
    triggered: bool,
    /// Instructions retired so far by the run this hook observes.
    retired: u64,
}

impl InjectionHook {
    /// Arms a single-bit-flip hook for `site`.
    #[must_use]
    pub fn new(site: FaultSite) -> Self {
        Self::with_model(site, FaultModel::SingleBitFlip)
    }

    /// Arms a hook for `site` with an explicit corruption model.
    #[must_use]
    pub fn with_model(site: FaultSite, model: FaultModel) -> Self {
        InjectionHook {
            site,
            model,
            bits_seen: 0,
            triggered: false,
            retired: 0,
        }
    }

    /// Whether the flip actually happened (false means the site was never
    /// reached — e.g. a site enumerated from a stale trace).
    #[must_use]
    pub fn triggered(&self) -> bool {
        self.triggered
    }

    /// Instructions retired so far by the observed run. Every retirement
    /// spends one unit of the hang budget, so a run that ends in
    /// [`fsp_sim::SimFault::BudgetExceeded`] reports its whole budget here
    /// (less, when the simulator's spin detector proved the hang early).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

impl ExecHook for InjectionHook {
    #[inline]
    fn on_retire(&mut self, _ev: RetireEvent<'_>) {
        self.retired += 1;
    }

    #[inline]
    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        if self.triggered || wb.tid != self.site.tid || wb.dyn_idx != self.site.dyn_idx {
            return None;
        }
        let offset = self.site.bit.wrapping_sub(self.bits_seen);
        if offset < wb.width {
            self.triggered = true;
            let key = (u64::from(self.site.tid) << 40)
                ^ (u64::from(self.site.dyn_idx) << 8)
                ^ u64::from(self.site.bit);
            return Some(self.model.apply(wb.value, offset, wb.width, key));
        }
        self.bits_seen += wb.width;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;
    use fsp_sim::{Launch, MemBlock, Simulator};

    fn run_with(site: FaultSite) -> (Vec<u32>, bool) {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x0F                       // dyn 0: 32 bits
            set.lt.u32.u32 $p0/$r2, $r1, 0xFF       // dyn 1: 4 + 32 bits
            st.global.u32 [$r124], $r1
            mov.u32 $r3, 0x4
            st.global.u32 [$r3], $r2
            exit
            "#,
        )
        .unwrap();
        let mut g = MemBlock::with_words(2);
        let mut hook = InjectionHook::new(site);
        Simulator::new()
            .run(&Launch::new(p), &mut g, &mut hook)
            .unwrap();
        (g.to_vec(), hook.triggered())
    }

    #[test]
    fn flips_gpr_bit() {
        let (words, hit) = run_with(FaultSite {
            tid: 0,
            dyn_idx: 0,
            bit: 4,
        });
        assert!(hit);
        assert_eq!(words[0], 0x0F ^ 0x10);
    }

    #[test]
    fn dual_dest_bit_indexing() {
        // Bit 0 lands in the predicate flags (value 0 -> flag bit flipped,
        // $r2 untouched).
        let (words, hit) = run_with(FaultSite {
            tid: 0,
            dyn_idx: 1,
            bit: 0,
        });
        assert!(hit);
        assert_eq!(words[1], 0xFFFF_FFFF, "gpr result unchanged");
        // Bit 4 is the first gpr bit.
        let (words, hit) = run_with(FaultSite {
            tid: 0,
            dyn_idx: 1,
            bit: 4,
        });
        assert!(hit);
        assert_eq!(words[1], 0xFFFF_FFFE);
        // Bit 35 is the gpr's MSB.
        let (words, _) = run_with(FaultSite {
            tid: 0,
            dyn_idx: 1,
            bit: 35,
        });
        assert_eq!(words[1], 0x7FFF_FFFF);
    }

    #[test]
    fn unreached_site_does_not_trigger() {
        let (words, hit) = run_with(FaultSite {
            tid: 5,
            dyn_idx: 0,
            bit: 0,
        });
        assert!(!hit);
        assert_eq!(words[0], 0x0F);
    }

    #[test]
    fn fires_at_most_once() {
        // dyn_idx 0 occurs once; flipping it twice would require a second
        // retirement of the same (tid, dyn_idx), which cannot happen — but
        // the guard also protects against zero-width slots.
        let mut hook = InjectionHook::new(FaultSite {
            tid: 0,
            dyn_idx: 0,
            bit: 0,
        });
        assert!(!hook.triggered());
        let wb = fsp_sim::Writeback {
            tid: 0,
            dyn_idx: 0,
            pc: 0,
            slot: 0,
            reg: fsp_isa::Register::Gpr(1),
            value: 0,
            width: 32,
        };
        assert_eq!(hook.writeback(&wb), Some(1));
        assert!(hook.triggered());
        assert_eq!(hook.writeback(&wb), None);
    }
}
