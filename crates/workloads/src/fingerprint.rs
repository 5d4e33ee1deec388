//! Stable content fingerprints for kernels and launch configurations.
//!
//! The campaign orchestration service (`fsp-serve`) keys its persistent
//! outcome store by *(kernel fingerprint, launch-config hash, fault model,
//! site)*: two campaigns share cached outcomes exactly when they run the
//! same program text under the same geometry, parameters and input image.
//! The fingerprints are therefore content-addressed — derived from the
//! kernel's disassembly and the launch's observable inputs, never from
//! registry names or pointer identity — and stable across processes.

use fsp_isa::KernelProgram;

use crate::Workload;

// The hasher lives at the bottom of the crate graph so every layer
// (including ones this crate depends on) shares one implementation; the
// reference vectors stay asserted in this module's tests.
use fsp_obs::Fnv1a;

/// Fingerprints a kernel program by its disassembly text.
///
/// The disassembler is a stable, injective rendering of the instruction
/// stream, so two programs collide only by (64-bit) hash accident.
#[must_use]
pub fn program_fingerprint(program: &KernelProgram) -> u64 {
    let mut h = Fnv1a::new();
    h.write(program.to_string().as_bytes());
    h.finish()
}

impl Workload {
    /// Stable content fingerprint of the kernel program (see
    /// [`program_fingerprint`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        program_fingerprint(&self.program)
    }

    /// Stable hash of the launch configuration: grid/block geometry, kernel
    /// parameters, initial memory image and output region — everything
    /// besides the program that determines an injection outcome.
    #[must_use]
    pub fn launch_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u32(self.grid.0);
        h.write_u32(self.grid.1);
        h.write_u32(self.block.0);
        h.write_u32(self.block.1);
        h.write_u32(self.block.2);
        h.write_u64(self.params.len() as u64);
        for &p in &self.params {
            h.write_u32(p);
        }
        let words = self.memory.to_vec();
        h.write_u64(words.len() as u64);
        for &w in &words {
            h.write_u32(w);
        }
        h.write_u32(self.output.0);
        h.write_u64(self.output.1 as u64);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xCBF2_9CE4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let ids = crate::registry_ids();
        let mut seen = std::collections::HashSet::new();
        for id in &ids {
            let a = crate::by_id(id, Scale::Eval).unwrap();
            let b = crate::by_id(id, Scale::Eval).unwrap();
            assert_eq!(a.fingerprint(), b.fingerprint(), "{id} unstable");
            assert_eq!(a.launch_hash(), b.launch_hash(), "{id} unstable");
            seen.insert((a.fingerprint(), a.launch_hash()));
        }
        assert_eq!(seen.len(), ids.len(), "fingerprint collision in registry");
    }

    #[test]
    fn scales_do_not_collide() {
        // Paper- and eval-scale instances of the same kernel must never
        // share a cache key: the geometry (and the scale-parameterized
        // program text) differ.
        let eval = crate::by_id("gemm", Scale::Eval).unwrap();
        let paper = crate::by_id("gemm", Scale::Paper).unwrap();
        assert_ne!(
            (eval.fingerprint(), eval.launch_hash()),
            (paper.fingerprint(), paper.launch_hash())
        );
        assert_ne!(eval.launch_hash(), paper.launch_hash());
    }
}
