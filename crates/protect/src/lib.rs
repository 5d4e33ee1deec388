//! Selective kernel hardening with detection-aware verification.
//!
//! The pruning pipeline (fsp-core) makes *measuring* a kernel's
//! vulnerability cheap; this crate closes the loop by *acting* on the
//! measurement. It applies selective duplicate-and-compare (DMR) to the
//! most vulnerable instructions under a dynamic-instruction overhead
//! budget, then verifies the hardened kernel by re-running the same
//! injection campaign against it and watching SDC outcomes convert to
//! [`fsp_stats::Outcome::Detected`].
//!
//! The crate splits into three layers:
//!
//! * [`transform`] — the mechanical DMR pass over [`fsp_isa`] programs:
//!   shadow recomputation, raw-bit compare, branch to an appended
//!   `trap` detected-error exit ([`fsp_isa::Opcode::Trap`]).
//! * [`plan`] — the protection planner: attributes a baseline campaign's
//!   SDC weight back to static instructions (optionally live-bit scaled
//!   by fsp-analyze), groups candidates by [`plan::ProtectScope`], and
//!   greedily selects under the budget.
//! * [`verify`] — re-injection verification: remaps the baseline fault
//!   sites onto the transformed program and measures detection coverage
//!   and SDC reduction against overhead.

pub mod plan;
pub mod transform;
pub mod verify;

pub use plan::{plan as plan_protection, PlanInputs, PlanUnit, ProtectScope, ProtectionPlan};
pub use transform::{
    candidate_pcs, harden, is_candidate, HardenError, HardenedKernel, DETECT_LABEL,
    DYNAMIC_OVERHEAD, GROUP_OVERHEAD,
};
pub use verify::{
    coverage_curve, harden_and_verify, harden_and_verify_with, remap_sites, CampaignRunner,
    HardenConfig, HardeningOutcome, HardeningReport, ProtectError, ProtectedTarget,
};
