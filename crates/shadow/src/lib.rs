//! **fpx-shadow** — shadow-value precision sanitizer.
//!
//! GPU-FPX's detector and analyzer catch the four *manifest* exception
//! classes (NaN, INF, subnormal, div0). Silent precision loss —
//! catastrophic cancellation, error accumulated far below the
//! representable threshold — never raises a flag, because the corrupted
//! result is still an ordinary finite number. Shadow execution (NSan,
//! Herbgrind, FPSanitizer) closes that gap: carry every FP value in a
//! *higher* precision alongside the real computation, and flag writeback
//! sites where the two diverge.
//!
//! This crate implements that model as an opt-in [`Phase::Observe`] hook
//! on the simulator's register-writeback path (the same Mutate-before-
//! Observe contract `fpx-inject` mutators use, so injected faults are
//! visible to the shadow comparison):
//!
//! * **Full mode** shadows every FP32 computation (`FADD`/`FMUL`/`FFMA`/
//!   `MUFU`/`FMNMX`) with an FP64 shadow register file.
//! * **RPC mode** (reduced-precision check) shadows FP64 computations
//!   with *truncated* 24-bit-significand shadows — divergence beyond the
//!   ulp budget means the computation amplifies precision differences,
//!   at a fraction of the cost of a full quad-precision shadow.
//!
//! Each writeback compares real vs shadow and classifies divergence
//! ([`DivergenceKind`]): catastrophic **cancellation** (exponent drop
//! beyond a threshold after add/sub of near-equal magnitudes), **large
//! relative error** (above a configurable ulp budget), or **total loss**
//! (shadow finite while the real value is not — cross-checking the
//! existing detector). Findings carry the same [`LocationTable`] site
//! attribution and Table-2-style flow states (Appearance → Propagation →
//! Disappearance) as analyzer events, so a precision-loss site gets the
//! same birth→propagate→kill chain treatment as a NaN, including
//! `--chains-dot` export.
//!
//! Determinism: shadow state is keyed by block (each block only touches
//! its own key), findings are pushed through the per-block channel ports
//! and merged by ⟨launch, block, seq⟩, and per-warp events pick the
//! first event-bearing lane — so reports are byte-identical under any
//! `--threads` and across trace record vs replay.
//!
//! [`Phase::Observe`]: fpx_sim::hooks::Phase
//! [`LocationTable`]: gpu_fpx::LocationTable

pub mod classify;
pub mod regmap;
pub mod report;
pub mod tool;

pub use classify::{DivergenceKind, ShadowConfig, ShadowMode};
pub use regmap::RegMap;
pub use report::{observe_shadow, ShadowFinding, ShadowReport};
pub use tool::Shadow;
