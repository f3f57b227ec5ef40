//! `fpx-inject`: a deterministic fault-injection campaign engine for
//! measuring detector/analyzer coverage.
//!
//! GPU-FPX (HPDC 2023) answers "which exceptions does this program
//! raise?"; this crate answers the meta-question a tool author needs:
//! **which injected exceptions does the tool itself catch?** It hooks
//! the simulator's register-writeback path with mutate-phase device
//! functions that flip exponent/mantissa bits (FlowFPX's e-flip),
//! force NaN/INF/subnormal payloads, or zero a reciprocal's operand —
//! at sites drawn by a seeded [`SplitMix64`] over the static
//! instruction stream. Each injected execution runs under the
//! detector, the analyzer, and the BinFPE baseline; an IEEE-754 oracle
//! (`gpu_fpx::oracle`) decides what a correct tool *must* report, and
//! every trial scores as detected / misclassified-flow-state / missed.
//!
//! The output is a coverage matrix by ⟨fault kind, fp-format, flow
//! state⟩ with a replayable ⟨seed, site⟩ repro line for every miss, and
//! an automatic shrinking pass that bisects missed multi-fault trials
//! down to a single culprit.
//!
//! Determinism is load-bearing: campaigns draw no wall-clock entropy,
//! fault outcomes aggregate through commutative atomics only, and the
//! simulator is schedule-deterministic — so the same ⟨seed, programs,
//! config⟩ produces byte-identical JSON under any `--threads`.
//!
//! [`SplitMix64`]: rng::SplitMix64

pub mod campaign;
pub mod fault;
pub mod json;
pub mod report;
pub mod rng;
pub mod site;
pub mod tool;

pub use campaign::{
    plan_faults, record_trial_trace, replay_plan, replay_trial, run_campaign, CampaignConfig,
    DEFAULT_BACKENDS,
};
pub use fault::{FaultKind, FaultSpec, FaultState};
pub use report::{CampaignReport, Outcome};
pub use rng::SplitMix64;
pub use site::{enumerate_sites, Site};
pub use tool::InjectTool;
