//! # fpx-coach: exception-flow coaching
//!
//! The detector says *that* an exception happened and the analyzer says
//! *what kind of flow event* each instruction was. This crate answers
//! the question in between, the one the GPU-FPX paper's case studies
//! answer by hand: **where did this NaN come from, where did it go, and
//! what should I change?**
//!
//! Three pieces:
//!
//! * **Timelines** ([`timeline`]): a `Phase::Observe` lineage hook
//!   ([`Coach`]) tracks every exceptional register value from its birth
//!   across register writebacks until something kills it — an FTZ flush,
//!   a narrowing conversion, a clean overwrite, or a predicated-off
//!   lane. The host reconstructs one ordered birth→propagate→kill
//!   [`Timeline`] per value.
//! * **Rewind** ([`rewind`]): the simulator is deterministic, so
//!   "rewind to the 3rd event at that site" is just re-running with a
//!   [`CaptureTarget`] armed and snapshotting warp/register/lineage
//!   state when it fires — bit-exact, no checkpoints. [`Rewinder`] is
//!   the REPL (`next`/`prev`/`goto`/`state`/`chain`), scriptable for CI.
//! * **Coaching** ([`heur`]): shallow-but-anchored heuristics turn
//!   timelines (plus optional `fpx-shadow` cancellation findings) into
//!   ranked [`Suggestion`]s, each with a rewind repro command.
//!
//! Timelines are byte-identical across `--threads` values and between
//! live runs and trace replays: device state is per-block, records ride
//! the per-block channel ports, and the drain merges by
//! ⟨launch, block, seq⟩ — the workspace-wide determinism contract.

pub mod drive;
pub mod heur;
pub mod rewind;
pub mod timeline;
pub mod tool;

pub use drive::{bind_trace, CoachOptions, CoachRun, CoachSession};
pub use heur::{coach_suggestions, Suggestion};
pub use rewind::{CaptureTarget, Rewinder, StateDump, REPL_HELP};
pub use timeline::{CoachReport, EventKind, Timeline, TimelineEvent, TimelineOutcome};
pub use tool::{Coach, CoachConfig};
