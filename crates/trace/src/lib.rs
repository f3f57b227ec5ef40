//! `fpx-trace` — execution-trace record/replay for the GPU-FPX
//! reproduction.
//!
//! Every multi-configuration experiment in the paper (the Figure 6
//! `freq-redn-factor` sweep, the §1 ablation, GT on/off) re-simulates the
//! same program once per tool configuration, even though the underlying
//! SASS execution never changes — only the tool's view of it does. This
//! crate splits the two:
//!
//! * [`record::record`] runs a program **once** and captures a compact,
//!   versioned binary stream of everything any tool could observe:
//!   instrumented-instruction visits with raw register bits, launch
//!   markers, per-block cycle accounting ([`format`]);
//! * [`replay::TraceReplayer`] feeds that stream back through any
//!   [`fpx_nvbit::tool::NvbitTool`] — detector, analyzer, BinFPE, any
//!   configuration — reproducing a serial live run bit-for-bit (same
//!   deduplicated record sets, same flow states, same cycle totals)
//!   without re-simulating;
//! * [`export::chrome_trace`] renders the recording as Chrome
//!   trace-format JSON for Perfetto / `about:tracing`.

pub mod cache;
pub mod export;
pub mod format;
pub mod record;
pub mod replay;

pub use cache::{CacheError, CacheKey, ResultCache};
pub use export::{chrome_trace, prof_chrome_trace};
pub use format::{Trace, TraceError, Visit, Visits};
pub use record::{record, RecordError, TraceRecorder};
pub use replay::{Replayed, TraceReplayer};

/// Re-exported for `perfbench`, which calls it by this path; workspace
/// code uses `fpx_suite::runner::hang_budget`.
pub use fpx_sim::timing::hang_budget;

/// Aggregate counters printed by the CLI's `trace` subcommands. `None`
/// fields are omitted from the rendering (e.g. GT statistics when the
/// replayed tool runs without a GT, or replay throughput after a pure
/// record).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Visit events in the trace.
    pub events: u64,
    /// Encoded trace size.
    pub bytes: u64,
    pub kernels: usize,
    pub launches: usize,
    /// Channel pushes the replayed tool performed.
    pub channel_pushes: Option<u64>,
    pub gt_hits: Option<u64>,
    pub gt_misses: Option<u64>,
    /// Visits replayed per wall-clock second.
    pub replay_events_per_sec: Option<f64>,
    /// Modeled cycles of the replayed configuration.
    pub replay_cycles: Option<u64>,
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "  events recorded     {}", self.events)?;
        writeln!(f, "  bytes               {}", self.bytes)?;
        writeln!(f, "  kernels             {}", self.kernels)?;
        writeln!(f, "  launches            {}", self.launches)?;
        if let Some(p) = self.channel_pushes {
            writeln!(f, "  channel pushes      {p}")?;
        }
        if let (Some(h), Some(m)) = (self.gt_hits, self.gt_misses) {
            writeln!(f, "  GT hits / misses    {h} / {m}")?;
        }
        if let Some(c) = self.replay_cycles {
            writeln!(f, "  replay cycles       {c}")?;
        }
        if let Some(r) = self.replay_events_per_sec {
            writeln!(f, "  replay throughput   {r:.0} events/s")?;
        }
        Ok(())
    }
}

impl Metrics {
    /// Counters shared by every trace operation.
    pub fn for_trace(trace: &Trace) -> Metrics {
        Metrics {
            events: trace.total_visits(),
            bytes: 0,
            kernels: trace.kernels.len(),
            launches: trace.launches.len(),
            ..Metrics::default()
        }
    }
}
