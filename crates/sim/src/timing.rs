//! Cycle-accounting: the cost model that turns executions into the
//! *slowdown* metric of the paper's §4.2.
//!
//! The absolute constants are calibrated once (documented in
//! `EXPERIMENTS.md`) so that aggregate statistics land in the bands the
//! paper reports; only *ratios* of these costs matter for the reproduced
//! figures. The structure mirrors where real overheads come from:
//!
//! * an issue cost per warp-instruction, by functional unit;
//! * a call overhead per injected device function (GPU-FPX pays this on
//!   every instrumented FP instruction);
//! * a per-record device→host channel cost — BinFPE's downfall, since it
//!   ships every destination value while GPU-FPX ships only new GT keys;
//! * per-launch JIT costs, charged by the `fpx-nvbit` layer.

use fpx_sass::op::BaseOp;

/// The cycle budget past which a run counts as hung: `hang_slowdown_limit`
/// times its uninstrumented time `base_cycles`, with `base_cycles` floored
/// at 10,000 so tiny programs keep a usable budget. Every cut-off in the
/// workspace (live runs, trace replay, coaching, fault injection) derives
/// its watchdog from this one formula, so they all classify hangs alike.
pub fn hang_budget(base_cycles: u64, hang_slowdown_limit: f64) -> u64 {
    ((base_cycles.max(10_000) as f64) * hang_slowdown_limit) as u64
}

/// A monotonically increasing cycle counter for one program run.
#[derive(Debug, Default, Clone)]
pub struct Clock {
    cycles: u64,
}

impl Clock {
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

/// Per-instruction and per-event cycle costs.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub int_op: u64,
    pub fp32_op: u64,
    pub fp64_op: u64,
    pub mufu_op: u64,
    pub mem_op: u64,
    pub ctrl_op: u64,
    /// Overhead of calling one injected device function for a warp.
    pub injected_call: u64,
    /// Extra cost per runtime value the injected function reads
    /// (register/cbank accesses passed as variadic args, Listing 1).
    pub injected_arg: u64,
    /// Device-side cost of pushing one record into the D→H channel.
    pub channel_push: u64,
    /// One-time cost of setting up the 4 MB GT table at context creation —
    /// the fixed cost that makes GPU-FPX a net loss on the three
    /// tiny-FP-count outliers of Figure 5. With epoch-validated cells the
    /// table is `cudaMalloc`'d but never zeroed (stale entries are rejected
    /// by their epoch tag), so this charges allocation + epoch bump only.
    pub gt_alloc: u64,
}

impl CostModel {
    /// Issue cost of one warp-instruction.
    pub fn instr_cost(&self, op: BaseOp) -> u64 {
        use BaseOp::*;
        match op {
            FAdd | FAdd32I | FFma | FFma32I | FMul | FMul32I | FSel | FSet(_) | FSetP(_)
            | FMnMx | FChk | I2F | F2I | HAdd | HMul | HFma => self.fp32_op,
            DAdd | DFma | DMul | DSetP(_) | DMnMx => self.fp64_op,
            Mufu(_) => self.mufu_op,
            F2F { .. } => self.fp32_op,
            Ldg(_) | Stg(_) | Lds(_) | Sts(_) | Ldc(_) => self.mem_op,
            Bra | Ssy | Sync | Bar | Exit => self.ctrl_op,
            _ => self.int_op,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            int_op: 1,
            fp32_op: 1,
            // Consumer GPUs (RTX 2070S / 3060, the paper's two machines)
            // execute FP64 at a fraction of FP32 rate.
            fp64_op: 4,
            mufu_op: 4,
            mem_op: 8,
            ctrl_op: 1,
            injected_call: 4,
            injected_arg: 1,
            channel_push: 96,
            // Was 400_000 when the GT table was zeroed on every launch; the
            // epoch-tagged cells (see `fpx_core::gt`) eliminate the memset,
            // leaving the allocation itself plus the epoch bump.
            gt_alloc: 150_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_sass::op::MufuFunc;

    #[test]
    fn clock_accumulates() {
        let mut c = Clock::default();
        c.charge(10);
        c.charge(5);
        assert_eq!(c.cycles(), 15);
    }

    #[test]
    fn cost_ordering_reflects_units() {
        let m = CostModel::default();
        assert!(m.instr_cost(BaseOp::DAdd) > m.instr_cost(BaseOp::FAdd));
        assert!(m.instr_cost(BaseOp::Ldg(fpx_sass::op::MemWidth::W32)) > m.instr_cost(BaseOp::Mov));
        assert_eq!(m.instr_cost(BaseOp::Mufu(MufuFunc::Rcp)), m.mufu_op);
        // The channel is far more expensive than a check — the core of the
        // GPU-FPX-vs-BinFPE gap.
        assert!(m.channel_push > 4 * m.injected_call);
    }
}
