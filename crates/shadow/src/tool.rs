//! The `Shadow` NVBit tool: JIT-time operand capture, the per-block
//! shadow register file, and the `Phase::Observe` writeback hook.
//!
//! ## Shadow lifetime
//!
//! The shadow register file holds one 32-lane slot row per ⟨block, warp,
//! register⟩, laid out like the simulator's `WarpLanes` (one array per
//! field, lane-indexed) and found through the warp's [`RegMap`], so a
//! warp-instruction costs a pass over rows, not 32 scalar walks: each
//! register source resolves all 32 lanes in one straight-line pass over
//! its register row and slot row, the op is matched once and computed
//! for the whole row, one helper tests the row against the ulp budget
//! (the full classifier runs only for the reported lane), and a
//! full-mask result replaces the destination's slot row array by array.
//! Each lane's slot records the raw real bits it shadowed. On every read
//! the slot self-validates: if the register's current bits differ from
//! the recorded ones, some un-shadowed producer (a memory load, a type
//! convert, an integer op) overwrote the register, and the slot heals to
//! the widened real value with the divergence flag cleared. Memory ops
//! therefore *lose* shadows by design — the file shadows registers, not
//! memory — which keeps the state strictly per-block and the reports
//! deterministic.
//!
//! ## Determinism
//!
//! The state map is keyed by block and each hook only touches its own
//! block's entry, so any block schedule produces the same per-block
//! state evolution. Findings travel the per-block channel ports and are
//! merged by ⟨launch, block, seq⟩ like every other record; within a
//! warp the first event-bearing lane is reported (the analyzer's SIMT
//! policy), so a warp where only some lanes diverge yields exactly one
//! deterministic record.

use crate::classify::{
    classify_writeback, flush32, rpc_truncate, within_budget_row, DivergenceKind, ShadowConfig,
    ShadowMode, UlpGrid, F32_GRID, RPC_GRID,
};
use crate::regmap::RegMap;
use crate::report::{ShadowFinding, ShadowReport};
use fpx_nvbit::tool::{Inserter, LaunchCtx, NvbitTool, ToolCtx};
use fpx_obs::{Counter, Obs};
use fpx_sass::instr::Instruction;
use fpx_sass::kernel::KernelCode;
use fpx_sass::op::{BaseOp, MufuFunc};
use fpx_sass::operand::{CBankRef, Operand, PredOperand, Reg, RZ};
use fpx_sass::types::{pair_to_f64_bits, FpFormat};
use fpx_sim::exec::lanes_of;
use fpx_sim::fpu;
use fpx_sim::hooks::{DeviceFn, InjectionCtx, Phase, When};
use fpx_sim::warp::WarpLanes;
use gpu_fpx::record::LocationTable;
use gpu_fpx::FlowState;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shadowed operation shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowOp {
    Add,
    Mul,
    Fma,
    Mufu(MufuFunc),
    MnMx,
}

/// One JIT-captured source operand, resolved per lane at runtime.
#[derive(Debug, Clone)]
enum SrcSpec {
    Reg {
        num: Reg,
        neg: bool,
    },
    /// Value already in shadow precision (f32 immediates widened).
    Const(f64),
    CBank(CBankRef),
}

/// JIT-time capture of one shadowed instruction.
#[derive(Debug, Clone)]
struct ShadowSpec {
    op: ShadowOp,
    fmt: FpFormat,
    ftz: bool,
    dest: Reg,
    srcs: Vec<SrcSpec>,
    /// FMNMX's min/max selector predicate.
    mnmx_pred: Option<PredOperand>,
}

impl ShadowSpec {
    fn from_instr(mode: ShadowMode, instr: &Instruction) -> Option<ShadowSpec> {
        use BaseOp::*;
        let base = instr.opcode.base;
        let (op, fmt) = match (mode, base) {
            (ShadowMode::Full, FAdd | FAdd32I) => (ShadowOp::Add, FpFormat::Fp32),
            (ShadowMode::Full, FMul | FMul32I) => (ShadowOp::Mul, FpFormat::Fp32),
            (ShadowMode::Full, FFma | FFma32I) => (ShadowOp::Fma, FpFormat::Fp32),
            (ShadowMode::Full, Mufu(f)) if !f.is_64h() => (ShadowOp::Mufu(f), FpFormat::Fp32),
            (ShadowMode::Full, FMnMx) => (ShadowOp::MnMx, FpFormat::Fp32),
            (ShadowMode::Rpc, DAdd) => (ShadowOp::Add, FpFormat::Fp64),
            (ShadowMode::Rpc, DMul) => (ShadowOp::Mul, FpFormat::Fp64),
            (ShadowMode::Rpc, DFma) => (ShadowOp::Fma, FpFormat::Fp64),
            (ShadowMode::Rpc, DMnMx) => (ShadowOp::MnMx, FpFormat::Fp64),
            _ => return None,
        };
        let dest = instr.dest_reg()?;
        if dest == RZ {
            return None;
        }
        let wide = fmt == FpFormat::Fp64;
        let mut srcs = Vec::new();
        let mut mnmx_pred = None;
        for o in instr.src_operands() {
            match o {
                Operand::Reg { num, neg, .. } => {
                    if *num == RZ {
                        srcs.push(SrcSpec::Const(if *neg { -0.0 } else { 0.0 }));
                    } else {
                        srcs.push(SrcSpec::Reg {
                            num: *num,
                            neg: *neg,
                        });
                    }
                }
                Operand::ImmDouble(v) => {
                    srcs.push(SrcSpec::Const(if wide { *v } else { (*v as f32) as f64 }))
                }
                Operand::ImmInt(v) => srcs.push(SrcSpec::Const(if wide {
                    f64::from_bits(*v as u64)
                } else {
                    f32::from_bits(*v as u32) as f64
                })),
                Operand::CBank(c) => srcs.push(SrcSpec::CBank(*c)),
                Operand::Generic(s) => srcs.push(SrcSpec::Const(parse_generic(s, wide)?)),
                Operand::Pred(p) if op == ShadowOp::MnMx && mnmx_pred.is_none() => {
                    mnmx_pred = Some(*p);
                }
                _ => return None,
            }
        }
        let arity_ok = match op {
            ShadowOp::Add | ShadowOp::Mul | ShadowOp::MnMx => srcs.len() == 2,
            ShadowOp::Fma => srcs.len() == 3,
            ShadowOp::Mufu(_) => srcs.len() == 1,
        };
        if !arity_ok || (op == ShadowOp::MnMx && mnmx_pred.is_none()) {
            return None;
        }
        Some(ShadowSpec {
            op,
            fmt,
            ftz: instr.opcode.mods.ftz,
            dest,
            srcs,
            mnmx_pred,
        })
    }

    fn wide(&self) -> bool {
        self.fmt == FpFormat::Fp64
    }

    fn grid(&self) -> UlpGrid {
        if self.wide() {
            RPC_GRID
        } else {
            F32_GRID
        }
    }

    /// Runtime values read per call: register/cbank sources, the dest,
    /// and FMNMX's selector predicate (cycle accounting).
    fn runtime_args(&self) -> u32 {
        let srcs = self
            .srcs
            .iter()
            .filter(|s| !matches!(s, SrcSpec::Const(_)))
            .count() as u32;
        srcs + 1 + self.mnmx_pred.is_some() as u32
    }
}

/// Mirror of the simulator's GENERIC-operand parse: NaN/INF literals or
/// a plain float; anything else means the instruction is not shadowed.
fn parse_generic(s: &str, wide: bool) -> Option<f64> {
    let neg = s.starts_with('-');
    let v = if s.contains("NAN") {
        f64::NAN
    } else if s.contains("INF") {
        if neg {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        }
    } else {
        s.parse::<f64>().ok()?
    };
    Some(if wide { v } else { (v as f32) as f64 })
}

/// Lanes per warp: the width of a slot row and of an operand column.
const LANES: usize = fpx_sim::WARP_SIZE as usize;

/// Every lane of a warp.
const FULL_MASK: u32 = u32::MAX;

/// One ⟨warp, register⟩ row of the shadow register file: a slot per
/// lane, one array per field. One sanitizer shadows one register width
/// (single registers in full mode, pairs in RPC mode), so a slot needs
/// no width of its own.
#[derive(Debug, Default)]
struct SlotRow {
    /// The raw real bits each lane's shadow was written for; a mismatch
    /// on read means an un-shadowed producer overwrote the register and
    /// the slot heals. A never-written lane holds bits 0 and shadow +0.0,
    /// which is what healing bits 0 gives, so it needs no flag.
    real: [u64; LANES],
    shadow: [f64; LANES],
    /// Bit `lane` set: that lane's shadow had diverged.
    diverged: u32,
}

impl SlotRow {
    /// The row of a register no shadowed op has written.
    const EMPTY: SlotRow = SlotRow {
        real: [0; LANES],
        shadow: [0.0; LANES],
        diverged: 0,
    };

    /// Resolve register source `num` (negated when `neg`) on every lane
    /// into `col`, in one pass over its register row(s): a lane whose
    /// slot still shadows the register's current bits reads the slot's
    /// shadow, any other lane heals to the real value widened to shadow
    /// precision. Returns the lanes whose shadow had diverged.
    #[inline]
    fn resolve_reg(
        &self,
        lanes: &WarpLanes,
        num: Reg,
        neg: bool,
        wide: bool,
        col: &mut [f64; LANES],
    ) -> u32 {
        let sign = (neg as u64) << 63;
        let lo = lanes.reg_row(num);
        let mut raw = [0u64; LANES];
        if wide {
            let hi = lanes.reg_row(num + 1);
            for l in 0..LANES {
                raw[l] = pair_to_f64_bits(lo[l], hi[l]);
                let v = if self.real[l] == raw[l] {
                    self.shadow[l]
                } else {
                    rpc_truncate(f64::from_bits(raw[l]))
                };
                col[l] = f64::from_bits(v.to_bits() ^ sign);
            }
        } else {
            for l in 0..LANES {
                raw[l] = lo[l] as u64;
                let v = if self.real[l] == raw[l] {
                    self.shadow[l]
                } else {
                    f32::from_bits(lo[l]) as f64
                };
                col[l] = f64::from_bits(v.to_bits() ^ sign);
            }
        }
        // Only a lane that held its divergent shadow passes it on.
        lanes_of(self.diverged)
            .filter(|&l| self.real[l as usize] == raw[l as usize])
            .fold(0, |m, l| m | 1 << l)
    }

    /// Store the `mask` lanes of a writeback: a full mask replaces the
    /// row array by array, a partial one only its guarded lanes.
    #[inline]
    fn store(&mut self, mask: u32, real: &[u64; LANES], shadow: &[f64; LANES], diverged: u32) {
        if mask == FULL_MASK {
            self.real = *real;
            self.shadow = *shadow;
            self.diverged = diverged;
            return;
        }
        for l in lanes_of(mask) {
            let l = l as usize;
            self.real[l] = real[l];
            self.shadow[l] = shadow[l];
        }
        self.diverged = self.diverged & !mask | diverged & mask;
    }
}

/// The sources of one warp-instruction, one lane-indexed column per
/// source: `val[s][lane]` is source `s` on `lane`, and bit `lane` of
/// `diverged` is set when any of that lane's sources carried a divergent
/// shadow. Lanes outside the guarded mask hold values nothing reads.
#[derive(Debug, Default)]
struct Operands {
    val: [[f64; LANES]; 3],
    diverged: u32,
}

/// Per-block shadow state: the register file plus one reused operand
/// array. A warp-instruction's Before and After calls run back to back
/// (no other warp of the block runs between them), so the array carries
/// the pre-execution capture of a shared-dest site (`FADD R6, R1, R6`)
/// from its Before call to its After call; otherwise each After call
/// resolves its own sources into it.
#[derive(Debug, Default)]
struct BlockShadow {
    /// Indexed by warp: that warp's slot rows by register.
    rows: Vec<RegMap<SlotRow>>,
    ops: Operands,
    /// The warp whose Before capture `ops` holds, until its After call.
    pending: Option<u32>,
}

struct ShadowShared {
    cfg: ShadowConfig,
    /// Keyed by block: each hook only touches its own block's entry, so
    /// the state evolution is schedule-independent.
    state: Mutex<HashMap<u32, BlockShadow>>,
    comparisons: AtomicU64,
}

/// Wire format of one finding record (fits the 56-byte inline channel
/// record): state, kind, loc, block, warp, lane, wide, real bits,
/// shadow bits, err bits.
const REC_LEN: usize = 1 + 1 + 2 + 2 + 1 + 1 + 1 + 8 + 8 + 8;

fn state_code(s: FlowState) -> u8 {
    match s {
        FlowState::Appearance => 0,
        FlowState::Propagation => 1,
        FlowState::Disappearance => 2,
        // Shadow events never use the remaining analyzer states.
        FlowState::SharedRegister | FlowState::Comparison => 0xff,
    }
}

fn state_from_code(c: u8) -> Option<FlowState> {
    match c {
        0 => Some(FlowState::Appearance),
        1 => Some(FlowState::Propagation),
        2 => Some(FlowState::Disappearance),
        _ => None,
    }
}

/// The injected device function: one per shadowed instruction (and one
/// extra `before` capture when the destination aliases a source).
struct ShadowFn {
    shared: Arc<ShadowShared>,
    spec: Arc<ShadowSpec>,
    before: bool,
    loc: u16,
    args: u32,
}

/// The raw real bits of register `r` (or of the pair `r`, `r+1` when
/// `wide`) on every lane, with their values as f64.
#[inline]
fn real_row(ctx: &InjectionCtx<'_, '_>, r: Reg, wide: bool) -> ([u64; LANES], [f64; LANES]) {
    let mut bits = [0u64; LANES];
    let mut val = [0f64; LANES];
    let lo = ctx.lanes.reg_row(r);
    if wide {
        let hi = ctx.lanes.reg_row(r + 1);
        for l in 0..LANES {
            bits[l] = pair_to_f64_bits(lo[l], hi[l]);
            val[l] = f64::from_bits(bits[l]);
        }
    } else {
        for l in 0..LANES {
            bits[l] = lo[l] as u64;
            val[l] = f32::from_bits(lo[l]) as f64;
        }
    }
    (bits, val)
}

/// Resolve every source of `spec` on all 32 lanes into `ops`, reading
/// each source register's row and slot row once.
fn resolve(
    rows: Option<&RegMap<SlotRow>>,
    spec: &ShadowSpec,
    ctx: &InjectionCtx<'_, '_>,
    ops: &mut Operands,
) {
    let wide = spec.wide();
    ops.diverged = 0;
    for (col, src) in ops.val.iter_mut().zip(&spec.srcs) {
        match *src {
            SrcSpec::Reg { num, neg } => {
                let row = rows.and_then(|r| r.get(num)).unwrap_or(&SlotRow::EMPTY);
                ops.diverged |= row.resolve_reg(ctx.lanes, num, neg, wide, col);
            }
            SrcSpec::Const(v) => col.fill(v),
            SrcSpec::CBank(c) => col.fill(if wide {
                rpc_truncate(f64::from_bits(ctx.cbanks.read_u64(c.bank, c.offset)))
            } else {
                f32::from_bits(ctx.cbanks.read_u32(c.bank, c.offset)) as f64
            }),
        }
    }
}

/// Exact-precision shadow of a MUFU approximation. The SFU always
/// flushes subnormal inputs and outputs (independent of `.FTZ`), so the
/// shadow mirrors that; its remaining distance to the real value is the
/// SFU's rounding (≤ 4 ulps), safely inside the default budget.
fn mufu_shadow(f: MufuFunc, x: f64) -> f64 {
    let x = flush32(x);
    let v = match f {
        MufuFunc::Rcp => 1.0 / x,
        MufuFunc::Rsq => 1.0 / x.sqrt(),
        MufuFunc::Sin => x.sin(),
        MufuFunc::Cos => x.cos(),
        MufuFunc::Ex2 => x.exp2(),
        MufuFunc::Lg2 => x.log2(),
        MufuFunc::Sqrt => x.sqrt(),
        // 64h variants are filtered out at capture time.
        MufuFunc::Rcp64h | MufuFunc::Rsq64h => return f64::NAN,
    };
    flush32(v)
}

impl ShadowSpec {
    /// Compute the shadow result of every lane of the row into `out`
    /// (the op is matched once per call). Add, multiply and FMA run over
    /// all 32 lanes, with `.FTZ` inputs flushed in place in `ops`; MUFU
    /// and FMNMX run over the guarded lanes.
    fn shadow_row(&self, ctx: &InjectionCtx<'_, '_>, ops: &mut Operands, out: &mut [f64; LANES]) {
        let narrow_ftz = self.ftz && !self.wide();
        if narrow_ftz && matches!(self.op, ShadowOp::Add | ShadowOp::Mul | ShadowOp::Fma) {
            for v in ops.val.iter_mut().take(self.srcs.len()).flatten() {
                *v = flush32(*v);
            }
        }
        let [a, b, c] = &ops.val;
        match self.op {
            ShadowOp::Add => {
                for l in 0..LANES {
                    out[l] = a[l] + b[l];
                }
            }
            ShadowOp::Mul => {
                for l in 0..LANES {
                    out[l] = a[l] * b[l];
                }
            }
            ShadowOp::Fma => {
                for l in 0..LANES {
                    out[l] = a[l].mul_add(b[l], c[l]);
                }
            }
            ShadowOp::Mufu(f) => {
                for l in lanes_of(ctx.guarded_mask) {
                    let l = l as usize;
                    out[l] = mufu_shadow(f, a[l]);
                }
            }
            ShadowOp::MnMx => {
                // min if the selector predicate holds, else max; inputs
                // are not flushed (mirrors the interpreter's FMNMX).
                let p = self.mnmx_pred.as_ref().expect("MnMx has a pred");
                for lane in lanes_of(ctx.guarded_mask) {
                    let l = lane as usize;
                    out[l] = if ctx.lanes.pred(lane, p.reg) != p.neg {
                        fpu::min_2008(a[l], b[l])
                    } else {
                        fpu::max_2008(a[l], b[l])
                    };
                }
            }
        }
        if narrow_ftz {
            for v in out.iter_mut() {
                *v = flush32(*v);
            }
        }
        if self.wide() {
            for v in out.iter_mut() {
                *v = rpc_truncate(*v);
            }
        }
    }

    /// The add/sub addend pair of `lane` for cancellation shape
    /// detection (FFMA: the product and the addend), from the operand
    /// columns `shadow_row` left behind.
    fn addends(&self, ops: &Operands, lane: usize) -> Option<(f64, f64)> {
        let v = |s: usize| ops.val[s][lane];
        match self.op {
            ShadowOp::Add => Some((v(0), v(1))),
            ShadowOp::Fma => Some((v(0) * v(1), v(2))),
            ShadowOp::Mul | ShadowOp::Mufu(_) | ShadowOp::MnMx => None,
        }
    }
}

impl DeviceFn for ShadowFn {
    fn num_runtime_args(&self) -> u32 {
        self.args
    }

    fn is_shadow(&self) -> bool {
        true
    }

    fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
        let spec = &self.spec;
        let cfg = &self.shared.cfg;
        let mut st = self.shared.state.lock();
        let bs = st.entry(ctx.block).or_default();
        let warp = ctx.warp as usize;

        if self.before {
            // Pre-execution operand capture for shared-dest sites: the
            // source shadows must be read before the result overwrites
            // the aliased register.
            resolve(bs.rows.get(warp), spec, ctx, &mut bs.ops);
            bs.pending = Some(ctx.warp);
            return;
        }

        if bs.pending.take() != Some(ctx.warp) {
            resolve(bs.rows.get(warp), spec, ctx, &mut bs.ops);
        }
        let guarded = ctx.guarded_mask;
        let wide = spec.wide();
        let mut shadow = [0f64; LANES];
        spec.shadow_row(ctx, &mut bs.ops, &mut shadow);
        let (real_bits, real) = real_row(ctx, spec.dest, wide);

        // A lane diverges exactly when it is outside the within-budget
        // mask; the full classifier runs only for the reported lane, the
        // first event-bearing one.
        let within = within_budget_row(&real, &shadow, cfg.ulp_budget, spec.grid());
        let dest_diverged = guarded & !within;
        let src_diverged = guarded & bs.ops.diverged;
        let events = dest_diverged | src_diverged;
        let record = (events != 0).then(|| {
            let l = events.trailing_zeros() as usize;
            let dest = dest_diverged & (1 << l) != 0;
            let state = match (dest, src_diverged & (1 << l) != 0) {
                (true, false) => FlowState::Appearance,
                (true, true) => FlowState::Propagation,
                (false, _) => FlowState::Disappearance,
            };
            let (kind_code, err) = if dest {
                let (k, e) = classify_writeback(
                    spec.addends(&bs.ops, l),
                    real[l],
                    shadow[l],
                    cfg,
                    spec.grid(),
                )
                .expect("a lane outside the within-budget mask has a verdict");
                (k.code(), e)
            } else {
                (0u8, 0.0f64)
            };
            let mut rec = [0u8; REC_LEN];
            rec[0] = state_code(state);
            rec[1] = kind_code;
            rec[2..4].copy_from_slice(&self.loc.to_le_bytes());
            rec[4..6].copy_from_slice(&(ctx.block as u16).to_le_bytes());
            rec[6] = ctx.warp as u8;
            rec[7] = l as u8;
            rec[8] = wide as u8;
            rec[9..17].copy_from_slice(&real_bits[l].to_le_bytes());
            rec[17..25].copy_from_slice(&shadow[l].to_bits().to_le_bytes());
            rec[25..33].copy_from_slice(&err.to_le_bytes());
            rec
        });

        // Slot update: a clean non-finite shadow heals to the real value
        // (it can no longer judge anything downstream).
        for l in 0..LANES {
            if dest_diverged & (1 << l) == 0 && !shadow[l].is_finite() {
                shadow[l] = if wide { rpc_truncate(real[l]) } else { real[l] };
            }
        }
        if bs.rows.len() <= warp {
            bs.rows.resize_with(warp + 1, RegMap::default);
        }
        bs.rows[warp]
            .get_or_insert_with(spec.dest, SlotRow::default)
            .store(guarded, &real_bits, &shadow, dest_diverged);
        drop(st);

        if guarded != 0 {
            self.shared
                .comparisons
                .fetch_add(guarded.count_ones() as u64, Ordering::Relaxed);
        }
        if let Some(rec) = record {
            let stall = ctx.channel.push(&rec);
            ctx.clock.charge(stall);
        }
    }
}

/// The shadow-value precision sanitizer, as an NVBit tool.
pub struct Shadow {
    shared: Arc<ShadowShared>,
    locs: Arc<Mutex<LocationTable>>,
    report: ShadowReport,
}

impl Shadow {
    pub fn new(cfg: ShadowConfig) -> Self {
        Shadow {
            shared: Arc::new(ShadowShared {
                cfg,
                state: Mutex::new(HashMap::new()),
                comparisons: AtomicU64::new(0),
            }),
            locs: Arc::new(Mutex::new(LocationTable::new())),
            report: ShadowReport::default(),
        }
    }

    pub fn report(&self) -> &ShadowReport {
        &self.report
    }

    /// Finish the run: fold the comparison tally into the report.
    pub fn into_report(mut self) -> ShadowReport {
        self.report.comparisons = self.shared.comparisons.load(Ordering::Relaxed);
        self.report
    }

    /// Flush the sanitizer's counters into an observability registry.
    pub fn snapshot_into(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.add(
            Counter::ShadowComparisons,
            self.shared.comparisons.load(Ordering::Relaxed),
        );
        obs.add(
            Counter::ShadowFindings,
            self.report.findings.len() as u64 + self.report.dropped,
        );
        obs.add(
            Counter::ShadowCancellations,
            self.report.count_kind(DivergenceKind::Cancellation) as u64,
        );
        obs.add(
            Counter::ShadowLargeErrors,
            self.report.count_kind(DivergenceKind::LargeRelError) as u64,
        );
        obs.add(
            Counter::ShadowTotalLosses,
            self.report.count_kind(DivergenceKind::TotalLoss) as u64,
        );
    }
}

impl NvbitTool for Shadow {
    fn on_kernel_launch(&mut self, _ctx: &mut LaunchCtx, _kernel: &KernelCode) {
        // Registers are fresh per launch; stale shadows must not carry
        // over (blocks reuse ids across launches).
        self.shared.state.lock().clear();
    }

    fn instrument_instruction(
        &mut self,
        kernel: &KernelCode,
        pc: u32,
        instr: &Instruction,
        inserter: &mut Inserter<'_>,
    ) {
        let Some(spec) = ShadowSpec::from_instr(self.shared.cfg.mode, instr) else {
            return;
        };
        let loc = self
            .locs
            .lock()
            .intern(&kernel.name, pc, instr.sass(), instr.loc.clone());
        let spec = Arc::new(spec);
        let args = spec.runtime_args();
        if instr.shares_dest_with_src() {
            inserter.insert_call_phased(
                When::Before,
                Phase::Observe,
                Arc::new(ShadowFn {
                    shared: self.shared.clone(),
                    spec: spec.clone(),
                    before: true,
                    loc,
                    args,
                }),
            );
        }
        inserter.insert_call_phased(
            When::After,
            Phase::Observe,
            Arc::new(ShadowFn {
                shared: self.shared.clone(),
                spec,
                before: false,
                loc,
                args,
            }),
        );
    }

    fn on_channel_record(&mut self, record: &[u8]) -> u64 {
        if record.len() != REC_LEN {
            return 0;
        }
        let Some(state) = state_from_code(record[0]) else {
            return 0;
        };
        if self.report.findings.len() >= self.shared.cfg.max_findings {
            self.report.dropped += 1;
            return fpx_nvbit::overhead::HOST_REPORT_LINE;
        }
        let loc = u16::from_le_bytes([record[2], record[3]]);
        let (kernel, sass, where_str) = {
            let locs = self.locs.lock();
            match locs.resolve(loc) {
                Some(site) => (site.kernel.clone(), site.sass.clone(), site.where_str()),
                None => ("unknown".into(), String::new(), String::new()),
            }
        };
        self.report.findings.push(ShadowFinding {
            state,
            kind: DivergenceKind::from_code(record[1]),
            loc,
            kernel,
            sass,
            where_str,
            block: u16::from_le_bytes([record[4], record[5]]),
            warp: record[6],
            lane: record[7],
            real_bits: u64::from_le_bytes(record[9..17].try_into().unwrap()),
            shadow_bits: u64::from_le_bytes(record[17..25].try_into().unwrap()),
            err_ulps: f64::from_bits(u64::from_le_bytes(record[25..33].try_into().unwrap())),
            wide: record[8] != 0,
        });
        fpx_nvbit::overhead::HOST_REPORT_LINE
    }

    fn on_term(&mut self, _ctx: &mut ToolCtx<'_>) {
        self.report.comparisons = self.shared.comparisons.load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_nvbit::Nvbit;
    use fpx_sass::assemble_kernel;
    use fpx_sim::gpu::{Arch, Gpu, LaunchConfig, ParamValue};

    fn run_with(cfg: ShadowConfig, src: &str, params: Vec<ParamValue>) -> ShadowReport {
        run_kernel(cfg, assemble_kernel(src).unwrap(), params)
    }

    fn run_kernel(cfg: ShadowConfig, k: KernelCode, params: Vec<ParamValue>) -> ShadowReport {
        let k = Arc::new(k);
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), Shadow::new(cfg));
        nv.launch(&k, &LaunchConfig::new(1, 32, params)).unwrap();
        nv.terminate();
        nv.tool.report().clone()
    }

    fn run(src: &str) -> ShadowReport {
        run_with(ShadowConfig::default(), src, vec![])
    }

    #[test]
    fn clean_arithmetic_has_no_findings() {
        let rep = run(r#"
.kernel k
    FADD R1, RZ, 1.5 ;
    FMUL R2, R1, 2.0 ;
    FFMA R3, R1, R2, R2 ;
    EXIT ;
"#);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.comparisons, 3 * 32);
    }

    #[test]
    fn catastrophic_cancellation_appears_then_propagates() {
        // R1 = 1 + 2^-31 (rounds to 1.0 in f32, shadow keeps the term),
        // R2 = R1 - 1    (real 0.0, shadow 2^-31: cancellation),
        // R3 = R2 * 2    (clean op on a divergent source: propagation).
        let rep = run(r#"
.kernel k
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    FADD R2, R1, -1.0 ;
    FMUL R3, R2, 2.0 ;
    EXIT ;
"#);
        let states: Vec<FlowState> = rep.findings.iter().map(|f| f.state).collect();
        assert_eq!(
            states,
            vec![FlowState::Appearance, FlowState::Propagation],
            "{:?}",
            rep.findings
        );
        assert_eq!(rep.findings[0].kind, Some(DivergenceKind::Cancellation));
        // One record per warp-event, not per lane.
        assert_eq!(rep.findings[0].lane, 0);
    }

    #[test]
    fn total_loss_cross_checks_the_detector() {
        // Real overflows to INF; the f64 shadow holds the product.
        let rep = run(r#"
.kernel k
    MOV32I R1, 0x7f000000 ;
    FMUL R2, R1, R1 ;
    EXIT ;
"#);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].kind, Some(DivergenceKind::TotalLoss));
        assert_eq!(rep.findings[0].state, FlowState::Appearance);
        assert!(rep.findings[0].real().is_infinite());
        assert!(rep.findings[0].shadow().is_finite());
    }

    #[test]
    fn divergence_can_heal_as_disappearance() {
        // The cancellation residual is multiplied by 0: both real and
        // shadow agree on ±0 again, closing the chain.
        let rep = run(r#"
.kernel k
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    FADD R2, R1, -1.0 ;
    FMUL R3, R2, 0.0 ;
    EXIT ;
"#);
        let states: Vec<FlowState> = rep.findings.iter().map(|f| f.state).collect();
        assert_eq!(
            states,
            vec![FlowState::Appearance, FlowState::Disappearance],
            "{:?}",
            rep.findings
        );
        assert_eq!(rep.findings[1].kind, None);
    }

    #[test]
    fn shared_dest_uses_pre_execution_sources() {
        // FADD R2, R2, -1.0 with R2 divergent beforehand: the Before
        // capture must observe the divergent source even though the
        // writeback overwrites it.
        let rep = run(r#"
.kernel k
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R2, R1, R4 ;
    FADD R2, R2, -1.0 ;
    FADD R2, R2, 1.0 ;
    EXIT ;
"#);
        let states: Vec<FlowState> = rep.findings.iter().map(|f| f.state).collect();
        // Appearance at the cancellation, then the +1.0 re-absorbs the
        // residual (real 1.0 vs shadow 1+2^-31: within budget) —
        // a divergent source whose dest re-converged.
        assert_eq!(
            states,
            vec![FlowState::Appearance, FlowState::Disappearance],
            "{:?}",
            rep.findings
        );
    }

    #[test]
    fn predicated_shared_dest_captures_only_guarded_lanes() {
        // R2 diverges on every lane; `@!P0 FADD R2, R2, -1.0` then runs
        // on lanes ≥ 16 only. Its Before capture must line up with those
        // lanes (re-converging them: disappearance at lane 16) and leave
        // lanes < 16 divergent, so the FMUL propagates from lane 0.
        let rep = run(r#"
.kernel k
    S2R R0, SR_TID.X ;
    ISETP.LT.AND P0, R0, 0x10 ;
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    FADD R2, R1, -1.0 ;
    @!P0 FADD R2, R2, -1.0 ;
    FMUL R3, R2, 2.0 ;
    EXIT ;
"#);
        let got: Vec<(FlowState, u8)> = rep.findings.iter().map(|f| (f.state, f.lane)).collect();
        assert_eq!(
            got,
            vec![
                (FlowState::Appearance, 0),
                (FlowState::Disappearance, 16),
                (FlowState::Propagation, 0),
            ],
            "{:?}",
            rep.findings
        );
        assert_eq!(rep.findings[0].kind, Some(DivergenceKind::Cancellation));
        assert_eq!(rep.findings[1].kind, None);
        // Three full-warp sites plus the 16 guarded lanes.
        assert_eq!(rep.comparisons, 3 * 32 + 16);
    }

    #[test]
    fn rpc_shared_pair_dest_reads_pre_execution_sources() {
        // R4:R4+1 is both source and destination of the DADD. Lanes ≥ 16
        // hold -1.0, and R6 is 1 + 2^-40 whose truncated shadow is 1.0:
        // only the Before capture sees -1.0 + 1.0 = 0 in shadow against
        // a real 2^-40, a cancellation, which the DMUL then propagates.
        let cfg = ShadowConfig {
            mode: ShadowMode::Rpc,
            ..ShadowConfig::default()
        };
        let rep = run_with(
            cfg,
            r#"
.kernel k
    S2R R0, SR_TID.X ;
    ISETP.LT.AND P0, R0, 0x10 ;
    MOV32I R6, 0x0 ;
    MOV32I R7, 0x3d700000 ;
    DADD R6, R6, 1.0 ;
    MOV32I R4, 0x0 ;
    MOV32I R5, 0x3ff00000 ;
    @!P0 MOV32I R5, 0xbff00000 ;
    DADD R4, R4, R6 ;
    DMUL R8, R4, 2.0 ;
    EXIT ;
"#,
            vec![],
        );
        let got: Vec<(FlowState, u8)> = rep.findings.iter().map(|f| (f.state, f.lane)).collect();
        assert_eq!(
            got,
            vec![(FlowState::Appearance, 16), (FlowState::Propagation, 16)],
            "{:?}",
            rep.findings
        );
        assert_eq!(rep.findings[0].kind, Some(DivergenceKind::Cancellation));
        assert!(rep.findings[0].wide);
        assert_eq!(rep.findings[0].real(), 2.0f64.powi(-40));
        assert_eq!(rep.findings[0].shadow(), 0.0);
        assert_eq!(rep.comparisons, 3 * 32);
    }

    #[test]
    fn simt_divergent_warp_reports_first_diverging_lane() {
        // Lanes ≥ 16 take the cancellation path, lanes < 16 stay clean:
        // exactly one record per warp-event, first diverging lane wins.
        let rep = run(r#"
.kernel k
    S2R R0, SR_TID.X ;
    ISETP.LT.AND P0, R0, 0x10 ;
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    @!P0 FADD R2, R1, -1.0 ;
    EXIT ;
"#);
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert_eq!(rep.findings[0].state, FlowState::Appearance);
        assert_eq!(rep.findings[0].lane, 16, "first diverging lane is 16");
        // 32 comparisons at the unguarded FADD, 16 at the guarded one.
        assert_eq!(rep.comparisons, 32 + 16);
    }

    #[test]
    fn unshadowed_overwrite_loses_the_shadow() {
        // A diverged register overwritten by an un-shadowed producer
        // (MOV32I here; loads behave identically) heals: the shadow file
        // shadows registers, not memory (documented loss policy). The
        // FMUL consumer therefore sees a clean source — one finding.
        let rep = run(r#"
.kernel k
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    FADD R2, R1, -1.0 ;
    MOV32I R2, 0x40000000 ;
    FMUL R3, R2, 2.0 ;
    EXIT ;
"#);
        let states: Vec<FlowState> = rep.findings.iter().map(|f| f.state).collect();
        assert_eq!(states, vec![FlowState::Appearance], "{:?}", rep.findings);
    }

    #[test]
    fn rpc_mode_flags_f64_cancellation() {
        let cfg = ShadowConfig {
            mode: ShadowMode::Rpc,
            ..ShadowConfig::default()
        };
        // R4:R5 = 2^-40, R6:R7 = 1 + 2^-40 (the truncated shadow sees
        // exactly 1.0), R8:R9 = R6 - 1 (real 2^-40, shadow 0).
        let rep = run_with(
            cfg,
            r#"
.kernel k
    MOV32I R4, 0x0 ;
    MOV32I R5, 0x3d700000 ;
    DADD R6, R4, 1.0 ;
    DADD R8, R6, -1.0 ;
    EXIT ;
"#,
            vec![],
        );
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert_eq!(rep.findings[0].kind, Some(DivergenceKind::Cancellation));
        assert!(rep.findings[0].wide);
        assert_eq!(rep.findings[0].real(), 2.0f64.powi(-40));
        assert_eq!(rep.findings[0].shadow(), 0.0);
    }

    #[test]
    fn report_caps_at_max_findings() {
        let cfg = ShadowConfig {
            max_findings: 1,
            ..ShadowConfig::default()
        };
        let rep = run_with(
            cfg,
            r#"
.kernel k
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    FADD R2, R1, -1.0 ;
    FMUL R3, R2, 2.0 ;
    FMUL R5, R2, 4.0 ;
    EXIT ;
"#,
            vec![],
        );
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.dropped, 2);
    }

    /// One finding as the table pins it: state, kind, lane, real bits,
    /// shadow bits.
    type Pinned = (FlowState, Option<DivergenceKind>, u8, u64, u64);

    /// One row of the op-shape table: a one-warp kernel, its mode and
    /// parameters, and the comparison count and findings it must give.
    /// `generic_inf` lists instructions whose last operand is rewritten
    /// to the GENERIC literal `+INF` (the assembler reads `+INF` as an
    /// IMM_DOUBLE).
    struct Case {
        name: &'static str,
        mode: ShadowMode,
        src: &'static str,
        params: Vec<ParamValue>,
        generic_inf: &'static [usize],
        comparisons: u64,
        findings: &'static [Pinned],
    }

    fn pinned(rep: &ShadowReport) -> Vec<Pinned> {
        rep.findings
            .iter()
            .map(|f| (f.state, f.kind, f.lane, f.real_bits, f.shadow_bits))
            .collect()
    }

    #[test]
    fn every_shadowed_op_shape_and_source_kind_matches_its_pinned_findings() {
        use DivergenceKind::*;
        use FlowState::*;
        let cases = [
            Case {
                // MUFU results feed FFMA residuals: the SFU's rounding
                // against the exact shadow. RCP of a subnormal: the SFU
                // flushes it to +0, so real and shadow are both +INF
                // (no finding; the slot heals).
                name: "mufu",
                mode: ShadowMode::Full,
                src: r#"
.kernel k
    S2R R0, SR_LANEID ;
    I2F R7, R0 ;
    FADD R7, R7, 2.0 ;
    MUFU.SQRT R1, R7 ;
    FFMA R2, R1, R1, -R7 ;
    MUFU.RCP R3, R7 ;
    FFMA R4, R3, R7, -1.0 ;
    MOV32I R8, 0x10 ;
    MUFU.RCP R9, R8 ;
    FMUL R10, R9, 2.0 ;
    EXIT ;
"#,
                params: vec![],
                generic_inf: &[],
                comparisons: 224,
                findings: &[
                    (
                        Appearance,
                        Some(Cancellation),
                        0,
                        0xb590f3e0,
                        0x3cb3b3efbf5e2229,
                    ),
                    (
                        Appearance,
                        Some(Cancellation),
                        1,
                        0xb4800000,
                        0xbc90000000000000,
                    ),
                ],
            },
            Case {
                // R2 diverges on every lane; FMNMX picks min on lanes
                // where its selector holds (P0: lanes 16..31) and max
                // elsewhere, under both polarities.
                name: "fmnmx",
                mode: ShadowMode::Full,
                src: r#"
.kernel k
    S2R R0, SR_LANEID ;
    ISETP.GE.AND P0, R0, 0x10 ;
    I2F R7, R0 ;
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    FADD R2, R1, -1.0 ;
    FMUL R5, R7, 1e-12 ;
    FMNMX R3, R2, R5, P0 ;
    FMNMX R6, R2, R5, !P0 ;
    @P0 FMUL R9, R3, 2.0 ;
    @P0 FMUL R10, R6, 2.0 ;
    EXIT ;
"#,
                params: vec![],
                generic_inf: &[],
                comparisons: 192,
                findings: &[
                    (Appearance, Some(Cancellation), 0, 0x0, 0x3e00000000000000),
                    (Propagation, Some(LargeRelError), 0, 0x0, 0x3e00000000000000),
                    (Disappearance, None, 0, 0x0, 0x0),
                    (
                        Propagation,
                        Some(LargeRelError),
                        16,
                        0x0,
                        0x3dc1979980000000,
                    ),
                    (
                        Propagation,
                        Some(LargeRelError),
                        16,
                        0x2e0cbccc,
                        0x3e10000000000000,
                    ),
                ],
            },
            Case {
                // FFMA cancels through its product/addend pair, with a
                // plain and a negated multiplicand; the last FFMA reads
                // the divergent R3 as its addend.
                name: "ffma",
                mode: ShadowMode::Full,
                src: r#"
.kernel k
    S2R R0, SR_LANEID ;
    I2F R7, R0 ;
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    MOV32I R5, 0x3f800000 ;
    FFMA R3, R1, R5, -1.0 ;
    FFMA R6, R1, -R5, R5 ;
    FFMA R8, R7, R7, R3 ;
    EXIT ;
"#,
                params: vec![],
                generic_inf: &[],
                comparisons: 128,
                findings: &[
                    (Appearance, Some(Cancellation), 0, 0x0, 0x3e00000000000000),
                    (Appearance, Some(Cancellation), 0, 0x0, 0xbe00000000000000),
                    (Propagation, Some(LargeRelError), 0, 0x0, 0x3e00000000000000),
                ],
            },
            Case {
                // `.FTZ` flushes subnormal inputs and results on both
                // sides, so nothing fires; the plain twins keep them.
                name: "ftz",
                mode: ShadowMode::Full,
                src: r#"
.kernel k
    MOV32I R1, 0x400000 ;
    FADD.FTZ R2, R1, R1 ;
    FADD R3, R1, R1 ;
    MOV32I R4, 0xd800000 ;
    MOV32I R5, 0x30800000 ;
    FMUL.FTZ R6, R4, R5 ;
    FMUL R7, R4, R5 ;
    FFMA.FTZ R8, R1, R5, R4 ;
    EXIT ;
"#,
                params: vec![],
                generic_inf: &[],
                comparisons: 160,
                findings: &[],
            },
            Case {
                // RPC: DFMA cancels 1 + 2^-40 (truncated shadow 1.0)
                // against -1; DMNMX takes min on lanes 16..31 (still
                // divergent) and max elsewhere (re-converged).
                name: "rpc",
                mode: ShadowMode::Rpc,
                src: r#"
.kernel k
    S2R R0, SR_LANEID ;
    ISETP.GE.AND P0, R0, 0x10 ;
    MOV32I R4, 0x0 ;
    MOV32I R5, 0x3d700000 ;
    DADD R6, R4, 1.0 ;
    MOV32I R8, 0x0 ;
    MOV32I R9, 0x3ff00000 ;
    DFMA R10, R6, R8, -1.0 ;
    MOV32I R12, 0x0 ;
    MOV32I R13, 0x3e100000 ;
    DMNMX R14, R10, R12, P0 ;
    @P0 DMUL R16, R14, 2.0 ;
    DMUL R18, R14, 2.0 ;
    EXIT ;
"#,
                params: vec![],
                generic_inf: &[],
                comparisons: 144,
                findings: &[
                    (Appearance, Some(Cancellation), 0, 0x3d70000000000000, 0x0),
                    (
                        Disappearance,
                        None,
                        0,
                        0x3e10000000000000,
                        0x3e10000000000000,
                    ),
                    (
                        Propagation,
                        Some(LargeRelError),
                        16,
                        0x3d80000000000000,
                        0x0,
                    ),
                    (
                        Propagation,
                        Some(LargeRelError),
                        16,
                        0x3d80000000000000,
                        0x0,
                    ),
                ],
            },
            Case {
                // Every source kind: RZ and a negated register, f32
                // immediates, IMM_DOUBLE and GENERIC +INF, GENERIC
                // -QNAN, a c[bank] parameter, and a negated RZ.
                name: "sources",
                mode: ShadowMode::Full,
                src: r#"
.kernel k
    S2R R0, SR_LANEID ;
    I2F R7, R0 ;
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    FADD R2, RZ, -R1 ;
    FADD R3, R2, 1.0 ;
    FMUL R5, R3, +INF ;
    FADD R6, R3, +INF ;
    FMNMX R8, R3, -QNAN, PT ;
    FMUL R9, R1, c[0x0][0x160] ;
    FADD R10, R9, -3.0 ;
    FADD R11, R7, -RZ ;
    FMUL R12, R11, -R7 ;
    EXIT ;
"#,
                params: vec![ParamValue::F32(3.0)],
                generic_inf: &[8],
                comparisons: 320,
                findings: &[
                    (Appearance, Some(Cancellation), 0, 0x0, 0xbe00000000000000),
                    (Disappearance, None, 0, 0xffc00000, 0xfff0000000000000),
                    (Disappearance, None, 0, 0x7f800000, 0x7ff0000000000000),
                    (Propagation, Some(LargeRelError), 0, 0x0, 0xbe00000000000000),
                    (Appearance, Some(Cancellation), 0, 0x0, 0x3e18000000000000),
                ],
            },
            Case {
                // R3 diverges everywhere, is overwritten un-shadowed,
                // then rewritten divergently on lanes 16..31 only. The
                // full-mask FMUL must see those lanes' new shadow and
                // heal lanes 0..15.
                name: "partial-then-full",
                mode: ShadowMode::Full,
                src: r#"
.kernel k
    S2R R0, SR_LANEID ;
    ISETP.GE.AND P0, R0, 0x10 ;
    MOV32I R1, 0x3f800000 ;
    MOV32I R4, 0x30000000 ;
    FADD R1, R1, R4 ;
    MOV32I R5, 0x40000000 ;
    MOV32I R6, 0x31000000 ;
    FADD R5, R5, R6 ;
    FADD R3, R5, -2.0 ;
    MOV32I R3, 0x40400000 ;
    @P0 FADD R3, R1, -1.0 ;
    FMUL R8, R3, 2.0 ;
    EXIT ;
"#,
                params: vec![],
                generic_inf: &[],
                comparisons: 144,
                findings: &[
                    (Appearance, Some(Cancellation), 0, 0x0, 0x3e20000000000000),
                    (Appearance, Some(Cancellation), 16, 0x0, 0x3e00000000000000),
                    (
                        Propagation,
                        Some(LargeRelError),
                        16,
                        0x0,
                        0x3e10000000000000,
                    ),
                ],
            },
        ];
        for c in cases {
            let mut k = assemble_kernel(c.src).unwrap();
            for &i in c.generic_inf {
                *k.instrs[i].operands.last_mut().unwrap() = Operand::Generic("+INF".into());
            }
            let cfg = ShadowConfig {
                mode: c.mode,
                ..ShadowConfig::default()
            };
            let rep = run_kernel(cfg, k, c.params);
            assert_eq!(rep.comparisons, c.comparisons, "{}", c.name);
            assert_eq!(pinned(&rep), c.findings, "{}", c.name);
        }
    }
}
