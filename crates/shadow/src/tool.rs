//! The `Shadow` NVBit tool: JIT-time operand capture, the per-block
//! shadow register file, and the `Phase::Observe` writeback hook.
//!
//! ## Shadow lifetime
//!
//! The shadow register file holds one 32-lane slot row per ⟨block, warp,
//! register⟩, laid out like the simulator's `WarpLanes` (one array per
//! field, lane-indexed), so a warp-instruction probes the file once per
//! source and once for its destination, not once per lane. Each lane's
//! slot records the width and raw real bits it shadowed. On every read
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
    classify_writeback, flush32, rpc_truncate, DivergenceKind, ShadowConfig, ShadowMode, UlpGrid,
    F32_GRID, RPC_GRID,
};
use crate::report::{ShadowFinding, ShadowReport};
use fpx_nvbit::tool::{Inserter, LaunchCtx, NvbitTool, ToolCtx};
use fpx_obs::{Counter, Obs};
use fpx_sass::instr::Instruction;
use fpx_sass::kernel::KernelCode;
use fpx_sass::op::{BaseOp, MufuFunc};
use fpx_sass::operand::{CBankRef, Operand, PredOperand, Reg, RZ};
use fpx_sass::types::FpFormat;
use fpx_sim::exec::lanes_of;
use fpx_sim::fpu;
use fpx_sim::hooks::{DeviceFn, InjectionCtx, Phase, When};
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

/// One ⟨warp, register⟩ row of the shadow register file: a slot per
/// lane, one array per field.
#[derive(Debug, Default)]
struct SlotRow {
    /// Register width each lane's slot shadows (4 = one reg, 8 = a
    /// pair, 0 = never written).
    width: [u8; LANES],
    /// The raw real bits at the time the shadow was written; a mismatch
    /// on read means an un-shadowed producer overwrote the register and
    /// the slot heals.
    real: [u64; LANES],
    shadow: [f64; LANES],
    /// Bit `lane` set: that lane's shadow had diverged.
    diverged: u32,
}

impl SlotRow {
    /// The lane's shadow and divergence flag, if its slot still shadows
    /// `raw` at `width`.
    #[inline]
    fn read(&self, lane: u32, width: u8, raw: u64) -> Option<(f64, bool)> {
        let l = lane as usize;
        (self.width[l] == width && self.real[l] == raw)
            .then(|| (self.shadow[l], self.diverged & (1 << lane) != 0))
    }

    #[inline]
    fn write(&mut self, lane: u32, width: u8, raw: u64, shadow: f64, diverged: bool) {
        let l = lane as usize;
        self.width[l] = width;
        self.real[l] = raw;
        self.shadow[l] = shadow;
        self.diverged = self.diverged & !(1 << lane) | (diverged as u32) << lane;
    }
}

/// The sources of one warp-instruction, resolved for its guarded lanes
/// and stored positionally: `val[s][i]` is source `s` of the `i`-th
/// guarded lane, and bit `i` of `diverged` is set when any of that
/// lane's sources carried a divergent shadow.
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
    rows: HashMap<(u32, Reg), SlotRow>,
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

/// Resolve every source of `spec` for the guarded lanes into `ops`,
/// reading each source register's slot row once.
fn resolve(
    rows: &HashMap<(u32, Reg), SlotRow>,
    spec: &ShadowSpec,
    ctx: &InjectionCtx<'_, '_>,
    ops: &mut Operands,
) {
    let wide = spec.wide();
    ops.diverged = 0;
    for (col, src) in ops.val.iter_mut().zip(&spec.srcs) {
        match *src {
            SrcSpec::Reg { num, neg } => {
                let row = rows.get(&(ctx.warp, num));
                for (i, lane) in lanes_of(ctx.guarded_mask).enumerate() {
                    let (sh, div) = if wide {
                        let raw = ctx.lanes.reg_pair(lane, num);
                        row.and_then(|r| r.read(lane, 8, raw))
                            .unwrap_or((rpc_truncate(f64::from_bits(raw)), false))
                    } else {
                        let raw = ctx.lanes.reg(lane, num);
                        row.and_then(|r| r.read(lane, 4, raw as u64))
                            .unwrap_or((f32::from_bits(raw) as f64, false))
                    };
                    col[i] = if neg { -sh } else { sh };
                    ops.diverged |= (div as u32) << i;
                }
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

impl ShadowFn {
    /// Compute the shadow result for `lane`, the `i`-th guarded lane;
    /// returns the result and the add/sub addend pair for cancellation
    /// shape detection.
    fn shadow_result(
        &self,
        ctx: &InjectionCtx<'_, '_>,
        lane: u32,
        ops: &Operands,
        i: usize,
    ) -> (f64, Option<(f64, f64)>) {
        let spec = &self.spec;
        let narrow_ftz = spec.ftz && !spec.wide();
        let v = |s: usize| ops.val[s][i];
        let (s, addends) = match spec.op {
            ShadowOp::Add => {
                let (a, b) = if narrow_ftz {
                    (flush32(v(0)), flush32(v(1)))
                } else {
                    (v(0), v(1))
                };
                (a + b, Some((a, b)))
            }
            ShadowOp::Mul => {
                let (a, b) = if narrow_ftz {
                    (flush32(v(0)), flush32(v(1)))
                } else {
                    (v(0), v(1))
                };
                (a * b, None)
            }
            ShadowOp::Fma => {
                let (a, b, c) = if narrow_ftz {
                    (flush32(v(0)), flush32(v(1)), flush32(v(2)))
                } else {
                    (v(0), v(1), v(2))
                };
                (a.mul_add(b, c), Some((a * b, c)))
            }
            ShadowOp::Mufu(f) => (mufu_shadow(f, v(0)), None),
            ShadowOp::MnMx => {
                // min if the selector predicate holds, else max; inputs
                // are not flushed (mirrors the interpreter's FMNMX).
                let p = self.spec.mnmx_pred.as_ref().expect("MnMx has a pred");
                let is_min = ctx.lanes.pred(lane, p.reg) != p.neg;
                let s = if is_min {
                    fpu::min_2008(v(0), v(1))
                } else {
                    fpu::max_2008(v(0), v(1))
                };
                (s, None)
            }
        };
        let s = if narrow_ftz { flush32(s) } else { s };
        let s = if spec.wide() { rpc_truncate(s) } else { s };
        (s, addends)
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
        let mut st = self.shared.state.lock();
        let bs = st.entry(ctx.block).or_default();

        if self.before {
            // Pre-execution operand capture for shared-dest sites: the
            // source shadows must be read before the result overwrites
            // the aliased register.
            resolve(&bs.rows, spec, ctx, &mut bs.ops);
            bs.pending = Some(ctx.warp);
            return;
        }

        if bs.pending.take() != Some(ctx.warp) {
            resolve(&bs.rows, spec, ctx, &mut bs.ops);
        }
        let ops = &bs.ops;
        let width = if spec.wide() { 8 } else { 4 };
        let row = bs.rows.entry((ctx.warp, spec.dest)).or_default();
        let mut comparisons = 0u64;
        let mut record: Option<[u8; REC_LEN]> = None;
        for (i, lane) in lanes_of(ctx.guarded_mask).enumerate() {
            let (shadow, addends) = self.shadow_result(ctx, lane, ops, i);
            let src_diverged = ops.diverged & (1 << i) != 0;

            let (real_bits, real) = if spec.wide() {
                let b = ctx.lanes.reg_pair(lane, spec.dest);
                (b, f64::from_bits(b))
            } else {
                let b = ctx.lanes.reg(lane, spec.dest);
                (b as u64, f32::from_bits(b) as f64)
            };
            comparisons += 1;

            let verdict = classify_writeback(addends, real, shadow, &self.shared.cfg, spec.grid());
            let dest_diverged = verdict.is_some();

            // Slot update: a clean non-finite shadow heals to the real
            // value (it can no longer judge anything downstream).
            let new_shadow = if dest_diverged || shadow.is_finite() {
                shadow
            } else if spec.wide() {
                rpc_truncate(real)
            } else {
                real
            };
            row.write(lane, width, real_bits, new_shadow, dest_diverged);

            let state = match (dest_diverged, src_diverged) {
                (true, false) => FlowState::Appearance,
                (true, true) => FlowState::Propagation,
                (false, true) => FlowState::Disappearance,
                (false, false) => continue,
            };
            if record.is_none() {
                let (kind_code, err) = match verdict {
                    Some((k, e)) => (k.code(), e),
                    None => (0u8, 0.0f64),
                };
                let mut rec = [0u8; REC_LEN];
                rec[0] = state_code(state);
                rec[1] = kind_code;
                rec[2..4].copy_from_slice(&self.loc.to_le_bytes());
                rec[4..6].copy_from_slice(&(ctx.block as u16).to_le_bytes());
                rec[6] = ctx.warp as u8;
                rec[7] = lane as u8;
                rec[8] = spec.wide() as u8;
                rec[9..17].copy_from_slice(&real_bits.to_le_bytes());
                rec[17..25].copy_from_slice(&shadow.to_bits().to_le_bytes());
                rec[25..33].copy_from_slice(&err.to_le_bytes());
                record = Some(rec);
            }
        }
        drop(st);
        if comparisons > 0 {
            self.shared
                .comparisons
                .fetch_add(comparisons, Ordering::Relaxed);
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
        let k = Arc::new(assemble_kernel(src).unwrap());
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
}
