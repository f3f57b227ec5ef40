//! The GPU-FPX **analyzer** (§3.2): exception *flow* tracking.
//!
//! For every floating-point instruction the analyzer captures, at JIT
//! time, the information of the paper's Listing 1 — the opcode id, the
//! register-number list, the cbank list, and `compile_e_type` for
//! IMM_DOUBLE/GENERIC operands (Listing 2) — and injects code that reads
//! the runtime values. Two extra behaviours distinguish it from the
//! detector:
//!
//! * **shared registers** (§3.2.1): when the destination register also
//!   appears among the sources (`FADD R6, R1, R6`), a *pre-execution*
//!   check is injected too, so the source value is observed before the
//!   result overwrites it;
//! * **control-flow opcodes**: FSEL/FSET/FSETP/FMNMX/DSETP executions are
//!   tracked so comparisons that select away (or swallow) a NaN are
//!   visible — the class of exception flow BinFPE cannot see at all.
//!
//! Each exceptional execution becomes a [`FlowEvent`] classified into the
//! states of Table 2, and renders as the `#GPU-FPX-ANA` report lines of
//! the paper's Listings 3–7.

use crate::record::LocationTable;
use fpx_nvbit::tool::{Inserter, LaunchCtx, NvbitTool, ToolCtx};
use fpx_sass::instr::Instruction;
use fpx_sass::kernel::KernelCode;
use fpx_sass::operand::{Operand, RZ};
use fpx_sass::types::{
    classify_f16, classify_f32, classify_f64, pair_to_f64_bits, row_exceptional_f16,
    row_exceptional_f32, row_exceptional_f64, FpClass, FpFormat,
};
use fpx_sim::hooks::{DeviceFn, InjectionCtx, When};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Instruction flow states (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FlowState {
    /// Destination and source share a register; checked before and after.
    SharedRegister,
    /// A control-flow opcode (comparison/select/min-max) touched an
    /// exceptional value.
    Comparison,
    /// Destination became exceptional with no exceptional source.
    Appearance,
    /// Destination became exceptional and a source was exceptional.
    Propagation,
    /// Sources were exceptional but the destination is not.
    Disappearance,
}

impl FlowState {
    /// Report label, matching the paper's listings.
    pub fn label(self) -> &'static str {
        match self {
            FlowState::SharedRegister => "SHARED REGISTER",
            FlowState::Comparison => "COMPARISON",
            FlowState::Appearance => "APPEARANCE",
            FlowState::Propagation => "PROPAGATION",
            FlowState::Disappearance => "DISAPPEARANCE",
        }
    }
}

/// Why an exceptional value stopped flowing — the explicit kill taxonomy
/// refining Table 2's undifferentiated Disappearance state.
///
/// A kill is attributed to exactly one mechanism, checked in this order:
///
/// 1. [`Predicate`](KillReason::Predicate): the instruction's guard masked
///    off the lane carrying the exceptional value while other lanes
///    executed — the exception never reached the destination write;
/// 2. [`Cvt`](KillReason::Cvt): a format conversion (`F2F` narrowing)
///    produced a clean destination from an exceptional source — the
///    exceptional range was truncated away;
/// 3. [`Ftz`](KillReason::Ftz): an `.FTZ` instruction flushed a subnormal
///    input chain to a clean (zero) destination;
/// 4. [`Overwrite`](KillReason::Overwrite): a producer wrote a clean value
///    over the flow — the residual reason when no modifier explains the
///    disappearance (selected away, reciprocal-of-INF, clean writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KillReason {
    /// `.FTZ` flush of a subnormal chain to zero.
    Ftz,
    /// Format-conversion truncation (`F2F` narrowing).
    Cvt,
    /// Overwrite by a clean producer.
    Overwrite,
    /// The carrying lane was predicated off.
    Predicate,
}

impl KillReason {
    /// Report label used in `#GPU-FPX-ANA KILL` lines.
    pub fn label(self) -> &'static str {
        match self {
            KillReason::Ftz => "FTZ FLUSH",
            KillReason::Cvt => "CVT TRUNCATION",
            KillReason::Overwrite => "CLEAN OVERWRITE",
            KillReason::Predicate => "PREDICATED OFF",
        }
    }

    /// Stable snake_case name for JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            KillReason::Ftz => "ftz",
            KillReason::Cvt => "cvt",
            KillReason::Overwrite => "overwrite",
            KillReason::Predicate => "predicate",
        }
    }
}

impl std::fmt::Display for KillReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Class of a register value in an analyzer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegClass {
    Val,
    NaN,
    Inf,
    Sub,
}

impl RegClass {
    fn from_fp_class(c: FpClass) -> Self {
        match c {
            FpClass::NaN => RegClass::NaN,
            FpClass::Inf => RegClass::Inf,
            FpClass::Subnormal => RegClass::Sub,
            _ => RegClass::Val,
        }
    }

    #[inline]
    pub fn is_exceptional(self) -> bool {
        self != RegClass::Val
    }

    fn encode(self) -> u8 {
        match self {
            RegClass::Val => 0,
            RegClass::NaN => 1,
            RegClass::Inf => 2,
            RegClass::Sub => 3,
        }
    }

    fn decode(b: u8) -> Self {
        match b & 0b11 {
            1 => RegClass::NaN,
            2 => RegClass::Inf,
            3 => RegClass::Sub,
            _ => RegClass::Val,
        }
    }
}

impl std::fmt::Display for RegClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RegClass::Val => "VAL",
            RegClass::NaN => "NaN",
            RegClass::Inf => "INF",
            RegClass::Sub => "SUB",
        })
    }
}

/// How one register slot is read by the injected analyzer code.
#[derive(Debug, Clone, Copy)]
enum SlotFmt {
    F32,
    /// FP64 pair `(r, r+1)`.
    F64Pair,
    /// `64H` high word: pair `(r-1, r)`.
    F64Hi,
    /// FP16 in the low 16 bits (the extension format).
    F16,
}

#[derive(Debug, Clone, Copy)]
struct RegSlot {
    reg: u8,
    fmt: SlotFmt,
}

impl RegSlot {
    /// The `active` lanes holding a NaN/INF/subnormal in this slot: one
    /// branchless SoA row scan per register instead of 32 strided
    /// per-lane reads.
    fn exceptional_lanes(&self, ctx: &InjectionCtx<'_, '_>, active: u32) -> u32 {
        match self.fmt {
            SlotFmt::F32 => row_exceptional_f32(ctx.lanes.reg_row(self.reg), active),
            SlotFmt::F64Pair => row_exceptional_f64(
                ctx.lanes.reg_row(self.reg),
                ctx.lanes.reg_row(self.reg + 1),
                active,
            ),
            SlotFmt::F64Hi => row_exceptional_f64(
                ctx.lanes.reg_row(self.reg - 1),
                ctx.lanes.reg_row(self.reg),
                active,
            ),
            SlotFmt::F16 => row_exceptional_f16(ctx.lanes.reg_row(self.reg), active),
        }
    }

    fn classify(&self, ctx: &InjectionCtx<'_, '_>, lane: u32) -> RegClass {
        let c = match self.fmt {
            SlotFmt::F32 => classify_f32(ctx.lanes.reg(lane, self.reg)),
            SlotFmt::F64Pair => classify_f64(pair_to_f64_bits(
                ctx.lanes.reg(lane, self.reg),
                ctx.lanes.reg(lane, self.reg + 1),
            )),
            SlotFmt::F64Hi => classify_f64(pair_to_f64_bits(
                ctx.lanes.reg(lane, self.reg - 1),
                ctx.lanes.reg(lane, self.reg),
            )),
            SlotFmt::F16 => classify_f16(ctx.lanes.reg(lane, self.reg) as u16),
        };
        RegClass::from_fp_class(c)
    }
}

/// `compile_e_type` of Listing 1: an exception already known at JIT time
/// from an IMM_DOUBLE or GENERIC operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompileEType {
    None,
    NaN,
    Inf,
}

const FLAG_SHARED: u8 = 1 << 0;
const FLAG_CTRL: u8 = 1 << 1;
const FLAG_HAS_DEST: u8 = 1 << 2;
const FLAG_CE_NAN: u8 = 1 << 3;
const FLAG_CE_INF: u8 = 1 << 4;
/// Runtime: the only exceptional values sat on lanes the guard masked off.
const FLAG_PRED_OFF: u8 = 1 << 5;
/// JIT: the instruction is a format conversion (`F2F`).
const FLAG_CVT: u8 = 1 << 6;
/// JIT: the instruction carries the `.FTZ` modifier.
const FLAG_FTZ: u8 = 1 << 7;

/// One decoded analyzer channel message (phase = before/after execution).
#[derive(Debug, Clone, PartialEq, Eq)]
struct RawEvent {
    before: bool,
    flags: u8,
    loc: u16,
    block: u16,
    warp: u8,
    classes: Vec<RegClass>,
}

impl RawEvent {
    fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(8 + self.classes.len());
        b.push(self.before as u8);
        b.push(self.flags);
        b.extend_from_slice(&self.loc.to_le_bytes());
        b.extend_from_slice(&self.block.to_le_bytes());
        b.push(self.warp);
        b.push(self.classes.len() as u8);
        b.extend(self.classes.iter().map(|c| c.encode()));
        b
    }

    fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < 8 {
            return None;
        }
        let n = b[7] as usize;
        if b.len() < 8 + n {
            return None;
        }
        Some(RawEvent {
            before: b[0] != 0,
            flags: b[1],
            loc: u16::from_le_bytes([b[2], b[3]]),
            block: u16::from_le_bytes([b[4], b[5]]),
            warp: b[6],
            classes: b[8..8 + n].iter().map(|x| RegClass::decode(*x)).collect(),
        })
    }
}

/// A fully classified exception-flow event: one exceptional execution of
/// one instruction, with register classes before (when captured) and
/// after execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowEvent {
    pub state: FlowState,
    pub loc: u16,
    pub kernel: String,
    pub sass: String,
    pub where_str: String,
    /// Block/warp that produced the event (chains are per-warp).
    pub block: u16,
    pub warp: u8,
    /// Register classes *before* execution (shared-register sites only).
    pub before: Option<Vec<RegClass>>,
    /// Register classes *after* execution (dest first when present).
    pub after: Option<Vec<RegClass>>,
    pub has_dest: bool,
    /// Why the exceptional flow was killed at this instruction, when it
    /// was (Disappearance events and guard-masked executions).
    pub kill: Option<KillReason>,
}

impl FlowEvent {
    fn phase_line(&self, phase: &str, classes: &[RegClass]) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "#GPU-FPX-ANA {}: {} executing the instruction {} Instruction: {} We have {} registers in total.",
            self.state.label(),
            phase,
            self.where_str,
            self.sass,
            classes.len()
        );
        for (i, c) in classes.iter().enumerate() {
            let _ = write!(s, " Register {i} is {c}.");
        }
        s
    }

    /// Render the paper-format report lines for this event.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(b) = &self.before {
            out.push(self.phase_line("Before", b));
        }
        if let Some(a) = &self.after {
            out.push(self.phase_line("After", a));
        }
        if let Some(k) = self.kill {
            out.push(format!(
                "#GPU-FPX-ANA KILL ({}): the exceptional value stops flowing here {} Instruction: {}",
                k.label(),
                self.where_str,
                self.sass
            ));
        }
        out
    }
}

/// The injected analyzer device function for one instruction. Captures
/// the Listing-1 data: register slots (dest first), cbank count,
/// `compile_e_type`, flags, and the location id.
struct AnalyzeFn {
    before: bool,
    flags: u8,
    loc: u16,
    slots: Vec<RegSlot>,
    /// Runtime cbank values read (cost accounting only; constants cannot
    /// become exceptional between launches, their classes are compile-time
    /// facts folded into `compile_e_type`).
    num_cbank: u32,
}

impl DeviceFn for AnalyzeFn {
    fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
        // Find the first lane with an exceptional register value; report
        // that lane's view (the detector already aggregates per-warp, the
        // analyzer wants one representative per execution). The scan is a
        // branchless whole-warp row pass per slot — the common all-normal
        // case costs a few mask ORs and no allocation.
        let mut excn = 0u32;
        for s in &self.slots {
            excn |= s.exceptional_lanes(ctx, ctx.guarded_mask);
        }
        let mut flags = self.flags;
        if excn == 0 {
            // Guarded lanes are clean. When the guard masked lanes off,
            // an exceptional value may be sitting on a predicated-off lane
            // — the instruction skipped it, cutting the flow (the
            // `KillReason::Predicate` path). The extra row scan only runs
            // for predicated instructions, so the unpredicated hot path is
            // unchanged.
            let off = ctx.exec_mask & !ctx.guarded_mask;
            if off == 0 {
                return;
            }
            for s in &self.slots {
                excn |= s.exceptional_lanes(ctx, off);
            }
            if excn == 0 {
                return;
            }
            flags |= FLAG_PRED_OFF;
        }
        let lane = excn.trailing_zeros();
        let classes: Vec<RegClass> = self.slots.iter().map(|s| s.classify(ctx, lane)).collect();
        let ev = RawEvent {
            before: self.before,
            flags,
            loc: self.loc,
            block: ctx.block as u16,
            warp: ctx.warp as u8,
            classes,
        };
        // Event records are deterministic per block: warp-coalesced.
        let stall = ctx.channel.stage(&ev.to_bytes());
        ctx.clock.charge(stall);
    }

    fn num_runtime_args(&self) -> u32 {
        self.slots.len() as u32 + self.num_cbank
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Keep at most this many flow events (the report notes how many were
    /// dropped); protects against exception-dense inner loops.
    pub max_events: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            max_events: 100_000,
        }
    }
}

/// The analyzer's cumulative host-side report.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct AnalyzerReport {
    pub events: Vec<FlowEvent>,
    /// Events dropped past `max_events`.
    pub dropped: u64,
}

impl AnalyzerReport {
    /// Count events per flow state.
    pub fn state_counts(&self) -> BTreeMap<FlowState, usize> {
        let mut m = BTreeMap::new();
        for e in &self.events {
            *m.entry(e.state).or_insert(0) += 1;
        }
        m
    }

    /// The full `#GPU-FPX-ANA` listing.
    pub fn listing(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            for line in e.lines() {
                s.push_str(&line);
                s.push('\n');
            }
        }
        s
    }

    /// Events whose destination exception *disappears* or is not selected
    /// — the signal used in §5.2 to conclude a NaN "stops propagating".
    pub fn disappearances(&self) -> impl Iterator<Item = &FlowEvent> {
        self.events
            .iter()
            .filter(|e| e.state == FlowState::Disappearance)
    }

    /// Count killed flows per [`KillReason`] — the differentiated view of
    /// [`disappearances`](AnalyzerReport::disappearances).
    pub fn kill_counts(&self) -> BTreeMap<KillReason, usize> {
        let mut m = BTreeMap::new();
        for e in &self.events {
            if let Some(k) = e.kill {
                *m.entry(k).or_insert(0) += 1;
            }
        }
        m
    }
}

/// The GPU-FPX analyzer tool.
pub struct Analyzer {
    cfg: AnalyzerConfig,
    locs: Arc<Mutex<LocationTable>>,
    /// Pending Before events awaiting their After half, keyed by
    /// (loc, block, warp).
    pending: HashMap<(u16, u16, u8), RawEvent>,
    report: AnalyzerReport,
    /// `opcode_to_id_map` of Listing 1 — the SASS-string interning table.
    opcode_ids: HashMap<String, u32>,
    /// Memoized (kernel, sass, where) strings per location id: the
    /// location-table lock and `where_str` formatting are paid once per
    /// distinct site, so the drain loop appends events without rendering.
    site_memo: HashMap<u16, (String, String, String)>,
}

impl Analyzer {
    pub fn new(cfg: AnalyzerConfig) -> Self {
        Analyzer {
            cfg,
            locs: Arc::new(Mutex::new(LocationTable::new())),
            pending: HashMap::new(),
            report: AnalyzerReport::default(),
            opcode_ids: HashMap::new(),
            site_memo: HashMap::new(),
        }
    }

    pub fn report(&self) -> &AnalyzerReport {
        &self.report
    }

    pub fn into_report(mut self) -> AnalyzerReport {
        self.flush_pending();
        self.report
    }

    /// Number of distinct opcodes interned (Listing 1's `opcode_id` map).
    pub fn opcode_count(&self) -> usize {
        self.opcode_ids.len()
    }

    fn intern_opcode(&mut self, sass: &str) -> u32 {
        let next = self.opcode_ids.len() as u32;
        *self.opcode_ids.entry(sass.to_string()).or_insert(next)
    }

    /// Gather the register slots (dest first) and compile-time exception
    /// info for one instruction — the paper's Listings 1 and 2.
    fn operand_info(instr: &Instruction) -> (Vec<RegSlot>, CompileEType, u32, bool) {
        let op = instr.opcode.base;
        let fmt = op.fp_format().unwrap_or(FpFormat::Fp32);
        // F2F sources carry the *source* format, which differs from the
        // destination's (`fp_format()`): without this split an
        // `F2F.F32.F64` narrowing would read its FP64 pair source as an
        // FP32 word and misclassify it.
        let src_base_fmt = match op {
            fpx_sass::op::BaseOp::F2F { src, .. } => src,
            _ => fmt,
        };
        let slot_fmt = |f: FpFormat, is_64h: bool| match (f, is_64h) {
            (FpFormat::Fp64, true) => SlotFmt::F64Hi,
            (FpFormat::Fp64, false) => SlotFmt::F64Pair,
            (FpFormat::Fp16, _) => SlotFmt::F16,
            _ => SlotFmt::F32,
        };
        let mut slots = Vec::new();
        let mut has_dest = false;
        if let Some(rd) = instr.dest_reg() {
            if rd != RZ {
                slots.push(RegSlot {
                    reg: rd,
                    fmt: slot_fmt(fmt, op.is_64h()),
                });
                has_dest = true;
            }
        }
        let mut compile_e = CompileEType::None;
        let mut num_cbank = 0u32;
        for opnd in instr.src_operands() {
            match opnd {
                Operand::Reg { num, .. } if *num != RZ => {
                    // MUFU.RCP64H sources are high words too.
                    slots.push(RegSlot {
                        reg: *num,
                        fmt: slot_fmt(src_base_fmt, op.is_64h()),
                    });
                }
                Operand::CBank(_) => num_cbank += 1,
                Operand::ImmDouble(v) => {
                    if v.is_nan() {
                        compile_e = CompileEType::NaN;
                    } else if v.is_infinite() {
                        compile_e = CompileEType::Inf;
                    }
                }
                Operand::Generic(s) => {
                    if s.contains("NAN") {
                        compile_e = CompileEType::NaN;
                    } else if s.contains("INF") {
                        compile_e = CompileEType::Inf;
                    }
                }
                _ => {}
            }
        }
        (slots, compile_e, num_cbank, has_dest)
    }

    fn classify(flags: u8, before: Option<&[RegClass]>, after: Option<&[RegClass]>) -> FlowState {
        if flags & FLAG_PRED_OFF != 0 {
            // The instruction never executed on the exceptional lane: the
            // value neither propagated nor survived into this destination.
            return FlowState::Disappearance;
        }
        if flags & FLAG_SHARED != 0 {
            return FlowState::SharedRegister;
        }
        if flags & FLAG_CTRL != 0 {
            return FlowState::Comparison;
        }
        let has_dest = flags & FLAG_HAS_DEST != 0;
        let a = after.unwrap_or(&[]);
        let dest_exc = has_dest && a.first().is_some_and(|c| c.is_exceptional());
        // Source classes: prefer the pre-execution view when present.
        let srcs: &[RegClass] = match before {
            Some(b) if has_dest => b.get(1..).unwrap_or(&[]),
            Some(b) => b,
            None if has_dest => a.get(1..).unwrap_or(&[]),
            None => a,
        };
        let src_exc =
            srcs.iter().any(|c| c.is_exceptional()) || flags & (FLAG_CE_NAN | FLAG_CE_INF) != 0;
        match (dest_exc, src_exc) {
            (true, false) => FlowState::Appearance,
            (true, true) => FlowState::Propagation,
            (false, _) => FlowState::Disappearance,
        }
    }

    /// Attribute a kill reason to one event (see [`KillReason`] for the
    /// precedence). Returns `None` when the flow survived — an exceptional
    /// destination, or no exceptional input to kill in the first place.
    fn classify_kill(
        flags: u8,
        before: Option<&[RegClass]>,
        after: Option<&[RegClass]>,
    ) -> Option<KillReason> {
        if flags & FLAG_PRED_OFF != 0 {
            return Some(KillReason::Predicate);
        }
        let has_dest = flags & FLAG_HAS_DEST != 0;
        if !has_dest {
            return None;
        }
        let a = after?;
        if a.first().is_some_and(|c| c.is_exceptional()) {
            return None; // the flow survived into the destination
        }
        let srcs = a.get(1..).unwrap_or(&[]);
        let before_dest_exc = before.is_some_and(|b| b.first().is_some_and(|c| c.is_exceptional()));
        let src_exc = srcs.iter().any(|c| c.is_exceptional())
            || flags & (FLAG_CE_NAN | FLAG_CE_INF) != 0
            || before_dest_exc;
        if !src_exc {
            return None;
        }
        if flags & FLAG_CVT != 0 {
            Some(KillReason::Cvt)
        } else if flags & FLAG_FTZ != 0
            && (srcs.contains(&RegClass::Sub) || before.is_some_and(|b| b.contains(&RegClass::Sub)))
        {
            Some(KillReason::Ftz)
        } else {
            Some(KillReason::Overwrite)
        }
    }

    fn emit(&mut self, raw_before: Option<RawEvent>, raw_after: Option<RawEvent>) {
        let sample = raw_after.as_ref().or(raw_before.as_ref());
        let Some(sample) = sample else { return };
        if self.report.events.len() >= self.cfg.max_events {
            self.report.dropped += 1;
            return;
        }
        let flags = sample.flags;
        let loc = sample.loc;
        let (sample_block, sample_warp) = (sample.block, sample.warp);
        let state = Self::classify(
            flags,
            raw_before.as_ref().map(|e| e.classes.as_slice()),
            raw_after.as_ref().map(|e| e.classes.as_slice()),
        );
        let kill = Self::classify_kill(
            flags,
            raw_before.as_ref().map(|e| e.classes.as_slice()),
            raw_after.as_ref().map(|e| e.classes.as_slice()),
        );
        let locs = &self.locs;
        let (kernel, sass, where_str) = self
            .site_memo
            .entry(loc)
            .or_insert_with(|| match locs.lock().resolve(loc) {
                Some(site) => (site.kernel.clone(), site.sass.clone(), site.where_str()),
                None => ("unknown".into(), String::new(), String::new()),
            })
            .clone();
        self.report.events.push(FlowEvent {
            state,
            loc,
            kernel,
            sass,
            where_str,
            block: sample_block,
            warp: sample_warp,
            before: raw_before.map(|e| e.classes),
            after: raw_after.map(|e| e.classes),
            has_dest: flags & FLAG_HAS_DEST != 0,
            kill,
        });
    }

    fn flush_pending(&mut self) {
        let pending: Vec<RawEvent> = self.pending.drain().map(|(_, v)| v).collect();
        for ev in pending {
            self.emit(Some(ev), None);
        }
    }
}

impl NvbitTool for Analyzer {
    fn on_kernel_launch(&mut self, _ctx: &mut LaunchCtx, _kernel: &KernelCode) {}

    fn instrument_instruction(
        &mut self,
        kernel: &KernelCode,
        pc: u32,
        instr: &Instruction,
        inserter: &mut Inserter<'_>,
    ) {
        if !instr.opcode.base.is_fp_instrumented() {
            return;
        }
        let _opcode_id = self.intern_opcode(&instr.sass());
        let (slots, compile_e, num_cbank, has_dest) = Self::operand_info(instr);
        if slots.is_empty() {
            return;
        }
        let loc = self
            .locs
            .lock()
            .intern(&kernel.name, pc, instr.sass(), instr.loc.clone());
        let shared = instr.shares_dest_with_src();
        let mut flags = 0u8;
        if shared {
            flags |= FLAG_SHARED;
        }
        if instr.opcode.base.is_fp_control_flow() {
            flags |= FLAG_CTRL;
        }
        if has_dest {
            flags |= FLAG_HAS_DEST;
        }
        match compile_e {
            CompileEType::NaN => flags |= FLAG_CE_NAN,
            CompileEType::Inf => flags |= FLAG_CE_INF,
            CompileEType::None => {}
        }
        if matches!(instr.opcode.base, fpx_sass::op::BaseOp::F2F { .. }) {
            flags |= FLAG_CVT;
        }
        if instr.opcode.mods.ftz {
            flags |= FLAG_FTZ;
        }
        // §3.2.1: shared destination/source registers force an additional
        // check *prior* to execution.
        if shared {
            inserter.insert_call(
                When::Before,
                Arc::new(AnalyzeFn {
                    before: true,
                    flags,
                    loc,
                    slots: slots.clone(),
                    num_cbank,
                }),
            );
        }
        inserter.insert_call(
            When::After,
            Arc::new(AnalyzeFn {
                before: false,
                flags,
                loc,
                slots,
                num_cbank,
            }),
        );
    }

    fn on_channel_record(&mut self, record: &[u8]) -> u64 {
        let Some(ev) = RawEvent::from_bytes(record) else {
            return 0;
        };
        let key = (ev.loc, ev.block, ev.warp);
        // The drain loop is append-only: events are classified and pushed as
        // structured values; the `#GPU-FPX-ANA` lines are rendered once at
        // report time. A Before record therefore costs only its pending-map
        // insert (covered by the per-record base), and every emitted event
        // costs a deferred append instead of a formatted report line.
        if ev.before {
            // A stale pending Before (its After saw nothing exceptional)
            // flushes as a Before-only event first.
            if let Some(prev) = self.pending.insert(key, ev) {
                self.emit(Some(prev), None);
                return fpx_nvbit::overhead::HOST_EVENT_APPEND;
            }
            0
        } else {
            let before = self.pending.remove(&key);
            self.emit(before, Some(ev));
            fpx_nvbit::overhead::HOST_EVENT_APPEND
        }
    }

    fn on_term(&mut self, _ctx: &mut ToolCtx<'_>) {
        self.flush_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_nvbit::Nvbit;
    use fpx_sass::assemble_kernel;
    use fpx_sim::gpu::{Arch, Gpu, LaunchConfig, ParamValue};
    use std::sync::Arc;

    fn run(src: &str, params: Vec<ParamValue>) -> AnalyzerReport {
        let k = Arc::new(assemble_kernel(src).unwrap());
        let mut nv = Nvbit::new(
            Gpu::new(Arch::Ampere),
            Analyzer::new(AnalyzerConfig::default()),
        );
        nv.launch(&k, &LaunchConfig::new(1, 32, params)).unwrap();
        nv.terminate();
        nv.tool.report().clone()
    }

    #[test]
    fn appearance_of_inf_from_overflow() {
        // FMUL of two huge values overflows to INF; sources are normal.
        let src = r#"
.kernel overflow
    MOV32I R0, 0x7f000000 ;
    FMUL R1, R0, R0 ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        assert_eq!(rep.events.len(), 1);
        let e = &rep.events[0];
        assert_eq!(e.state, FlowState::Appearance);
        assert_eq!(e.after.as_ref().unwrap()[0], RegClass::Inf);
        assert!(e.before.is_none(), "no pre-check without register sharing");
    }

    #[test]
    fn propagation_through_distinct_registers() {
        let src = r#"
.kernel prop
    FADD R1, RZ, +QNAN ;
    FADD R2, R1, 1.0 ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        // Event 0: NaN appears (from the IMM "+QNAN" → compile_e_type →
        // classified as propagation from a compile-time-known source).
        // Event 1: NaN propagates R1 → R2.
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.events[0].state, FlowState::Propagation);
        let e = &rep.events[1];
        assert_eq!(e.state, FlowState::Propagation);
        let after = e.after.as_ref().unwrap();
        assert_eq!(after[0], RegClass::NaN, "dest");
        assert_eq!(after[1], RegClass::NaN, "src R1");
    }

    #[test]
    fn shared_register_gets_before_and_after() {
        // Listing 7's pattern: FFMA R1, Ra, Rb, R1 with a NaN source.
        let src = r#"
.kernel shared
    MOV32I R2, 0x3f800000 ;
    FADD R1, RZ, +QNAN ;
    FFMA R1, R2, R2, R1 ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        let e = rep
            .events
            .iter()
            .find(|e| e.sass.starts_with("FFMA"))
            .expect("FFMA event");
        assert_eq!(e.state, FlowState::SharedRegister);
        let before = e.before.as_ref().expect("pre-execution check");
        let after = e.after.as_ref().expect("post-execution check");
        // Registers: R1 (dest), R2, R2, R1 → 4 registers, like Listing 7.
        assert_eq!(before.len(), 4);
        assert_eq!(before[3], RegClass::NaN, "source R1 NaN visible before");
        assert_eq!(after[0], RegClass::NaN, "dest NaN after");
        let lines = e.lines();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("#GPU-FPX-ANA SHARED REGISTER: Before executing the instruction")
        );
        assert!(lines[0].contains("We have 4 registers in total."));
        assert!(lines[1].contains("After executing the instruction"));
    }

    #[test]
    fn disappearance_when_nan_is_not_selected() {
        // FMNMX with one NaN input swallows it (IEEE-754-2008): dest VAL,
        // src NaN → Comparison state (control-flow op), visible swallow.
        let src = r#"
.kernel swallow
    FADD R1, RZ, +QNAN ;
    MOV32I R2, 0x40000000 ;
    FMNMX R3, R1, R2, PT ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        let e = rep
            .events
            .iter()
            .find(|e| e.sass.starts_with("FMNMX"))
            .expect("FMNMX event");
        assert_eq!(e.state, FlowState::Comparison);
        let after = e.after.as_ref().unwrap();
        assert_eq!(after[0], RegClass::Val, "NaN swallowed by min");
        assert_eq!(after[1], RegClass::NaN);
    }

    #[test]
    fn true_disappearance_via_division_by_inf() {
        // x / INF: MUFU.RCP(INF) = 0, then FMUL by 0 — the INF source
        // disappears (the footnote-2 example of when exceptions are benign).
        let src = r#"
.kernel vanish
    FADD R1, RZ, +INF ;
    MUFU.RCP R2, R1 ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        let e = rep
            .events
            .iter()
            .find(|e| e.sass.starts_with("MUFU.RCP"))
            .expect("RCP event");
        assert_eq!(e.state, FlowState::Disappearance);
        assert_eq!(e.after.as_ref().unwrap()[0], RegClass::Val);
        assert_eq!(e.after.as_ref().unwrap()[1], RegClass::Inf);
        // The kill taxonomy's residual bucket: a clean producer result
        // overwrote the flow with no modifier to blame.
        assert_eq!(e.kill, Some(KillReason::Overwrite));
    }

    #[test]
    fn kill_reason_ftz_flush() {
        // Two minimum subnormals sum to a subnormal; `.FTZ` flushes the
        // result (and inputs) to zero — the flow dies in the flush.
        let src = r#"
.kernel ftzk
    MOV32I R2, 0x00000001 ;
    FADD.FTZ R1, R2, R2 ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        let e = rep
            .events
            .iter()
            .find(|e| e.sass.starts_with("FADD.FTZ"))
            .expect("FTZ event");
        assert_eq!(e.state, FlowState::Disappearance);
        assert_eq!(e.after.as_ref().unwrap()[0], RegClass::Val, "flushed");
        assert_eq!(e.after.as_ref().unwrap()[1], RegClass::Sub);
        assert_eq!(e.kill, Some(KillReason::Ftz));
        assert_eq!(rep.kill_counts().get(&KillReason::Ftz), Some(&1));
        let kill_line = e.lines().pop().unwrap();
        assert!(
            kill_line.starts_with("#GPU-FPX-ANA KILL (FTZ FLUSH)"),
            "{kill_line}"
        );
    }

    #[test]
    fn kill_reason_cvt_truncation() {
        // F2F.F32.F64 narrows an FP64 subnormal to an exact FP32 zero:
        // the exceptional value cannot survive the conversion.
        let src = r#"
.kernel cvtk
    LDC.64 R2, c[0x0][0x160] ;
    F2F.F32.F64 R4, R2 ;
    EXIT ;
"#;
        let rep = run(src, vec![ParamValue::F64(1e-310)]);
        let e = rep
            .events
            .iter()
            .find(|e| e.sass.starts_with("F2F"))
            .expect("F2F event");
        assert_eq!(e.state, FlowState::Disappearance);
        assert_eq!(e.after.as_ref().unwrap()[0], RegClass::Val);
        assert_eq!(
            e.after.as_ref().unwrap()[1],
            RegClass::Sub,
            "FP64 source pair"
        );
        assert_eq!(e.kill, Some(KillReason::Cvt));
    }

    #[test]
    fn kill_reason_predicated_off_lane() {
        // Lane 0 carries a NaN in R2; the guard `@P0` masks exactly that
        // lane off, so the FADD never consumes the NaN — the flow is cut
        // by predication, not by a value computation.
        let src = r#"
.kernel predk
    FADD R4, RZ, +QNAN ;
    MOV32I R5, 0x3f800000 ;
    S2R R0, SR_LANEID ;
    ISETP.NE.AND P0, R0, 0x0 ;
    FSEL R2, R5, R4, P0 ;
    @P0 FADD R1, R2, R5 ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        let e = rep
            .events
            .iter()
            .find(|e| e.sass.contains("FADD R1"))
            .expect("predicated FADD event");
        assert_eq!(e.state, FlowState::Disappearance);
        assert_eq!(e.kill, Some(KillReason::Predicate));
        // The reported classes are the predicated-off lane's view.
        assert_eq!(e.after.as_ref().unwrap()[1], RegClass::NaN, "R2 on lane 0");
    }

    #[test]
    fn kill_reason_overwrite_on_comparison_swallow() {
        // FMNMX swallows a single-NaN input (IEEE-754-2008): the clean
        // operand overwrites the destination — an Overwrite kill on a
        // Comparison-state event.
        let src = r#"
.kernel swk
    FADD R1, RZ, +QNAN ;
    MOV32I R2, 0x40000000 ;
    FMNMX R3, R1, R2, PT ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        let e = rep
            .events
            .iter()
            .find(|e| e.sass.starts_with("FMNMX"))
            .unwrap();
        assert_eq!(e.state, FlowState::Comparison);
        assert_eq!(e.kill, Some(KillReason::Overwrite));
    }

    #[test]
    fn surviving_flows_carry_no_kill_reason() {
        let src = r#"
.kernel alive
    FADD R1, RZ, +QNAN ;
    FADD R2, R1, 1.0 ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        assert!(rep.events.iter().all(|e| e.kill.is_none()), "{rep:#?}");
        assert!(rep.kill_counts().is_empty());
    }

    #[test]
    fn fp64_subnormal_classes_via_pairs() {
        let src = r#"
.kernel d64
    LDC.64 R2, c[0x0][0x160] ;
    DADD R4, R2, R2 ;
    EXIT ;
"#;
        let rep = run(src, vec![ParamValue::F64(1e-310)]);
        let e = rep
            .events
            .iter()
            .find(|e| e.sass.starts_with("DADD"))
            .unwrap();
        assert_eq!(e.state, FlowState::Propagation);
        let after = e.after.as_ref().unwrap();
        assert_eq!(after[0], RegClass::Sub, "dest 2e-310 still subnormal");
        assert_eq!(after[1], RegClass::Sub);
        assert_eq!(after[2], RegClass::Sub);
    }

    #[test]
    fn clean_kernel_produces_no_events() {
        let src = r#"
.kernel clean
    MOV32I R0, 0x3f800000 ;
    FADD R1, R0, R0 ;
    FMUL R2, R1, R1 ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        assert!(rep.events.is_empty());
        assert_eq!(rep.dropped, 0);
    }

    #[test]
    fn event_cap_drops_excess() {
        let src = r#"
.kernel loopnan
    FADD R1, RZ, +QNAN ;
    MOV32I R4, 0x0 ;
    SSY `(.L_sync) ;
.L_top:
    FADD R2, R1, 1.0 ;
    IADD3 R4, R4, 0x1, RZ ;
    ISETP.LT.AND P0, R4, 0x64 ;
    @P0 BRA `(.L_top) ;
.L_sync:
    SYNC ;
    EXIT ;
"#;
        let k = Arc::new(assemble_kernel(src).unwrap());
        let mut nv = Nvbit::new(
            Gpu::new(Arch::Ampere),
            Analyzer::new(AnalyzerConfig { max_events: 10 }),
        );
        nv.launch(&k, &LaunchConfig::new(1, 32, vec![])).unwrap();
        let rep = nv.tool.report();
        assert_eq!(rep.events.len(), 10);
        assert!(rep.dropped > 0);
    }

    #[test]
    fn raw_event_roundtrip() {
        let ev = RawEvent {
            before: true,
            flags: FLAG_SHARED | FLAG_HAS_DEST,
            loc: 0x1234,
            block: 7,
            warp: 3,
            classes: vec![RegClass::Val, RegClass::NaN, RegClass::Inf, RegClass::Sub],
        };
        assert_eq!(RawEvent::from_bytes(&ev.to_bytes()), Some(ev));
        assert_eq!(RawEvent::from_bytes(&[1, 2, 3]), None);
    }

    #[test]
    fn state_counts_aggregate() {
        let src = r#"
.kernel multi
    FADD R1, RZ, +QNAN ;
    FADD R2, R1, 1.0 ;
    FMNMX R3, R1, R2, PT ;
    EXIT ;
"#;
        let rep = run(src, vec![]);
        let counts = rep.state_counts();
        assert_eq!(counts.get(&FlowState::Comparison), Some(&1));
        assert!(counts.get(&FlowState::Propagation).copied().unwrap_or(0) >= 1);
    }
}
