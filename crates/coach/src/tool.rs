//! The `Coach` NVBit tool: a `Phase::Observe` lineage hook that tracks
//! exceptional register values across writebacks and emits the
//! birth/propagate/kill records the host reconstructs into timelines.
//!
//! ## Lineage model
//!
//! The device side keeps, per ⟨block, warp, register⟩, at most one *live
//! slot*: the lane carrying the exceptional value, its class, and the raw
//! bits it held when last seen (single-slot-per-register simplification —
//! a register carries one tracked lineage at a time). A block lists the
//! warps carrying lineage, in warp order, and each warp keeps its slots
//! in a [`RegMap`]: a register-mask bit test answers the usual "no
//! lineage here" probe, nothing is hashed, and a warp leaves the list
//! with its last slot, so memory follows the live slots. Slots are
//! created at births/propagations and destroyed by kills:
//!
//! * **overwrite (lazy)**: slot validation happens at the *next* FP
//!   instruction touching the register — an untracked producer (MOV,
//!   load, integer op) changed the bits, or a clean FP writeback replaced
//!   them. The kill's reported site is where the loss was *noticed*, not
//!   where it happened (documented policy, same as the shadow file's
//!   healing rule);
//! * **cvt / ftz**: a clean destination produced by an `F2F` conversion,
//!   or by an `.FTZ` instruction flushing its own subnormal shared-dest
//!   input, attributes the kill to the modifier instead;
//! * **predicate**: the instruction's guard masked off the carrying lane
//!   while other lanes executed — the flow was cut by predication.
//!
//! ## Determinism
//!
//! State is keyed by block and every hook touches only its own block's
//! entry; records travel the per-block channel ports and merge by
//! ⟨launch, block, seq⟩. Per-site hit ordinals are counted under the
//! block lock in stage order, which the drain merge reproduces exactly —
//! so timelines and rewind targets are byte-identical across `--threads`
//! values and between live runs and trace replays.

use crate::rewind::{CaptureTarget, LaneDump, LiveLine, RegDump, StateDump};
use crate::timeline::{CoachReport, EventKind, Timeline, TimelineEvent, TimelineOutcome};
use fpx_nvbit::tool::{Inserter, LaunchCtx, NvbitTool, ToolCtx};
use fpx_obs::{Counter, Obs};
use fpx_sass::instr::Instruction;
use fpx_sass::kernel::KernelCode;
use fpx_sass::operand::{Operand, RZ};
use fpx_sass::types::{
    classify_f16, classify_f32, classify_f64, pair_to_f64_bits, row_exceptional_f16,
    row_exceptional_f32, row_exceptional_f64, FpClass, FpFormat,
};
use fpx_shadow::RegMap;
use fpx_sim::hooks::{DeviceFn, InjectionCtx, Phase, When};
use gpu_fpx::analyzer::{KillReason, RegClass};
use gpu_fpx::record::LocationTable;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Coach configuration.
#[derive(Debug, Clone)]
pub struct CoachConfig {
    /// Keep at most this many timeline events across the run (the report
    /// notes how many were dropped).
    pub max_events: usize,
    /// When set, snapshot warp state at this event (the rewind pass).
    pub capture: Option<CaptureTarget>,
}

impl Default for CoachConfig {
    fn default() -> Self {
        CoachConfig {
            max_events: 100_000,
            capture: None,
        }
    }
}

/// How one register slot is read (mirrors the analyzer's private slot
/// formats; `F2F` sources carry the source format, not the dest's).
#[derive(Debug, Clone, Copy)]
enum CoachFmt {
    F32,
    F64Pair,
    F64Hi,
    F16,
}

#[derive(Debug, Clone, Copy)]
struct CoachSlot {
    reg: u8,
    fmt: CoachFmt,
}

fn reg_class(c: FpClass) -> RegClass {
    match c {
        FpClass::NaN => RegClass::NaN,
        FpClass::Inf => RegClass::Inf,
        FpClass::Subnormal => RegClass::Sub,
        _ => RegClass::Val,
    }
}

impl CoachSlot {
    /// The `active` lanes holding a NaN/INF/subnormal in this slot.
    fn exceptional_lanes(&self, ctx: &InjectionCtx<'_, '_>, active: u32) -> u32 {
        match self.fmt {
            CoachFmt::F32 => row_exceptional_f32(ctx.lanes.reg_row(self.reg), active),
            CoachFmt::F64Pair => row_exceptional_f64(
                ctx.lanes.reg_row(self.reg),
                ctx.lanes.reg_row(self.reg + 1),
                active,
            ),
            CoachFmt::F64Hi => row_exceptional_f64(
                ctx.lanes.reg_row(self.reg - 1),
                ctx.lanes.reg_row(self.reg),
                active,
            ),
            CoachFmt::F16 => row_exceptional_f16(ctx.lanes.reg_row(self.reg), active),
        }
    }

    fn classify(&self, ctx: &InjectionCtx<'_, '_>, lane: u32) -> RegClass {
        let c = match self.fmt {
            CoachFmt::F32 => classify_f32(ctx.lanes.reg(lane, self.reg)),
            CoachFmt::F64Pair => classify_f64(pair_to_f64_bits(
                ctx.lanes.reg(lane, self.reg),
                ctx.lanes.reg(lane, self.reg + 1),
            )),
            CoachFmt::F64Hi => classify_f64(pair_to_f64_bits(
                ctx.lanes.reg(lane, self.reg - 1),
                ctx.lanes.reg(lane, self.reg),
            )),
            CoachFmt::F16 => classify_f16(ctx.lanes.reg(lane, self.reg) as u16),
        };
        reg_class(c)
    }

    /// Raw bits of this slot on one lane (binary32 in the low word).
    fn read_bits(&self, ctx: &InjectionCtx<'_, '_>, lane: u32) -> u64 {
        match self.fmt {
            CoachFmt::F32 | CoachFmt::F16 => ctx.lanes.reg(lane, self.reg) as u64,
            CoachFmt::F64Pair => pair_to_f64_bits(
                ctx.lanes.reg(lane, self.reg),
                ctx.lanes.reg(lane, self.reg + 1),
            ),
            CoachFmt::F64Hi => pair_to_f64_bits(
                ctx.lanes.reg(lane, self.reg - 1),
                ctx.lanes.reg(lane, self.reg),
            ),
        }
    }

    fn wide(&self) -> bool {
        matches!(self.fmt, CoachFmt::F64Pair | CoachFmt::F64Hi)
    }
}

/// JIT-time capture of one instrumented instruction.
struct CoachSpec {
    dest: Option<CoachSlot>,
    srcs: Vec<CoachSlot>,
    ftz: bool,
    cvt: bool,
    shared: bool,
}

impl CoachSpec {
    fn from_instr(instr: &Instruction) -> Option<CoachSpec> {
        let op = instr.opcode.base;
        if !op.is_fp_instrumented() {
            return None;
        }
        let fmt = op.fp_format().unwrap_or(FpFormat::Fp32);
        let src_base_fmt = match op {
            fpx_sass::op::BaseOp::F2F { src, .. } => src,
            _ => fmt,
        };
        let slot_fmt = |f: FpFormat, is_64h: bool| match (f, is_64h) {
            (FpFormat::Fp64, true) => CoachFmt::F64Hi,
            (FpFormat::Fp64, false) => CoachFmt::F64Pair,
            (FpFormat::Fp16, _) => CoachFmt::F16,
            _ => CoachFmt::F32,
        };
        let dest = instr.dest_reg().filter(|r| *r != RZ).map(|r| CoachSlot {
            reg: r,
            fmt: slot_fmt(fmt, op.is_64h()),
        });
        let mut srcs = Vec::new();
        for o in instr.src_operands() {
            if let Operand::Reg { num, .. } = o {
                if *num != RZ {
                    srcs.push(CoachSlot {
                        reg: *num,
                        fmt: slot_fmt(src_base_fmt, op.is_64h()),
                    });
                }
            }
        }
        if dest.is_none() && srcs.is_empty() {
            return None;
        }
        Some(CoachSpec {
            dest,
            srcs,
            ftz: instr.opcode.mods.ftz,
            cvt: matches!(op, fpx_sass::op::BaseOp::F2F { .. }),
            shared: instr.shares_dest_with_src(),
        })
    }

    fn runtime_args(&self) -> u32 {
        self.dest.is_some() as u32 + self.srcs.len() as u32
    }
}

/// One tracked lineage endpoint: the lane carrying the value, its class,
/// and the raw bits it held when last validated.
#[derive(Debug, Clone, Copy)]
struct LiveSlot {
    lane: u8,
    class: RegClass,
    real: u64,
}

/// Per-block coach state; each hook only touches its own block's entry.
#[derive(Debug, Default)]
struct BlockCoach {
    /// The warps carrying live lineage, in warp order, each with its
    /// live slots by register. A warp leaves the list when its last slot
    /// dies, so memory follows the live slots.
    live: Vec<(u32, RegMap<LiveSlot>)>,
    /// ⟨warp, site⟩ → events emitted so far (the rewind hit ordinal).
    hits: HashMap<(u32, u16), u32>,
    /// The records of the current call, reused from call to call.
    recs: Vec<[u8; REC_LEN]>,
}

impl BlockCoach {
    fn warp(&self, warp: u32) -> Option<&RegMap<LiveSlot>> {
        let i = self.live.binary_search_by_key(&warp, |(w, _)| *w).ok()?;
        Some(&self.live[i].1)
    }

    fn slot(&self, warp: u32, reg: u8) -> Option<LiveSlot> {
        self.warp(warp)?.get(reg).copied()
    }

    fn set_slot(&mut self, warp: u32, reg: u8, slot: LiveSlot) {
        let i = match self.live.binary_search_by_key(&warp, |(w, _)| *w) {
            Ok(i) => i,
            Err(i) => {
                self.live.insert(i, (warp, RegMap::default()));
                i
            }
        };
        *self.live[i].1.get_or_insert_with(reg, || slot) = slot;
    }

    fn kill_slot(&mut self, warp: u32, reg: u8) {
        if let Ok(i) = self.live.binary_search_by_key(&warp, |(w, _)| *w) {
            self.live[i].1.remove(reg);
            if self.live[i].1.is_empty() {
                self.live.remove(i);
            }
        }
    }
}

struct CoachShared {
    state: Mutex<HashMap<u32, BlockCoach>>,
    capture: Option<CaptureTarget>,
    dump: Mutex<Option<StateDump>>,
    /// Device-side records emitted (the `coach_events` counter).
    emitted: AtomicU64,
}

/// Wire format of one coach record: kind, class, kill reason, loc u16,
/// block u16, warp, lane, reg, src reg (0xff = none), launch u16. The
/// launch rides in the record because the host receiver sees bytes only.
const REC_LEN: usize = 13;

const KIND_BIRTH: u8 = 0;
const KIND_PROP: u8 = 1;
const KIND_KILL: u8 = 2;
const NO_REG: u8 = 0xff;
const NO_REASON: u8 = 0xff;

fn class_code(c: RegClass) -> u8 {
    match c {
        RegClass::Val => 0,
        RegClass::NaN => 1,
        RegClass::Inf => 2,
        RegClass::Sub => 3,
    }
}

fn class_from_code(b: u8) -> RegClass {
    match b & 0b11 {
        1 => RegClass::NaN,
        2 => RegClass::Inf,
        3 => RegClass::Sub,
        _ => RegClass::Val,
    }
}

fn reason_code(r: KillReason) -> u8 {
    match r {
        KillReason::Ftz => 0,
        KillReason::Cvt => 1,
        KillReason::Overwrite => 2,
        KillReason::Predicate => 3,
    }
}

fn reason_from_code(b: u8) -> Option<KillReason> {
    match b {
        0 => Some(KillReason::Ftz),
        1 => Some(KillReason::Cvt),
        2 => Some(KillReason::Overwrite),
        3 => Some(KillReason::Predicate),
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_rec(
    kind: u8,
    class: RegClass,
    reason: Option<KillReason>,
    loc: u16,
    block: u16,
    warp: u8,
    lane: u8,
    reg: u8,
    src: Option<u8>,
    launch: u16,
) -> [u8; REC_LEN] {
    let mut rec = [0u8; REC_LEN];
    rec[0] = kind;
    rec[1] = class_code(class);
    rec[2] = reason.map_or(NO_REASON, reason_code);
    rec[3..5].copy_from_slice(&loc.to_le_bytes());
    rec[5..7].copy_from_slice(&block.to_le_bytes());
    rec[7] = warp;
    rec[8] = lane;
    rec[9] = reg;
    rec[10] = src.unwrap_or(NO_REG);
    rec[11..13].copy_from_slice(&launch.to_le_bytes());
    rec
}

/// The injected coach device function (After/Observe on every
/// instrumented FP instruction).
struct CoachFn {
    shared: Arc<CoachShared>,
    spec: Arc<CoachSpec>,
    loc: u16,
    args: u32,
}

/// Snapshot the warp at the capture point: per-lane bits and classes of
/// every register the instruction touches, plus the warp's live lineage.
fn build_dump(
    ctx: &InjectionCtx<'_, '_>,
    spec: &CoachSpec,
    bs: &BlockCoach,
    loc: u16,
    launch: u16,
) -> StateDump {
    let dump_slot = |s: &CoachSlot, is_dest: bool| RegDump {
        reg: s.reg,
        is_dest,
        wide: s.wide(),
        lanes: (0..32)
            .map(|lane| LaneDump {
                bits: s.read_bits(ctx, lane),
                class: s.classify(ctx, lane),
            })
            .collect(),
    };
    let mut regs = Vec::new();
    if let Some(d) = &spec.dest {
        regs.push(dump_slot(d, true));
    }
    for s in &spec.srcs {
        if !regs.iter().any(|r: &RegDump| r.reg == s.reg) {
            regs.push(dump_slot(s, false));
        }
    }
    let live: Vec<LiveLine> = bs
        .warp(ctx.warp)
        .into_iter()
        .flat_map(|m| m.iter())
        .map(|(reg, sl)| LiveLine {
            reg,
            lane: sl.lane,
            class: sl.class,
        })
        .collect();
    StateDump {
        kernel: ctx.kernel_name.to_string(),
        pc: ctx.pc,
        loc,
        launch,
        block: ctx.block as u16,
        warp: ctx.warp as u8,
        exec_mask: ctx.exec_mask,
        guarded_mask: ctx.guarded_mask,
        regs,
        live,
    }
}

impl DeviceFn for CoachFn {
    fn num_runtime_args(&self) -> u32 {
        self.args
    }

    fn is_coach(&self) -> bool {
        true
    }

    fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
        let spec = &self.spec;
        let launch = ctx.launch_id as u16;
        let block = ctx.block as u16;
        let warp8 = ctx.warp as u8;
        let rec = |kind, class, reason, lane, reg, src| {
            encode_rec(
                kind, class, reason, self.loc, block, warp8, lane, reg, src, launch,
            )
        };
        let mut st = self.shared.state.lock();
        let bs = st.entry(ctx.block).or_default();
        let mut recs = std::mem::take(&mut bs.recs);
        recs.clear();
        let off = ctx.exec_mask & !ctx.guarded_mask;

        // Step 1: source-side kills. A live slot whose bits no longer
        // match was overwritten by an untracked producer (lazy
        // detection — reported at this, the noticing, site). A live
        // slot whose carrying lane the guard masked off was cut by
        // predication. Shared destinations skip the bit check: the
        // instruction itself just rewrote the register.
        for s in &spec.srcs {
            let is_dest = spec.dest.is_some_and(|d| d.reg == s.reg);
            let Some(slot) = bs.slot(ctx.warp, s.reg) else {
                continue;
            };
            let reason = if !is_dest && s.read_bits(ctx, slot.lane as u32) != slot.real {
                KillReason::Overwrite
            } else if off & (1u32 << slot.lane) != 0 {
                KillReason::Predicate
            } else {
                continue;
            };
            recs.push(rec(
                KIND_KILL,
                slot.class,
                Some(reason),
                slot.lane,
                s.reg,
                None,
            ));
            bs.kill_slot(ctx.warp, s.reg);
        }

        // Step 2: destination write.
        if let Some(d) = spec.dest {
            let exc = d.exceptional_lanes(ctx, ctx.guarded_mask);
            if exc != 0 {
                let lane = exc.trailing_zeros();
                let class = d.classify(ctx, lane);
                // Parent lineage: first still-live source register in
                // operand order (the destination itself counts when
                // the instruction shares it with a source).
                let live = bs.warp(ctx.warp);
                let parent = spec
                    .srcs
                    .iter()
                    .map(|s| s.reg)
                    .find(|r| live.is_some_and(|m| m.contains(*r)));
                if let Some(old) = bs.slot(ctx.warp, d.reg) {
                    // A new lineage replaced the old occupant of this
                    // register (even if the old carrying lane was
                    // predicated off: single slot per register).
                    if parent != Some(d.reg) {
                        let reason = Some(KillReason::Overwrite);
                        recs.push(rec(KIND_KILL, old.class, reason, old.lane, d.reg, None));
                    }
                }
                let kind = if parent.is_some() {
                    KIND_PROP
                } else {
                    KIND_BIRTH
                };
                recs.push(rec(kind, class, None, lane as u8, d.reg, parent));
                let real = d.read_bits(ctx, lane);
                let slot = LiveSlot {
                    lane: lane as u8,
                    class,
                    real,
                };
                bs.set_slot(ctx.warp, d.reg, slot);
            } else if let Some(old) = bs.slot(ctx.warp, d.reg) {
                if ctx.guarded_mask & (1u32 << old.lane) != 0 {
                    // Clean writeback over a live lineage on an
                    // executing lane: attribute the kill to the
                    // conversion or the FTZ flush when one explains
                    // it, else a plain clean overwrite.
                    let reason = if spec.cvt {
                        KillReason::Cvt
                    } else if spec.ftz && old.class == RegClass::Sub && spec.shared {
                        KillReason::Ftz
                    } else {
                        KillReason::Overwrite
                    };
                    recs.push(rec(
                        KIND_KILL,
                        old.class,
                        Some(reason),
                        old.lane,
                        d.reg,
                        None,
                    ));
                    bs.kill_slot(ctx.warp, d.reg);
                }
                // Carrying lane not written (predicated off at the
                // dest): the value survives in the register.
            }
        }

        // Hit ordinals + capture, counted under the block lock in
        // stage order — exactly what the drain merge reproduces.
        for _ in &recs {
            let n = bs.hits.entry((ctx.warp, self.loc)).or_insert(0);
            let ord = *n;
            *n += 1;
            if let Some(t) = &self.shared.capture {
                if t.launch == launch
                    && t.block == block
                    && t.warp == warp8
                    && t.loc == self.loc
                    && t.nth == ord
                {
                    let mut dump = self.shared.dump.lock();
                    if dump.is_none() {
                        *dump = Some(build_dump(ctx, spec, bs, self.loc, launch));
                    }
                }
            }
        }
        if !recs.is_empty() {
            self.shared
                .emitted
                .fetch_add(recs.len() as u64, Ordering::Relaxed);
            let mut stall = 0;
            for rec in &recs {
                stall += ctx.channel.stage(rec);
            }
            ctx.clock.charge(stall);
        }
        bs.recs = recs;
    }
}

/// The exception-flow coach, as an NVBit tool.
pub struct Coach {
    cfg: CoachConfig,
    shared: Arc<CoachShared>,
    locs: Arc<Mutex<LocationTable>>,
    report: CoachReport,
    /// ⟨launch, block, warp, register⟩ → timeline currently carried there.
    live_tl: HashMap<(u16, u16, u8, u8), usize>,
    /// Live-register reference count per timeline (a propagation into a
    /// second register keeps the source's reference).
    refs: Vec<u32>,
    /// ⟨launch, block, warp, site⟩ → events seen, in drain order.
    hit_ord: HashMap<(u16, u16, u8, u16), u32>,
    /// Global occurrence counter, in drain order.
    occ: u64,
    /// Events stored into timelines (the `max_events` basis).
    appended: usize,
    /// Memoized (kernel, sass, where) strings per site.
    site_memo: HashMap<u16, (String, String, String)>,
}

impl Coach {
    pub fn new(cfg: CoachConfig) -> Self {
        Coach {
            shared: Arc::new(CoachShared {
                state: Mutex::new(HashMap::new()),
                capture: cfg.capture,
                dump: Mutex::new(None),
                emitted: AtomicU64::new(0),
            }),
            cfg,
            locs: Arc::new(Mutex::new(LocationTable::new())),
            report: CoachReport::default(),
            live_tl: HashMap::new(),
            refs: Vec::new(),
            hit_ord: HashMap::new(),
            occ: 0,
            appended: 0,
            site_memo: HashMap::new(),
        }
    }

    pub fn report(&self) -> &CoachReport {
        &self.report
    }

    pub fn into_report(self) -> CoachReport {
        self.report
    }

    /// The state snapshot captured at the configured [`CaptureTarget`],
    /// if the target fired.
    pub fn take_dump(&self) -> Option<StateDump> {
        self.shared.dump.lock().take()
    }

    /// Flush the coach's counters into an observability registry
    /// (suggestions are counted by the driver, which ranks them).
    pub fn snapshot_into(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.add(
            Counter::CoachEvents,
            self.shared.emitted.load(Ordering::Relaxed),
        );
        obs.add(Counter::CoachTimelines, self.report.timelines.len() as u64);
        obs.add(Counter::CoachKills, self.report.kills() as u64);
    }

    fn site(&mut self, loc: u16) -> (String, String, String) {
        let locs = &self.locs;
        self.site_memo
            .entry(loc)
            .or_insert_with(|| match locs.lock().resolve(loc) {
                Some(site) => (site.kernel.clone(), site.sass.clone(), site.where_str()),
                None => ("unknown".into(), String::new(), String::new()),
            })
            .clone()
    }

    #[allow(clippy::too_many_arguments)]
    fn append_event(
        &mut self,
        id: usize,
        kind: EventKind,
        class: RegClass,
        occ: u64,
        launch: u16,
        loc: u16,
        block: u16,
        warp: u8,
        lane: u8,
        reg: u8,
        src_reg: Option<u8>,
        hit: u32,
    ) {
        let (kernel, sass, where_str) = self.site(loc);
        let t = &mut self.report.timelines[id];
        t.events.push(TimelineEvent {
            kind,
            class,
            occ,
            step: t.events.len() as u32,
            launch,
            loc,
            kernel,
            sass,
            where_str,
            block,
            warp,
            lane,
            reg,
            src_reg,
            hit,
        });
        self.appended += 1;
    }
}

impl NvbitTool for Coach {
    fn on_kernel_launch(&mut self, _ctx: &mut LaunchCtx, _kernel: &KernelCode) {
        // Registers are fresh per launch: live slots must not carry over
        // (blocks reuse ids across launches), and hit ordinals are
        // per-launch — matching the host's launch-keyed counters.
        self.shared.state.lock().clear();
    }

    fn instrument_instruction(
        &mut self,
        kernel: &KernelCode,
        pc: u32,
        instr: &Instruction,
        inserter: &mut Inserter<'_>,
    ) {
        let Some(spec) = CoachSpec::from_instr(instr) else {
            return;
        };
        let loc = self
            .locs
            .lock()
            .intern(&kernel.name, pc, instr.sass(), instr.loc.clone());
        let args = spec.runtime_args();
        inserter.insert_call_phased(
            When::After,
            Phase::Observe,
            Arc::new(CoachFn {
                shared: self.shared.clone(),
                spec: Arc::new(spec),
                loc,
                args,
            }),
        );
    }

    fn on_channel_record(&mut self, record: &[u8]) -> u64 {
        if record.len() != REC_LEN {
            return 0;
        }
        let kind = record[0];
        let class = class_from_code(record[1]);
        let reason = reason_from_code(record[2]);
        let loc = u16::from_le_bytes([record[3], record[4]]);
        let block = u16::from_le_bytes([record[5], record[6]]);
        let warp = record[7];
        let lane = record[8];
        let reg = record[9];
        let src_reg = (record[10] != NO_REG).then_some(record[10]);
        let launch = u16::from_le_bytes([record[11], record[12]]);

        let occ = self.occ;
        self.occ += 1;
        self.report.events += 1;
        let hit = {
            let n = self.hit_ord.entry((launch, block, warp, loc)).or_insert(0);
            let ord = *n;
            *n += 1;
            ord
        };
        let room = self.appended < self.cfg.max_events;
        let key = |r: u8| (launch, block, warp, r);

        match kind {
            KIND_BIRTH => {
                if !room {
                    self.report.dropped += 1;
                    return fpx_nvbit::overhead::HOST_REPORT_LINE;
                }
                let id = self.report.timelines.len();
                self.report.timelines.push(Timeline {
                    id,
                    events: Vec::new(),
                    outcome: TimelineOutcome::StillLive,
                });
                self.refs.push(1);
                // The killed occupant of this register (if any) was
                // removed by its own kill record, staged first.
                self.live_tl.insert(key(reg), id);
                self.append_event(
                    id,
                    EventKind::Birth,
                    class,
                    occ,
                    launch,
                    loc,
                    block,
                    warp,
                    lane,
                    reg,
                    None,
                    hit,
                );
            }
            KIND_PROP => {
                let src = match src_reg {
                    Some(s) => s,
                    None => {
                        self.report.dropped += 1;
                        return fpx_nvbit::overhead::HOST_REPORT_LINE;
                    }
                };
                let Some(&id) = self.live_tl.get(&key(src)) else {
                    // The source lineage was dropped past the cap.
                    self.report.dropped += 1;
                    return fpx_nvbit::overhead::HOST_REPORT_LINE;
                };
                if !room {
                    self.report.dropped += 1;
                    return fpx_nvbit::overhead::HOST_REPORT_LINE;
                }
                match self.live_tl.insert(key(reg), id) {
                    Some(old) if old != id => {
                        // Defensive: the device kills the old occupant
                        // before a new lineage lands, so this arm should
                        // be unreachable; keep the refcounts consistent.
                        self.refs[old] = self.refs[old].saturating_sub(1);
                    }
                    Some(_) => {}
                    None => self.refs[id] += 1,
                }
                self.append_event(
                    id,
                    EventKind::Propagate,
                    class,
                    occ,
                    launch,
                    loc,
                    block,
                    warp,
                    lane,
                    reg,
                    Some(src),
                    hit,
                );
            }
            KIND_KILL => {
                let Some(r) = reason else {
                    return 0;
                };
                let Some(id) = self.live_tl.remove(&key(reg)) else {
                    self.report.dropped += 1;
                    return fpx_nvbit::overhead::HOST_REPORT_LINE;
                };
                self.refs[id] = self.refs[id].saturating_sub(1);
                if self.refs[id] == 0 {
                    self.report.timelines[id].outcome = TimelineOutcome::Killed(r);
                }
                if room {
                    self.append_event(
                        id,
                        EventKind::Kill(r),
                        class,
                        occ,
                        launch,
                        loc,
                        block,
                        warp,
                        lane,
                        reg,
                        None,
                        hit,
                    );
                } else {
                    self.report.dropped += 1;
                }
            }
            _ => return 0,
        }
        fpx_nvbit::overhead::HOST_REPORT_LINE
    }

    fn on_term(&mut self, _ctx: &mut ToolCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_nvbit::Nvbit;
    use fpx_sass::assemble_kernel;
    use fpx_sim::gpu::{Arch, Gpu, LaunchConfig, ParamValue};

    fn run_cfg(cfg: CoachConfig, src: &str, params: Vec<ParamValue>) -> Coach {
        let k = Arc::new(assemble_kernel(src).unwrap());
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), Coach::new(cfg));
        nv.launch(&k, &LaunchConfig::new(1, 32, params)).unwrap();
        nv.terminate();
        nv.tool
    }

    fn run(src: &str) -> CoachReport {
        run_cfg(CoachConfig::default(), src, vec![]).into_report()
    }

    #[test]
    fn birth_then_clean_overwrite_closes_the_timeline() {
        let rep = run(r#"
.kernel k
    MOV32I R0, 0x7f000000 ;
    FMUL R1, R0, R0 ;
    FADD R1, RZ, 1.0 ;
    EXIT ;
"#);
        assert_eq!(rep.timelines.len(), 1, "{rep:#?}");
        let t = &rep.timelines[0];
        assert_eq!(t.birth().kind, EventKind::Birth);
        assert_eq!(t.birth().class, RegClass::Inf);
        assert_eq!(t.birth().reg, 1);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[1].kind, EventKind::Kill(KillReason::Overwrite));
        assert_eq!(t.outcome, TimelineOutcome::Killed(KillReason::Overwrite));
        assert_eq!(rep.events, 2);
    }

    #[test]
    fn propagation_joins_the_source_timeline_and_keeps_it_live() {
        let rep = run(r#"
.kernel k
    MOV32I R0, 0x7f000000 ;
    FMUL R1, R0, R0 ;
    FMUL R2, R1, R0 ;
    EXIT ;
"#);
        assert_eq!(rep.timelines.len(), 1, "{rep:#?}");
        let t = &rep.timelines[0];
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[1].kind, EventKind::Propagate);
        assert_eq!(t.events[1].reg, 2);
        assert_eq!(t.events[1].src_reg, Some(1));
        assert_eq!(t.outcome, TimelineOutcome::StillLive, "R1 and R2 both live");
        assert_eq!(rep.still_live(), 1);
    }

    #[test]
    fn shared_register_propagation_stays_one_timeline() {
        // FADD R1, R1, 1.0 with NaN R1: the lineage flows through the
        // shared register without splitting or dying.
        let rep = run(r#"
.kernel k
    FADD R1, RZ, +QNAN ;
    FADD R1, R1, 1.0 ;
    EXIT ;
"#);
        assert_eq!(rep.timelines.len(), 1, "{rep:#?}");
        let t = &rep.timelines[0];
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[1].kind, EventKind::Propagate);
        assert_eq!(t.events[1].src_reg, Some(1));
        assert_eq!(t.outcome, TimelineOutcome::StillLive);
    }

    #[test]
    fn lazy_overwrite_kill_at_the_next_fp_touch() {
        // MOV32I rewrites the INF register; the coach notices at the
        // next FP instruction reading it (documented lazy policy).
        let rep = run(r#"
.kernel k
    MOV32I R0, 0x7f000000 ;
    FMUL R1, R0, R0 ;
    MOV32I R1, 0x3f800000 ;
    FMUL R2, R1, R0 ;
    EXIT ;
"#);
        assert_eq!(rep.timelines.len(), 1, "{rep:#?}");
        let t = &rep.timelines[0];
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[1].kind, EventKind::Kill(KillReason::Overwrite));
        assert!(
            t.events[1].sass.contains("FMUL R2"),
            "kill noticed at the reader: {:?}",
            t.events[1].sass
        );
        assert_eq!(t.outcome, TimelineOutcome::Killed(KillReason::Overwrite));
    }

    #[test]
    fn ftz_flush_kill_reason() {
        // A subnormal product, then a shared-dest `.FTZ` add flushes it.
        let rep = run(r#"
.kernel k
    MOV32I R0, 0x1f800000 ;
    FMUL R1, R0, R0 ;
    FADD.FTZ R1, R1, R1 ;
    EXIT ;
"#);
        assert_eq!(rep.timelines.len(), 1, "{rep:#?}");
        let t = &rep.timelines[0];
        assert_eq!(t.birth().class, RegClass::Sub);
        assert_eq!(t.events[1].kind, EventKind::Kill(KillReason::Ftz));
        assert_eq!(rep.kill_counts().get(&KillReason::Ftz), Some(&1));
    }

    #[test]
    fn cvt_truncation_kill_reason() {
        // DADD births an FP64 subnormal lineage in R4; F2F.F32.F64
        // narrows R4's pair into R4's low word — a clean word where the
        // pair lineage lived. The conversion takes the blame.
        let rep = run_cfg(
            CoachConfig::default(),
            r#"
.kernel k
    LDC.64 R2, c[0x0][0x160] ;
    DADD R4, R2, R2 ;
    F2F.F32.F64 R4, R4 ;
    EXIT ;
"#,
            vec![ParamValue::F64(1e-310)],
        )
        .into_report();
        let kills = rep.kill_counts();
        assert_eq!(kills.get(&KillReason::Cvt), Some(&1), "{rep:#?}");
    }

    #[test]
    fn predicate_kill_when_the_carrying_lane_is_masked_off() {
        // Lane 0 carries the NaN; `@P0` (lane != 0) executes everywhere
        // else, so the flow is cut by predication.
        let rep = run(r#"
.kernel k
    FADD R4, RZ, +QNAN ;
    MOV32I R5, 0x3f800000 ;
    S2R R0, SR_LANEID ;
    ISETP.NE.AND P0, R0, 0x0 ;
    @P0 FADD R1, R4, R5 ;
    EXIT ;
"#);
        let t = rep
            .timelines
            .iter()
            .find(|t| t.birth().reg == 4)
            .expect("R4 timeline");
        assert_eq!(t.events[1].kind, EventKind::Kill(KillReason::Predicate));
        assert_eq!(t.events[1].lane, 0, "the masked-off carrying lane");
    }

    #[test]
    fn clean_kernel_has_no_timelines() {
        let rep = run(r#"
.kernel k
    MOV32I R0, 0x3f800000 ;
    FADD R1, R0, R0 ;
    FMUL R2, R1, R1 ;
    EXIT ;
"#);
        assert!(rep.timelines.is_empty(), "{rep:#?}");
        assert_eq!(rep.events, 0);
    }

    #[test]
    fn launches_do_not_leak_lineage() {
        let src = r#"
.kernel k
    MOV32I R0, 0x7f000000 ;
    FMUL R1, R0, R0 ;
    EXIT ;
"#;
        let k = Arc::new(assemble_kernel(src).unwrap());
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), Coach::new(CoachConfig::default()));
        nv.launch(&k, &LaunchConfig::new(1, 32, vec![])).unwrap();
        nv.launch(&k, &LaunchConfig::new(1, 32, vec![])).unwrap();
        nv.terminate();
        let rep = nv.tool.into_report();
        // One birth per launch: state was cleared, so the second launch
        // births a fresh timeline instead of propagating the first.
        assert_eq!(rep.timelines.len(), 2, "{rep:#?}");
        assert_eq!(rep.timelines[0].events.len(), 1);
        assert_eq!(rep.timelines[1].events.len(), 1);
        assert_eq!(rep.timelines[0].birth().launch, 0);
        assert_eq!(rep.timelines[1].birth().launch, 1);
    }

    #[test]
    fn event_cap_drops_and_counts() {
        let rep = run_cfg(
            CoachConfig {
                max_events: 1,
                ..CoachConfig::default()
            },
            r#"
.kernel k
    MOV32I R0, 0x7f000000 ;
    FMUL R1, R0, R0 ;
    FMUL R2, R1, R0 ;
    FMUL R3, R2, R0 ;
    EXIT ;
"#,
            vec![],
        )
        .into_report();
        assert_eq!(rep.timelines.len(), 1);
        assert_eq!(rep.timelines[0].events.len(), 1);
        assert!(rep.dropped >= 2, "{rep:#?}");
        assert_eq!(rep.events, 3, "all records still counted");
    }

    #[test]
    fn capture_target_snapshots_warp_state() {
        let src = r#"
.kernel k
    MOV32I R0, 0x7f000000 ;
    FMUL R1, R0, R0 ;
    FMUL R2, R1, R0 ;
    EXIT ;
"#;
        let first = run(src);
        let prop = &first.timelines[0].events[1];
        assert_eq!(prop.kind, EventKind::Propagate);
        let tool = run_cfg(
            CoachConfig {
                capture: Some(CaptureTarget::for_event(prop)),
                ..CoachConfig::default()
            },
            src,
            vec![],
        );
        let dump = tool.take_dump().expect("capture fired");
        assert_eq!(dump.kernel, "k");
        assert_eq!(dump.warp, 0);
        let dest = &dump.regs[0];
        assert!(dest.is_dest);
        assert_eq!(dest.reg, 2);
        assert!(dest.lanes.iter().all(|l| l.class == RegClass::Inf));
        // Both R1 and R2 carry the lineage at the capture point.
        let live_regs: Vec<u8> = dump.live.iter().map(|l| l.reg).collect();
        assert_eq!(live_regs, vec![1, 2]);
    }

    #[test]
    fn hit_ordinals_count_per_site() {
        // The same site fires twice (two warps... single warp loop-free:
        // use two launches instead — ordinals restart per launch).
        let src = r#"
.kernel k
    MOV32I R0, 0x7f000000 ;
    FMUL R1, R0, R0 ;
    EXIT ;
"#;
        let k = Arc::new(assemble_kernel(src).unwrap());
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), Coach::new(CoachConfig::default()));
        nv.launch(&k, &LaunchConfig::new(1, 32, vec![])).unwrap();
        nv.launch(&k, &LaunchConfig::new(1, 32, vec![])).unwrap();
        nv.terminate();
        let rep = nv.tool.into_report();
        assert_eq!(rep.timelines[0].birth().hit, 0);
        assert_eq!(
            rep.timelines[1].birth().hit,
            0,
            "hit ordinals are per launch"
        );
    }

    #[test]
    fn capture_lists_only_its_own_warps_live_lineage() {
        // Two warps carry INF lineages in interleaved registers: warp 0
        // in R2 and R5, warp 1 in R4 then R3. The dump captured at warp
        // 1's propagation must list warp 1's registers alone, in
        // register order.
        let src = r#"
.kernel k
    S2R R0, SR_TID.X ;
    ISETP.GE.AND P0, R0, 0x20 ;
    MOV32I R1, 0x7f000000 ;
    @!P0 FMUL R2, R1, R1 ;
    @!P0 FMUL R5, R2, R1 ;
    @P0 FMUL R4, R1, R1 ;
    @P0 FMUL R3, R4, R1 ;
    EXIT ;
"#;
        let k = Arc::new(assemble_kernel(src).unwrap());
        let launch = |cfg: CoachConfig| {
            let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), Coach::new(cfg));
            nv.launch(&k, &LaunchConfig::new(1, 64, vec![])).unwrap();
            nv.terminate();
            nv.tool
        };
        let rep = launch(CoachConfig::default()).into_report();
        assert_eq!(rep.timelines.len(), 2, "{rep:#?}");
        let prop = rep
            .timelines
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.kind == EventKind::Propagate && e.warp == 1)
            .expect("warp 1 propagates R4 into R3");
        let tool = launch(CoachConfig {
            capture: Some(CaptureTarget::for_event(prop)),
            ..CoachConfig::default()
        });
        let dump = tool.take_dump().expect("capture fired");
        assert_eq!(dump.warp, 1);
        let live: Vec<(u8, u8, RegClass)> =
            dump.live.iter().map(|l| (l.reg, l.lane, l.class)).collect();
        assert_eq!(live, vec![(3, 0, RegClass::Inf), (4, 0, RegClass::Inf)]);
    }
}
