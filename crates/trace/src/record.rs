//! Recording: run a program **once** under an instrumented simulation and
//! capture every instrumented-instruction visit, plus per-launch and
//! per-block plain-execution cycle baselines derived from the same pass.
//!
//! The recorder instruments the *union* of the sites any supported tool
//! would instrument — every `is_fp_instrumented` instruction — and
//! captures the raw bits of every register any tool's injected function
//! would read ([`referenced_regs`]). Replay can therefore drive the
//! detector, the analyzer, or BinFPE from one recording.
//!
//! # Single-pass cycle derivation
//!
//! The recorder's injected functions charge **nothing** themselves (no
//! channel pushes, no stalls) and declare zero runtime arguments, so the
//! only cycle difference between the recording pass and a plain
//! uninstrumented run is the engine's fixed `injected_call` charge per
//! injection invocation — and every invocation produces exactly one
//! recorded visit. The plain baselines the trace stores are therefore
//! exact by subtraction:
//!
//! ```text
//! plain_block  = measured_block  − injected_call × visits_in_block
//! plain_launch = measured_launch − injected_call × visits_in_launch
//! ```
//!
//! This holds because a serial launch's cycles are charged exclusively by
//! block execution (`run_block` is the only charger between the launch's
//! start and end), the injected functions never mutate simulated state
//! (identical control flow and instruction mix), and the engine invokes
//! injections unconditionally — even for fully predicated-off warps — so
//! the visit count *is* the invocation count.
//!
//! Recording runs serially (`threads = 1`), so the order visits are
//! collected in is exactly the block-by-block order a serial live run's
//! ⟨launch, block, seq⟩ channel merge produces — the order replay
//! re-executes them in.

use crate::format::{kernel_checksum, KernelMeta, LaunchTrace, Trace, Visit, Visits};
use fpx_nvbit::tool::Inserter;
use fpx_sass::instr::Instruction;
use fpx_sass::kernel::KernelCode;
use fpx_sass::operand::{Operand, RZ};
use fpx_sass::types::{row_exceptional_f16, row_exceptional_f32, row_exceptional_f64, FpFormat};
use fpx_sim::exec::{lanes_of, SimError};
use fpx_sim::gpu::{Arch, Gpu, LaunchConfig};
use fpx_sim::hooks::{
    DeviceFn, HostChannel, InjectionCtx, InstrumentedCode, Phase, PushOrigin, When,
};
use fpx_sim::warp::WarpLanes;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// How one referenced register slot is interpreted when classifying
/// values for the trace's `exceptional` flag (mirrors the analyzer's
/// slot formats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotFmt {
    F32,
    /// FP64 pair `(r, r+1)`.
    F64Pair,
    /// `64H` high word: pair `(r-1, r)`.
    F64Hi,
    F16,
}

/// One register slot an instrumented instruction's tools may read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSlot {
    pub reg: u8,
    pub fmt: SlotFmt,
}

impl RegSlot {
    /// The `active` lanes whose value in this slot is NaN, INF or
    /// subnormal. Pair partners saturate like [`referenced_regs`], so the
    /// rows read are exactly the recorded registers.
    fn exceptional_lanes(&self, lanes: &WarpLanes, active: u32) -> u32 {
        match self.fmt {
            SlotFmt::F32 => row_exceptional_f32(lanes.reg_row(self.reg), active),
            SlotFmt::F16 => row_exceptional_f16(lanes.reg_row(self.reg), active),
            SlotFmt::F64Pair => row_exceptional_f64(
                lanes.reg_row(self.reg),
                lanes.reg_row(self.reg.saturating_add(1)),
                active,
            ),
            SlotFmt::F64Hi => row_exceptional_f64(
                lanes.reg_row(self.reg.saturating_sub(1)),
                lanes.reg_row(self.reg),
                active,
            ),
        }
    }
}

/// The register slots (dest first, then register sources) any tool's
/// injected function reads at `instr` — the union of the detector's
/// check registers, the analyzer's operand slots, and BinFPE's
/// destination reads. Empty when the instruction is not an
/// instrumentation site.
pub fn referenced_slots(instr: &Instruction) -> Vec<RegSlot> {
    let op = instr.opcode.base;
    if !op.is_fp_instrumented() {
        return Vec::new();
    }
    let fmt = match (op.fp_format().unwrap_or(FpFormat::Fp32), op.is_64h()) {
        (FpFormat::Fp64, true) => SlotFmt::F64Hi,
        (FpFormat::Fp64, false) => SlotFmt::F64Pair,
        (FpFormat::Fp16, _) => SlotFmt::F16,
        _ => SlotFmt::F32,
    };
    let mut slots = Vec::new();
    if let Some(rd) = instr.dest_reg() {
        if rd != RZ {
            slots.push(RegSlot { reg: rd, fmt });
        }
    }
    for opnd in instr.src_operands() {
        if let Operand::Reg { num, .. } = opnd {
            if *num != RZ {
                slots.push(RegSlot { reg: *num, fmt });
            }
        }
    }
    slots
}

/// The deduplicated register list recorded for (and replayed into) one
/// visit of `instr`, in canonical slot-expansion order. Recorder and
/// replayer both derive this from the instruction, so values need no
/// per-register keys on the wire.
pub fn referenced_regs(instr: &Instruction) -> Vec<u8> {
    let mut regs: Vec<u8> = Vec::new();
    for slot in referenced_slots(instr) {
        let expanded: &[u8] = match slot.fmt {
            SlotFmt::F64Pair => &[slot.reg, slot.reg.saturating_add(1)],
            SlotFmt::F64Hi => &[slot.reg.saturating_sub(1), slot.reg],
            SlotFmt::F32 | SlotFmt::F16 => &[slot.reg],
        };
        for &r in expanded {
            if !regs.contains(&r) {
                regs.push(r);
            }
        }
    }
    regs
}

/// Shared state between the recording pass's injected functions and the
/// launch loop: the visit stream (in execution order) and the per-block
/// cycle samples delivered by the simulator's `block_done` hook.
#[derive(Default)]
struct RecordSink {
    visits: Mutex<Visits>,
    blocks: Mutex<Vec<(u32, u64)>>,
}

impl RecordSink {
    fn take_visits(&self) -> Visits {
        std::mem::take(&mut *self.visits.lock().expect("recorder poisoned"))
    }

    /// Per-block cycles sorted by block id.
    fn take_blocks(&self) -> Vec<u64> {
        let mut s = std::mem::take(&mut *self.blocks.lock().expect("recorder poisoned"));
        s.sort_by_key(|&(block, _)| block);
        s.into_iter().map(|(_, c)| c).collect()
    }
}

impl HostChannel for RecordSink {
    fn push_from(&self, _origin: PushOrigin, _bytes: &[u8], _wire: usize) -> u64 {
        0
    }

    fn block_done(&self, _launch: u64, block: u32, cycles: u64) {
        self.blocks
            .lock()
            .expect("recorder poisoned")
            .push((block, cycles));
    }
}

/// The recorder's injected function: classifies the referenced slots
/// and appends one visit to the sink, its values copied straight from
/// the register rows. Charges nothing and pushes nothing through the
/// channel — the engine's fixed per-invocation `injected_call` charge
/// (zero runtime arguments) is the recording pass's *entire* overhead,
/// which [`TraceRecorder`] subtracts back out.
struct RecordFn {
    when: When,
    regs: Arc<[u8]>,
    slots: Arc<[RegSlot]>,
    sink: Arc<RecordSink>,
}

impl DeviceFn for RecordFn {
    fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
        let guarded = ctx.guarded_mask;
        let lanes = &*ctx.lanes;
        let exceptional = self
            .slots
            .iter()
            .any(|s| s.exceptional_lanes(lanes, guarded) != 0);
        let head = Visit {
            pc: ctx.pc,
            when: self.when,
            block: ctx.block,
            warp: ctx.warp as u8,
            exec_mask: ctx.exec_mask,
            guarded_mask: guarded,
            exceptional,
            values: &[],
        };
        let mut visits = self.sink.visits.lock().expect("recorder poisoned");
        let n = self.regs.len() * guarded.count_ones() as usize;
        visits.push_with(head, n, |block| {
            for &r in self.regs.iter() {
                let row = lanes.reg_row(r);
                if guarded == u32::MAX {
                    block.extend_from_slice(row);
                } else {
                    block.extend(lanes_of(guarded).map(|lane| row[lane as usize]));
                }
            }
        });
    }

    fn num_runtime_args(&self) -> u32 {
        0
    }
}

/// Why recording failed.
#[derive(Debug)]
pub enum RecordError {
    /// A launch faulted while recording.
    Sim(SimError),
    /// Two distinct kernels in the program share a name; the trace's
    /// name-keyed kernel table cannot represent that program.
    DuplicateKernelName(String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Sim(e) => write!(f, "simulation failed while recording: {e}"),
            RecordError::DuplicateKernelName(name) => {
                write!(f, "two distinct kernels are both named `{name}`")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<SimError> for RecordError {
    fn from(e: SimError) -> Self {
        RecordError::Sim(e)
    }
}

/// The single-pass recording engine: instruments every FP-instrumented
/// instruction with Before and After [`RecordFn`]s, runs each launch
/// once, and recovers exact plain-execution cycle baselines by
/// subtracting the engine's per-visit injection charge (see the module
/// docs).
pub struct TraceRecorder {
    sink: Arc<RecordSink>,
    kernels: Vec<KernelMeta>,
    kernel_ids: HashMap<String, u32>,
    /// Instrumented code, built once per interned kernel.
    cache: HashMap<u32, Arc<InstrumentedCode>>,
    launches: Vec<LaunchTrace>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    pub fn new() -> Self {
        TraceRecorder {
            sink: Arc::new(RecordSink::default()),
            kernels: Vec::new(),
            kernel_ids: HashMap::new(),
            cache: HashMap::new(),
            launches: Vec::new(),
        }
    }

    fn intern_kernel(&mut self, kernel: &KernelCode) -> Result<u32, RecordError> {
        let meta = KernelMeta {
            name: kernel.name.clone(),
            num_regs: kernel.num_regs,
            num_instrs: kernel.len() as u32,
            checksum: kernel_checksum(kernel),
        };
        if let Some(&id) = self.kernel_ids.get(&kernel.name) {
            // Full-metadata identity, not the 64-bit checksum alone: a
            // colliding checksum must not let a different kernel silently
            // share this trace id.
            if self.kernels[id as usize] != meta {
                return Err(RecordError::DuplicateKernelName(kernel.name.clone()));
            }
            return Ok(id);
        }
        let id = self.kernels.len() as u32;
        self.kernels.push(meta);
        self.kernel_ids.insert(kernel.name.clone(), id);
        Ok(id)
    }

    fn instrumented(&mut self, id: u32, kernel: &Arc<KernelCode>) -> Arc<InstrumentedCode> {
        if let Some(ic) = self.cache.get(&id) {
            return Arc::clone(ic);
        }
        let mut ic = InstrumentedCode::plain(Arc::clone(kernel));
        for pc in 0..kernel.len() as u32 {
            let instr = &kernel.instrs[pc as usize];
            let regs: Arc<[u8]> = referenced_regs(instr).into();
            if regs.is_empty() {
                continue;
            }
            let slots: Arc<[RegSlot]> = referenced_slots(instr).into();
            let mut inserter = Inserter::new(&mut ic, pc);
            inserter.insert_call(
                When::Before,
                Arc::new(RecordFn {
                    when: When::Before,
                    regs: Arc::clone(&regs),
                    slots: Arc::clone(&slots),
                    sink: Arc::clone(&self.sink),
                }),
            );
            inserter.insert_call(
                When::After,
                Arc::new(RecordFn {
                    when: When::After,
                    regs,
                    slots,
                    sink: Arc::clone(&self.sink),
                }),
            );
        }
        let ic = Arc::new(ic);
        self.cache.insert(id, Arc::clone(&ic));
        ic
    }

    /// Run one launch under instrumentation and append its trace. The
    /// launch must run serially (`gpu.threads == 1`) so the collected
    /// visit order matches the serial channel-merge order replay assumes.
    pub fn record_launch(
        &mut self,
        gpu: &mut Gpu,
        kernel: &Arc<KernelCode>,
        cfg: &LaunchConfig,
    ) -> Result<(), RecordError> {
        let id = self.intern_kernel(kernel)?;
        let ic = self.instrumented(id, kernel);
        let call = gpu.cost.injected_call;

        let before = gpu.clock.cycles();
        let sink = Arc::clone(&self.sink);
        gpu.launch_with_channel(&ic, cfg, &*sink)?;
        let measured = gpu.clock.cycles() - before;

        let visits = self.sink.take_visits();
        let measured_blocks = self.sink.take_blocks();
        let mut per_block = vec![0u64; measured_blocks.len()];
        for v in visits.iter() {
            if let Some(n) = per_block.get_mut(v.block as usize) {
                *n += 1;
            }
        }
        let block_cycles = measured_blocks
            .iter()
            .zip(&per_block)
            .map(|(&c, &n)| c - call * n)
            .collect();
        self.launches.push(LaunchTrace {
            kernel: id,
            plain_cycles: measured - call * visits.len() as u64,
            block_cycles,
            visits,
        });
        Ok(())
    }

    /// Like [`TraceRecorder::record_launch`], but with mutate-phase device
    /// functions armed alongside the recorders — so a fault-injection
    /// campaign can record the *mutated* execution for bit-exact replay.
    ///
    /// Mutators run before the recorders at their hook point
    /// ([`Phase::Mutate`] ordering), so recorded visits capture the
    /// injected values. Every mutator must attach to an FP-instrumented
    /// instruction (a recorded site) and declare zero runtime arguments
    /// (the [`DeviceFn`] default): the cycle derivation counts one
    /// extra `injected_call` charge per recorder visit sharing the
    /// mutator's ⟨pc, when⟩, which is exact precisely because mutator and
    /// recorder invocations are then one-to-one. The stored baselines are
    /// the plain cycles of the *mutated* execution — what replay re-drives.
    pub fn record_launch_mutated(
        &mut self,
        gpu: &mut Gpu,
        kernel: &Arc<KernelCode>,
        cfg: &LaunchConfig,
        mutators: &[(u32, When, Arc<dyn DeviceFn>)],
    ) -> Result<(), RecordError> {
        if mutators.is_empty() {
            return self.record_launch(gpu, kernel, cfg);
        }
        let id = self.intern_kernel(kernel)?;
        // Clone the cached observer-only build and splice the mutators in;
        // the per-trial mutated build is never cached.
        let mut ic = (*self.instrumented(id, kernel)).clone();
        for (pc, when, func) in mutators {
            debug_assert!(
                !referenced_regs(&kernel.instrs[*pc as usize]).is_empty(),
                "mutator at pc {pc} targets an unrecorded instruction"
            );
            ic.inject_phased(*pc, *when, Phase::Mutate, Arc::clone(func));
        }
        let call = gpu.cost.injected_call;

        let before = gpu.clock.cycles();
        let sink = Arc::clone(&self.sink);
        gpu.launch_with_channel(&ic, cfg, &*sink)?;
        let measured = gpu.clock.cycles() - before;

        let visits = self.sink.take_visits();
        let measured_blocks = self.sink.take_blocks();
        let mut per_block = vec![0u64; measured_blocks.len()];
        let mut charges_total = 0u64;
        for v in visits.iter() {
            let at_site = mutators
                .iter()
                .filter(|(pc, when, _)| *pc == v.pc && *when == v.when)
                .count() as u64;
            let charges = 1 + at_site;
            charges_total += charges;
            if let Some(n) = per_block.get_mut(v.block as usize) {
                *n += charges;
            }
        }
        let block_cycles = measured_blocks
            .iter()
            .zip(&per_block)
            .map(|(&c, &n)| c - call * n)
            .collect();
        self.launches.push(LaunchTrace {
            kernel: id,
            plain_cycles: measured - call * charges_total,
            block_cycles,
            visits,
        });
        Ok(())
    }

    /// Finish recording and assemble the trace.
    pub fn into_trace(self, arch: Arch, fast_math: bool, program: String) -> Trace {
        Trace {
            arch,
            fast_math,
            program,
            kernels: self.kernels,
            launches: self.launches,
        }
    }
}

/// Record one program execution in a single instrumented pass. `setup`
/// is called once on a fresh GPU: it stages inputs into device memory
/// and returns the launch sequence (it must be deterministic so that a
/// later live comparison run sees the same execution).
pub fn record(
    program: &str,
    arch: Arch,
    fast_math: bool,
    mut setup: impl FnMut(&mut Gpu) -> Vec<(Arc<KernelCode>, LaunchConfig)>,
) -> Result<Trace, RecordError> {
    let mut gpu = Gpu::new(arch);
    let launches = setup(&mut gpu);
    let mut rec = TraceRecorder::new();
    for (kernel, cfg) in &launches {
        rec.record_launch(&mut gpu, kernel, cfg)?;
    }
    Ok(rec.into_trace(arch, fast_math, program.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_sass::assemble_kernel;

    fn div0_kernel() -> Arc<KernelCode> {
        Arc::new(
            assemble_kernel(
                r#"
.kernel div0
    MOV32I R0, 0x0 ;
    MUFU.RCP R1, R0 ;
    FADD R2, R1, 1.0 ;
    EXIT ;
"#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn referenced_regs_cover_dest_and_sources() {
        let k = div0_kernel();
        // MUFU.RCP R1, R0 → dest R1, src R0.
        assert_eq!(referenced_regs(&k.instrs[1]), vec![1, 0]);
        // FADD R2, R1, 1.0 → dest R2, src R1 (immediate has no register).
        assert_eq!(referenced_regs(&k.instrs[2]), vec![2, 1]);
        // MOV32I is not an instrumentation site.
        assert_eq!(referenced_regs(&k.instrs[0]), Vec::<u8>::new());
    }

    #[test]
    fn records_before_and_after_visits_in_order() {
        let k = div0_kernel();
        let trace = record("unit", Arch::Ampere, false, |_gpu| {
            vec![(Arc::clone(&k), LaunchConfig::new(1, 32, vec![]))]
        })
        .unwrap();
        assert_eq!(trace.kernels.len(), 1);
        assert_eq!(trace.kernels[0].name, "div0");
        assert_eq!(trace.launches.len(), 1);
        let l = &trace.launches[0];
        assert!(l.plain_cycles > 0);
        assert_eq!(l.block_cycles.len(), 1);
        // Per-launch and per-block baselines agree (single block).
        assert_eq!(l.plain_cycles, l.block_cycles[0]);
        // Two instrumented instructions × (Before + After).
        assert_eq!(l.visits.len(), 4);
        let visit = |i| l.visits.get(i).expect("recorded visit");
        assert_eq!(visit(0).when, When::Before);
        assert_eq!(visit(1).when, When::After);
        assert_eq!(visit(0).pc, 1);
        assert_eq!(visit(2).pc, 2);
        // After MUFU.RCP of 0, R1 holds +inf in every lane.
        let after_rcp = visit(1);
        assert!(after_rcp.exceptional);
        assert_eq!(after_rcp.values.len(), 32 * 2);
        assert_eq!(after_rcp.values[0], f32::INFINITY.to_bits());
        // Round-trips through the wire format.
        let bytes = trace.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
    }

    #[test]
    fn mutated_recording_captures_injected_values_with_exact_baseline() {
        struct ForceNan;
        impl DeviceFn for ForceNan {
            fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
                for lane in lanes_of(ctx.guarded_mask) {
                    ctx.lanes.set_reg(lane, 1, 0x7fc0_0000);
                }
            }
        }
        let k = div0_kernel();
        let cfg = LaunchConfig::new(1, 32, vec![]);
        let mut gpu = Gpu::new(Arch::Ampere);
        let mut rec = TraceRecorder::new();
        rec.record_launch_mutated(&mut gpu, &k, &cfg, &[(1, When::After, Arc::new(ForceNan))])
            .unwrap();
        let trace = rec.into_trace(Arch::Ampere, false, "unit".into());
        let l = &trace.launches[0];
        // The After-visit at pc 1 sees the forced NaN, not the hardware
        // +inf — the mutator ran before the recorder at the same hook.
        let visit = |i| l.visits.get(i).expect("recorded visit");
        assert_eq!(visit(1).pc, 1);
        assert_eq!(visit(1).values[0], 0x7fc0_0000);
        assert!(visit(1).exceptional);
        // The Before-visit of the next instruction reads the NaN as its
        // source (registers are [dest R2, src R1] per referenced_regs, so
        // R1's 32 lanes follow R2's).
        assert_eq!(visit(2).pc, 2);
        assert_eq!(visit(2).values[32], 0x7fc0_0000);
        // Baseline subtraction stays exact despite the extra mutator
        // charge at pc 1 (mutation changes no control flow here).
        let mut plain_gpu = Gpu::new(Arch::Ampere);
        plain_gpu
            .launch(&InstrumentedCode::plain(Arc::clone(&k)), &cfg)
            .unwrap();
        assert_eq!(l.plain_cycles, plain_gpu.clock.cycles());
    }

    #[test]
    fn derived_baseline_matches_a_plain_run() {
        let k = div0_kernel();
        let trace = record("unit", Arch::Ampere, false, |_gpu| {
            vec![(Arc::clone(&k), LaunchConfig::new(4, 64, vec![]))]
        })
        .unwrap();
        // Independent plain run of the same launch.
        let mut gpu = Gpu::new(Arch::Ampere);
        let plain = InstrumentedCode::plain(Arc::clone(&k));
        gpu.launch(&plain, &LaunchConfig::new(4, 64, vec![]))
            .unwrap();
        let l = &trace.launches[0];
        assert_eq!(l.plain_cycles, gpu.clock.cycles());
        assert_eq!(l.block_cycles.iter().sum::<u64>(), l.plain_cycles);
        assert_eq!(l.block_cycles.len(), 4);
    }
}
