//! The warp interpreter: lockstep SIMT execution of SASS with divergence,
//! predication, and instrumentation callbacks.

use crate::fpu;
use crate::hooks::{ChannelPort, InjectionCtx, InstrumentedCode, When};
use crate::mem::{ConstBanks, DeviceMemory, MemFault};
use crate::timing::{Clock, CostModel};
use crate::warp::{SyncFrame, WarpControl, WarpLanes};
use crate::WARP_SIZE;
use fpx_sass::instr::Instruction;
use fpx_sass::op::{BaseOp, MemWidth, SpecialReg};
use fpx_sass::operand::Operand;
use fpx_sass::types::{f16_to_f32, f32_to_f16};

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Out-of-bounds device memory access.
    MemFault {
        kernel: String,
        pc: u32,
        fault: MemFault,
    },
    /// The launch exceeded the watchdog cycle budget (models the hangs the
    /// paper observed with BinFPE's undeduplicated channel traffic).
    Watchdog { cycles: u64 },
    /// A divergent branch executed with no enclosing `SSY` frame.
    NoSyncFrame { kernel: String, pc: u32 },
    /// Malformed instruction or operand for its opcode.
    BadInstr {
        kernel: String,
        pc: u32,
        msg: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MemFault { kernel, pc, fault } => {
                write!(f, "[{kernel}:{pc}] {fault}")
            }
            SimError::Watchdog { cycles } => {
                write!(
                    f,
                    "watchdog: launch exceeded {cycles} simulated cycles (hang)"
                )
            }
            SimError::NoSyncFrame { kernel, pc } => {
                write!(f, "[{kernel}:{pc}] divergent branch without SSY frame")
            }
            SimError::BadInstr { kernel, pc, msg } => write!(f, "[{kernel}:{pc}] {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Why a warp stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All lanes exited.
    Done,
    /// The warp reached a block-wide barrier (`BAR.SYNC`).
    Barrier,
}

enum PathEnd {
    Continue,
    WarpDone,
}

/// Identity of a warp within a launch, used for `S2R` and reports.
#[derive(Debug, Clone, Copy)]
pub struct WarpIds {
    pub block: u32,
    pub warp: u32,
    /// Threads per block.
    pub ntid: u32,
}

/// Per-launch statistics (the raw material of the slowdown metric).
///
/// Every field is a schedule-free total: per-warp-instruction increments
/// summed over blocks, so parallel workers' stats merge (via [`add`])
/// into exactly the serial run's numbers.
///
/// [`add`]: ExecStats::add
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Warp-instructions executed.
    pub warp_instrs: u64,
    /// Cycles charged for issuing the executed warp-instructions
    /// themselves — everything but injected calls, channel pushes and the
    /// host-side charges of the NVBit layer. Tools never change what a
    /// program executes, so an instrumented launch's `issue_cycles` is
    /// exactly the `cycles` of the same launch run plain.
    pub issue_cycles: u64,
    /// Warp-instructions that GPU-FPX would instrument.
    pub fp_warp_instrs: u64,
    /// FP32-class warp-instructions (Algorithm 1's "FP32 prefix" bucket).
    pub fp32_warp_instrs: u64,
    /// FP64-class warp-instructions.
    pub fp64_warp_instrs: u64,
    /// FP16-class warp-instructions.
    pub fp16_warp_instrs: u64,
    /// Injected device-function calls performed.
    pub injected_calls: u64,
    /// Cycles charged for injected calls (call overhead + argument
    /// staging, not the work the injected function itself charges).
    pub injected_cycles: u64,
    /// Subset of `injected_calls` that were shadow-sanitizer hooks
    /// (`DeviceFn::is_shadow`), split out for `shadow`-phase attribution.
    pub shadow_calls: u64,
    /// Subset of `injected_cycles` charged for shadow-sanitizer hooks.
    pub shadow_cycles: u64,
    /// Subset of `injected_calls` that were coach lineage hooks
    /// (`DeviceFn::is_coach`), split out for `coach`-phase attribution.
    pub coach_calls: u64,
    /// Subset of `injected_cycles` charged for coach lineage hooks.
    pub coach_cycles: u64,
}

impl ExecStats {
    pub fn add(&mut self, other: &ExecStats) {
        self.warp_instrs += other.warp_instrs;
        self.issue_cycles += other.issue_cycles;
        self.fp_warp_instrs += other.fp_warp_instrs;
        self.fp32_warp_instrs += other.fp32_warp_instrs;
        self.fp64_warp_instrs += other.fp64_warp_instrs;
        self.fp16_warp_instrs += other.fp16_warp_instrs;
        self.injected_calls += other.injected_calls;
        self.injected_cycles += other.injected_cycles;
        self.shadow_calls += other.shadow_calls;
        self.shadow_cycles += other.shadow_cycles;
        self.coach_calls += other.coach_calls;
        self.coach_cycles += other.coach_cycles;
    }
}

/// Shared memory of one block.
pub struct SharedMem {
    bytes: Vec<u8>,
}

impl SharedMem {
    pub fn new(size: u32) -> Self {
        SharedMem {
            bytes: vec![0u8; size as usize],
        }
    }

    /// Re-initialize to `size` zeroed bytes, reusing the allocation when
    /// it is large enough — the per-block arena's recycling hook.
    pub fn reset(&mut self, size: u32) {
        self.bytes.clear();
        self.bytes.resize(size as usize, 0);
    }

    fn load(&self, addr: u32, w: MemWidth) -> Result<u64, MemFault> {
        let end = addr as usize + w.bytes() as usize;
        if end > self.bytes.len() {
            return Err(MemFault {
                addr,
                len: w.bytes(),
            });
        }
        let mut buf = [0u8; 8];
        buf[..w.bytes() as usize].copy_from_slice(&self.bytes[addr as usize..end]);
        Ok(u64::from_le_bytes(buf))
    }

    fn store(&mut self, addr: u32, v: u64, w: MemWidth) -> Result<(), MemFault> {
        let end = addr as usize + w.bytes() as usize;
        if end > self.bytes.len() {
            return Err(MemFault {
                addr,
                len: w.bytes(),
            });
        }
        self.bytes[addr as usize..end].copy_from_slice(&v.to_le_bytes()[..w.bytes() as usize]);
        Ok(())
    }
}

/// Execution context for one warp; `run` drives it to the next stop point.
///
/// `global` is a shared reference: blocks on different SM workers access
/// device memory concurrently through its atomic word operations. The
/// channel is reached through the owning block's [`ChannelPort`], which
/// stamps pushes for the deterministic host-side merge.
pub struct WarpExec<'a, 'c> {
    pub code: &'a InstrumentedCode,
    pub lanes: &'a mut WarpLanes,
    pub ctrl: &'a mut WarpControl,
    pub global: &'a DeviceMemory,
    pub shared: &'a mut SharedMem,
    pub cbanks: &'a ConstBanks,
    pub clock: &'a mut Clock,
    pub cost: &'a CostModel,
    pub channel: &'a mut ChannelPort<'c>,
    pub ids: WarpIds,
    pub launch_id: u64,
    pub stats: &'a mut ExecStats,
    /// Absolute cycle ceiling for the launch (in this worker's clock
    /// domain — see `Gpu::launch_with_channel` for the parallel mapping).
    pub watchdog: u64,
}

impl WarpExec<'_, '_> {
    fn err(&self, msg: impl Into<String>) -> SimError {
        SimError::BadInstr {
            kernel: self.code.code.name.clone(),
            pc: self.ctrl.pc,
            msg: msg.into(),
        }
    }

    fn mem_err(&self, fault: MemFault) -> SimError {
        SimError::MemFault {
            kernel: self.code.code.name.clone(),
            pc: self.ctrl.pc,
            fault,
        }
    }

    /// Read an FP32 source operand for one lane, as raw bits.
    fn src32(&self, lane: u32, op: &Operand) -> Result<u32, SimError> {
        let bits = match op {
            Operand::Reg { num, neg, .. } => {
                let b = self.lanes.reg(lane, *num);
                if *neg {
                    b ^ 0x8000_0000
                } else {
                    b
                }
            }
            Operand::ImmDouble(v) => (*v as f32).to_bits(),
            Operand::ImmInt(v) => *v as u32,
            Operand::CBank(c) => self.cbanks.read_u32(c.bank, c.offset),
            Operand::Generic(s) => generic_bits32(s),
            _ => return Err(self.err(format!("bad FP32 source operand {op}"))),
        };
        Ok(bits)
    }

    /// Read an FP64 source operand for one lane, as raw bits (register pair
    /// concatenation per §2.2).
    fn src64(&self, lane: u32, op: &Operand) -> Result<u64, SimError> {
        let bits = match op {
            Operand::Reg { num, neg, .. } => {
                let b = self.lanes.reg_pair(lane, *num);
                if *neg {
                    b ^ 0x8000_0000_0000_0000
                } else {
                    b
                }
            }
            Operand::ImmDouble(v) => v.to_bits(),
            Operand::CBank(c) => self.cbanks.read_u64(c.bank, c.offset),
            Operand::Generic(s) => generic_bits64(s),
            _ => return Err(self.err(format!("bad FP64 source operand {op}"))),
        };
        Ok(bits)
    }

    /// Read an integer source operand for one lane.
    fn src_int(&self, lane: u32, op: &Operand) -> Result<i32, SimError> {
        match op {
            Operand::Reg { num, neg, .. } => {
                let v = self.lanes.reg(lane, *num) as i32;
                Ok(if *neg { v.wrapping_neg() } else { v })
            }
            Operand::ImmInt(v) => Ok(*v as i32),
            Operand::CBank(c) => Ok(self.cbanks.read_u32(c.bank, c.offset) as i32),
            _ => Err(self.err(format!("bad integer source operand {op}"))),
        }
    }

    fn eval_pred_operand(&self, lane: u32, op: &Operand) -> Result<bool, SimError> {
        match op {
            Operand::Pred(p) => Ok(self.lanes.pred(lane, p.reg) != p.neg),
            _ => Err(self.err(format!("expected predicate operand, got {op}"))),
        }
    }

    fn operand<'i>(&self, instr: &'i Instruction, i: usize) -> Result<&'i Operand, SimError> {
        instr
            .operands
            .get(i)
            .ok_or_else(|| self.err(format!("missing operand {i} for {}", instr.sass())))
    }

    /// Lanes (within `mask`) whose guard predicate passes.
    fn guarded_mask(&self, instr: &Instruction, mask: u32) -> u32 {
        match instr.guard {
            None => mask,
            Some(g) => {
                let mut m = 0u32;
                for lane in lanes_of(mask) {
                    if self.lanes.pred(lane, g.reg) != g.neg {
                        m |= 1 << lane;
                    }
                }
                m
            }
        }
    }

    fn run_injections(&mut self, pc: u32, when: When, exec_mask: u32, guarded_mask: u32) {
        // `code` is a shared reference copied out of `self`: iterating it
        // leaves `self`'s fields free for the callbacks' `&mut` borrows.
        let code = self.code;
        for inj in &code.injections[pc as usize] {
            if inj.when != when {
                continue;
            }
            let call_cycles = self.cost.injected_call + self.cost.injected_arg * inj.args() as u64;
            self.clock.charge(call_cycles);
            self.stats.injected_calls += 1;
            self.stats.injected_cycles += call_cycles;
            if inj.is_shadow() {
                self.stats.shadow_calls += 1;
                self.stats.shadow_cycles += call_cycles;
            } else if inj.is_coach() {
                self.stats.coach_calls += 1;
                self.stats.coach_cycles += call_cycles;
            }
            let mut ctx = InjectionCtx {
                kernel_name: &code.code.name,
                launch_id: self.launch_id,
                pc,
                block: self.ids.block,
                warp: self.ids.warp,
                exec_mask,
                guarded_mask,
                lanes: self.lanes,
                global: self.global,
                cbanks: self.cbanks,
                clock: self.clock,
                channel: self.channel,
            };
            inj.func.call(&mut ctx);
        }
    }

    /// Execute until the warp exits or reaches a barrier.
    pub fn run(&mut self) -> Result<StopReason, SimError> {
        loop {
            if self.clock.cycles() > self.watchdog {
                return Err(SimError::Watchdog {
                    cycles: self.watchdog,
                });
            }
            let pc = self.ctrl.pc;
            let Some(instr) = self.code.code.instrs.get(pc as usize) else {
                return Err(self.err("fell off the end of the kernel"));
            };
            let exec_mask = self.ctrl.exec_mask();
            debug_assert_ne!(exec_mask, 0, "scheduled a warp path with no lanes");

            let issue = self.cost.instr_cost(instr.opcode.base);
            self.clock.charge(issue);
            self.stats.warp_instrs += 1;
            self.stats.issue_cycles += issue;
            if instr.opcode.base.is_fp_instrumented() {
                self.stats.fp_warp_instrs += 1;
                match instr.opcode.base.fp_format() {
                    Some(fpx_sass::types::FpFormat::Fp32) => self.stats.fp32_warp_instrs += 1,
                    Some(fpx_sass::types::FpFormat::Fp64) => self.stats.fp64_warp_instrs += 1,
                    Some(fpx_sass::types::FpFormat::Fp16) => self.stats.fp16_warp_instrs += 1,
                    None => {}
                }
            }

            let guarded = self.guarded_mask(instr, exec_mask);
            self.run_injections(pc, When::Before, exec_mask, guarded);

            // Control-flow opcodes manage the PC themselves.
            match instr.opcode.base {
                BaseOp::Bra => {
                    let target = self.branch_target(instr)?;
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    if guarded == exec_mask {
                        self.ctrl.pc = target;
                    } else if guarded == 0 {
                        self.ctrl.pc = pc + 1;
                    } else {
                        // Divergence: current path takes the branch, the
                        // fall-through lanes are deferred on the innermost
                        // SSY frame.
                        let not_taken = exec_mask & !guarded;
                        let Some(frame) = self.ctrl.stack.last_mut() else {
                            return Err(SimError::NoSyncFrame {
                                kernel: self.code.code.name.clone(),
                                pc,
                            });
                        };
                        frame.pending.push((pc + 1, not_taken));
                        self.ctrl.mask = guarded;
                        self.ctrl.pc = target;
                    }
                    continue;
                }
                BaseOp::Ssy => {
                    let target = self.branch_target(instr)?;
                    self.ctrl.stack.push(SyncFrame {
                        reconv: target,
                        mask: exec_mask,
                        pending: Vec::new(),
                    });
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    self.ctrl.pc = pc + 1;
                    continue;
                }
                BaseOp::Sync => {
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    match self.end_path()? {
                        PathEnd::Continue => continue,
                        PathEnd::WarpDone => return Ok(StopReason::Done),
                    }
                }
                BaseOp::Exit => {
                    self.ctrl.exited |= guarded;
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    if self.ctrl.exec_mask() != 0 {
                        self.ctrl.pc = pc + 1;
                        continue;
                    }
                    match self.end_path()? {
                        PathEnd::Continue => continue,
                        PathEnd::WarpDone => return Ok(StopReason::Done),
                    }
                }
                BaseOp::Bar => {
                    self.run_injections(pc, When::After, exec_mask, guarded);
                    self.ctrl.pc = pc + 1;
                    return Ok(StopReason::Barrier);
                }
                _ => {}
            }

            // Data instructions execute on the guarded lanes.
            if guarded != 0 {
                self.exec_data(instr, guarded)?;
            }
            self.run_injections(pc, When::After, exec_mask, guarded);
            self.ctrl.pc = pc + 1;
        }
    }

    fn branch_target(&self, instr: &Instruction) -> Result<u32, SimError> {
        match instr.operands.first() {
            Some(Operand::Label(t)) => Ok(*t),
            other => Err(self.err(format!("branch without label target: {other:?}"))),
        }
    }

    /// A path died (SYNC reached, or all its lanes exited): switch to the
    /// next pending divergent path, or merge and continue past the
    /// reconvergence point.
    fn end_path(&mut self) -> Result<PathEnd, SimError> {
        loop {
            let Some(frame) = self.ctrl.stack.last_mut() else {
                return if self.ctrl.exec_mask() == 0 {
                    Ok(PathEnd::WarpDone)
                } else {
                    Err(self.err("SYNC with empty divergence stack"))
                };
            };
            if let Some((ppc, pmask)) = frame.pending.pop() {
                if pmask & !self.ctrl.exited != 0 {
                    self.ctrl.mask = pmask;
                    self.ctrl.pc = ppc;
                    return Ok(PathEnd::Continue);
                }
                continue; // that path's lanes all exited; try the next
            }
            let f = self.ctrl.stack.pop().expect("frame checked above");
            self.ctrl.mask = f.mask;
            // The merge skips the SYNC at the reconvergence point: its job
            // (this merge) is already done for all paths of this frame.
            self.ctrl.pc = f.reconv + 1;
            if self.ctrl.exec_mask() != 0 {
                return Ok(PathEnd::Continue);
            }
            // Every lane in the frame exited; unwind further.
        }
    }

    /// Execute a non-control instruction on the guarded lanes.
    fn exec_data(&mut self, instr: &Instruction, guarded: u32) -> Result<(), SimError> {
        use BaseOp::*;
        let ftz = instr.opcode.mods.ftz;
        match instr.opcode.base {
            FAdd | FAdd32I => self.fp32_binop(instr, guarded, |a, b| fpu::fadd(a, b, ftz)),
            HAdd => self.fp16_binop(instr, guarded, |a, b| a + b),
            HMul => self.fp16_binop(instr, guarded, |a, b| a * b),
            HFma => {
                let dst = self.dest_reg(instr)?;
                let (a_op, b_op, c_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                    self.operand(instr, 3)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = f16_to_f32(self.src32(lane, &a_op)? as u16);
                    let b = f16_to_f32(self.src32(lane, &b_op)? as u16);
                    let c = f16_to_f32(self.src32(lane, &c_op)? as u16);
                    let r = f32_to_f16(a.mul_add(b, c));
                    self.lanes.set_reg(lane, dst, r as u32);
                }
                Ok(())
            }
            FMul | FMul32I => self.fp32_binop(instr, guarded, |a, b| fpu::fmul(a, b, ftz)),
            FFma | FFma32I => self.fp32_ternop(instr, guarded, |a, b, c| fpu::ffma(a, b, c, ftz)),
            Mufu(func) => {
                let dst = self.dest_reg(instr)?;
                let src = self.operand(instr, 1)?.clone();
                if func.is_64h() {
                    for lane in lanes_of(guarded) {
                        let hi = self.src32(lane, &src)?;
                        let r = fpu::mufu64h(func, hi);
                        self.lanes.set_reg(lane, dst, r);
                    }
                } else {
                    for lane in lanes_of(guarded) {
                        let x = f32::from_bits(self.src32(lane, &src)?);
                        self.lanes
                            .set_reg(lane, dst, fpu::mufu32(func, x).to_bits());
                    }
                }
                Ok(())
            }
            FChk => {
                // FCHK Pd, Ra, Rb — true when a/b needs the slow fix-up
                // path (zero/INF/NaN divisor, non-finite dividend, or
                // extreme exponent split).
                let pd = self.dest_pred(instr)?;
                let a_op = self.operand(instr, 1)?.clone();
                let b_op = self.operand(instr, 2)?.clone();
                for lane in lanes_of(guarded) {
                    let a = f32::from_bits(self.src32(lane, &a_op)?);
                    let b = f32::from_bits(self.src32(lane, &b_op)?);
                    let slow = b == 0.0
                        || !b.is_finite()
                        || !a.is_finite()
                        || b.is_subnormal()
                        || (a != 0.0 && (a.abs().log2() - b.abs().log2()).abs() > 125.0);
                    self.lanes.set_pred(lane, pd, slow);
                }
                Ok(())
            }
            DAdd => self.fp64_binop(instr, guarded, |a, b| a + b),
            DMul => self.fp64_binop(instr, guarded, |a, b| a * b),
            DFma => {
                let dst = self.dest_reg(instr)?;
                let (a_op, b_op, c_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                    self.operand(instr, 3)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = f64::from_bits(self.src64(lane, &a_op)?);
                    let b = f64::from_bits(self.src64(lane, &b_op)?);
                    let c = f64::from_bits(self.src64(lane, &c_op)?);
                    self.lanes
                        .set_reg_pair(lane, dst, a.mul_add(b, c).to_bits());
                }
                Ok(())
            }
            FSel => {
                // FSEL Rd, Ra, Rb, Pp — Rd = Pp ? Ra : Rb.
                let dst = self.dest_reg(instr)?;
                let (a_op, b_op, p_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                    self.operand(instr, 3)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let take_a = self.eval_pred_operand(lane, &p_op)?;
                    let v = if take_a {
                        self.src32(lane, &a_op)?
                    } else {
                        self.src32(lane, &b_op)?
                    };
                    self.lanes.set_reg(lane, dst, v);
                }
                Ok(())
            }
            FSet(cmp) => {
                let dst = self.dest_reg(instr)?;
                let (a_op, b_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = f32::from_bits(self.src32(lane, &a_op)?) as f64;
                    let b = f32::from_bits(self.src32(lane, &b_op)?) as f64;
                    let v = if cmp.eval(a, b) { 1.0f32 } else { 0.0f32 };
                    self.lanes.set_reg(lane, dst, v.to_bits());
                }
                Ok(())
            }
            FSetP(cmp) => {
                let pd = self.dest_pred(instr)?;
                let (a_op, b_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = f32::from_bits(self.src32(lane, &a_op)?) as f64;
                    let b = f32::from_bits(self.src32(lane, &b_op)?) as f64;
                    self.lanes.set_pred(lane, pd, cmp.eval(a, b));
                }
                Ok(())
            }
            DSetP(cmp) => {
                let pd = self.dest_pred(instr)?;
                let (a_op, b_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = f64::from_bits(self.src64(lane, &a_op)?);
                    let b = f64::from_bits(self.src64(lane, &b_op)?);
                    self.lanes.set_pred(lane, pd, cmp.eval(a, b));
                }
                Ok(())
            }
            FMnMx => {
                // FMNMX Rd, Ra, Rb, Pp — min if Pp else max, IEEE-2008
                // NaN-swallowing semantics.
                let dst = self.dest_reg(instr)?;
                let (a_op, b_op, p_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                    self.operand(instr, 3)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = f32::from_bits(self.src32(lane, &a_op)?) as f64;
                    let b = f32::from_bits(self.src32(lane, &b_op)?) as f64;
                    let is_min = self.eval_pred_operand(lane, &p_op)?;
                    let v = if is_min {
                        fpu::min_2008(a, b)
                    } else {
                        fpu::max_2008(a, b)
                    } as f32;
                    self.lanes
                        .set_reg(lane, dst, fpu::maybe_ftz32(v, ftz).to_bits());
                }
                Ok(())
            }
            DMnMx => {
                let dst = self.dest_reg(instr)?;
                let (a_op, b_op, p_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                    self.operand(instr, 3)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = f64::from_bits(self.src64(lane, &a_op)?);
                    let b = f64::from_bits(self.src64(lane, &b_op)?);
                    let is_min = self.eval_pred_operand(lane, &p_op)?;
                    let v = if is_min {
                        fpu::min_2008(a, b)
                    } else {
                        fpu::max_2008(a, b)
                    };
                    self.lanes.set_reg_pair(lane, dst, v.to_bits());
                }
                Ok(())
            }
            F2F {
                dst: dfmt,
                src: sfmt,
            } => {
                use fpx_sass::types::FpFormat::*;
                let dst = self.dest_reg(instr)?;
                let src = self.operand(instr, 1)?.clone();
                for lane in lanes_of(guarded) {
                    match (dfmt, sfmt) {
                        (Fp32, Fp64) => {
                            let x = f64::from_bits(self.src64(lane, &src)?);
                            self.lanes.set_reg(lane, dst, (x as f32).to_bits());
                        }
                        (Fp64, Fp32) => {
                            let x = f32::from_bits(self.src32(lane, &src)?);
                            self.lanes.set_reg_pair(lane, dst, (x as f64).to_bits());
                        }
                        _ => return Err(self.err(format!("unsupported F2F {dfmt}->{sfmt}"))),
                    }
                }
                Ok(())
            }
            I2F => {
                let dst = self.dest_reg(instr)?;
                let src = self.operand(instr, 1)?.clone();
                for lane in lanes_of(guarded) {
                    let x = self.src_int(lane, &src)?;
                    self.lanes.set_reg(lane, dst, (x as f32).to_bits());
                }
                Ok(())
            }
            F2I => {
                let dst = self.dest_reg(instr)?;
                let src = self.operand(instr, 1)?.clone();
                for lane in lanes_of(guarded) {
                    let x = f32::from_bits(self.src32(lane, &src)?);
                    let v = if x.is_nan() { 0 } else { x as i32 };
                    self.lanes.set_reg(lane, dst, v as u32);
                }
                Ok(())
            }
            Mov | Mov32I => {
                let dst = self.dest_reg(instr)?;
                let src = self.operand(instr, 1)?.clone();
                for lane in lanes_of(guarded) {
                    // MOV copies raw bits; float immediates encode as f32.
                    let bits = match &src {
                        Operand::ImmInt(v) => *v as u32,
                        other => self.src32(lane, other)?,
                    };
                    self.lanes.set_reg(lane, dst, bits);
                }
                Ok(())
            }
            IAdd3 => {
                let dst = self.dest_reg(instr)?;
                let srcs: Vec<Operand> = instr.src_operands().to_vec();
                for lane in lanes_of(guarded) {
                    let mut acc = 0i32;
                    for s in &srcs {
                        acc = acc.wrapping_add(self.src_int(lane, s)?);
                    }
                    self.lanes.set_reg(lane, dst, acc as u32);
                }
                Ok(())
            }
            IMad => {
                let dst = self.dest_reg(instr)?;
                let (a_op, b_op, c_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                    self.operand(instr, 3)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = self.src_int(lane, &a_op)?;
                    let b = self.src_int(lane, &b_op)?;
                    let c = self.src_int(lane, &c_op)?;
                    self.lanes
                        .set_reg(lane, dst, a.wrapping_mul(b).wrapping_add(c) as u32);
                }
                Ok(())
            }
            ISetP(cmp) => {
                let pd = self.dest_pred(instr)?;
                let (a_op, b_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = self.src_int(lane, &a_op)?;
                    let b = self.src_int(lane, &b_op)?;
                    self.lanes.set_pred(lane, pd, cmp.eval(a, b));
                }
                Ok(())
            }
            Shl => {
                let dst = self.dest_reg(instr)?;
                let (a_op, b_op) = (
                    self.operand(instr, 1)?.clone(),
                    self.operand(instr, 2)?.clone(),
                );
                for lane in lanes_of(guarded) {
                    let a = self.src_int(lane, &a_op)? as u32;
                    let sh = self.src_int(lane, &b_op)? as u32 & 31;
                    self.lanes.set_reg(lane, dst, a << sh);
                }
                Ok(())
            }
            S2R(sr) => {
                let dst = self.dest_reg(instr)?;
                for lane in lanes_of(guarded) {
                    let v = match sr {
                        SpecialReg::TidX => self.ids.warp * WARP_SIZE + lane,
                        SpecialReg::CtaidX => self.ids.block,
                        SpecialReg::NtidX => self.ids.ntid,
                        SpecialReg::LaneId => lane,
                    };
                    self.lanes.set_reg(lane, dst, v);
                }
                Ok(())
            }
            Ldg(w) => {
                let dst = self.dest_reg(instr)?;
                let mem = self.mem_ref(instr, 1)?;
                for lane in lanes_of(guarded) {
                    let addr = self
                        .lanes
                        .reg(lane, mem.base)
                        .wrapping_add(mem.offset as u32);
                    let v = match w {
                        MemWidth::W32 => {
                            self.global.load_u32(addr).map_err(|f| self.mem_err(f))? as u64
                        }
                        MemWidth::W64 => self.global.load_u64(addr).map_err(|f| self.mem_err(f))?,
                    };
                    match w {
                        MemWidth::W32 => self.lanes.set_reg(lane, dst, v as u32),
                        MemWidth::W64 => self.lanes.set_reg_pair(lane, dst, v),
                    }
                }
                Ok(())
            }
            Stg(w) => {
                let mem = self.mem_ref(instr, 0)?;
                let src = self.operand(instr, 1)?.clone();
                let src_reg = src
                    .as_reg()
                    .ok_or_else(|| self.err("STG source must be a register"))?;
                for lane in lanes_of(guarded) {
                    let addr = self
                        .lanes
                        .reg(lane, mem.base)
                        .wrapping_add(mem.offset as u32);
                    match w {
                        MemWidth::W32 => {
                            let v = self.lanes.reg(lane, src_reg);
                            self.global
                                .store_u32(addr, v)
                                .map_err(|f| self.mem_err(f))?;
                        }
                        MemWidth::W64 => {
                            let v = self.lanes.reg_pair(lane, src_reg);
                            self.global
                                .store_u64(addr, v)
                                .map_err(|f| self.mem_err(f))?;
                        }
                    }
                }
                Ok(())
            }
            Lds(w) => {
                let dst = self.dest_reg(instr)?;
                let mem = self.mem_ref(instr, 1)?;
                for lane in lanes_of(guarded) {
                    let addr = self
                        .lanes
                        .reg(lane, mem.base)
                        .wrapping_add(mem.offset as u32);
                    let v = self.shared.load(addr, w).map_err(|f| self.mem_err(f))?;
                    match w {
                        MemWidth::W32 => self.lanes.set_reg(lane, dst, v as u32),
                        MemWidth::W64 => self.lanes.set_reg_pair(lane, dst, v),
                    }
                }
                Ok(())
            }
            Sts(w) => {
                let mem = self.mem_ref(instr, 0)?;
                let src = self.operand(instr, 1)?.clone();
                let src_reg = src
                    .as_reg()
                    .ok_or_else(|| self.err("STS source must be a register"))?;
                for lane in lanes_of(guarded) {
                    let addr = self
                        .lanes
                        .reg(lane, mem.base)
                        .wrapping_add(mem.offset as u32);
                    let v = match w {
                        MemWidth::W32 => self.lanes.reg(lane, src_reg) as u64,
                        MemWidth::W64 => self.lanes.reg_pair(lane, src_reg),
                    };
                    self.shared.store(addr, v, w).map_err(|f| self.mem_err(f))?;
                }
                Ok(())
            }
            Ldc(w) => {
                let dst = self.dest_reg(instr)?;
                let src = self.operand(instr, 1)?.clone();
                let Operand::CBank(c) = src else {
                    return Err(self.err("LDC source must be a cbank reference"));
                };
                for lane in lanes_of(guarded) {
                    match w {
                        MemWidth::W32 => {
                            let v = self.cbanks.read_u32(c.bank, c.offset);
                            self.lanes.set_reg(lane, dst, v);
                        }
                        MemWidth::W64 => {
                            let v = self.cbanks.read_u64(c.bank, c.offset);
                            self.lanes.set_reg_pair(lane, dst, v);
                        }
                    }
                }
                Ok(())
            }
            Nop => Ok(()),
            Bra | Ssy | Sync | Bar | Exit => unreachable!("handled in run()"),
        }
    }

    fn dest_reg(&self, instr: &Instruction) -> Result<fpx_sass::operand::Reg, SimError> {
        match instr.operands.first() {
            Some(Operand::Reg { num, .. }) => Ok(*num),
            other => Err(self.err(format!("expected destination register, got {other:?}"))),
        }
    }

    fn dest_pred(&self, instr: &Instruction) -> Result<fpx_sass::operand::PredReg, SimError> {
        match instr.operands.first() {
            Some(Operand::Pred(p)) => Ok(p.reg),
            other => Err(self.err(format!("expected destination predicate, got {other:?}"))),
        }
    }

    fn mem_ref(
        &self,
        instr: &Instruction,
        i: usize,
    ) -> Result<fpx_sass::operand::MemRef, SimError> {
        match instr.operands.get(i) {
            Some(Operand::Mem(m)) => Ok(*m),
            other => Err(self.err(format!("expected memory operand, got {other:?}"))),
        }
    }

    /// FP16 ops compute through f32 (as the tensor-core-era hardware
    /// does for scalar halves) and narrow the result back to binary16.
    fn fp16_binop(
        &mut self,
        instr: &Instruction,
        guarded: u32,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(), SimError> {
        let dst = self.dest_reg(instr)?;
        let (a_op, b_op) = (
            self.operand(instr, 1)?.clone(),
            self.operand(instr, 2)?.clone(),
        );
        for lane in lanes_of(guarded) {
            let a = f16_to_f32(self.src32(lane, &a_op)? as u16);
            let b = f16_to_f32(self.src32(lane, &b_op)? as u16);
            let r = f32_to_f16(f(a, b));
            self.lanes.set_reg(lane, dst, r as u32);
        }
        Ok(())
    }

    fn fp32_binop(
        &mut self,
        instr: &Instruction,
        guarded: u32,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(), SimError> {
        let dst = self.dest_reg(instr)?;
        let (a_op, b_op) = (
            self.operand(instr, 1)?.clone(),
            self.operand(instr, 2)?.clone(),
        );
        for lane in lanes_of(guarded) {
            let a = f32::from_bits(self.src32(lane, &a_op)?);
            let b = f32::from_bits(self.src32(lane, &b_op)?);
            self.lanes.set_reg(lane, dst, f(a, b).to_bits());
        }
        Ok(())
    }

    fn fp32_ternop(
        &mut self,
        instr: &Instruction,
        guarded: u32,
        f: impl Fn(f32, f32, f32) -> f32,
    ) -> Result<(), SimError> {
        let dst = self.dest_reg(instr)?;
        let (a_op, b_op, c_op) = (
            self.operand(instr, 1)?.clone(),
            self.operand(instr, 2)?.clone(),
            self.operand(instr, 3)?.clone(),
        );
        for lane in lanes_of(guarded) {
            let a = f32::from_bits(self.src32(lane, &a_op)?);
            let b = f32::from_bits(self.src32(lane, &b_op)?);
            let c = f32::from_bits(self.src32(lane, &c_op)?);
            self.lanes.set_reg(lane, dst, f(a, b, c).to_bits());
        }
        Ok(())
    }

    fn fp64_binop(
        &mut self,
        instr: &Instruction,
        guarded: u32,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<(), SimError> {
        let dst = self.dest_reg(instr)?;
        let (a_op, b_op) = (
            self.operand(instr, 1)?.clone(),
            self.operand(instr, 2)?.clone(),
        );
        for lane in lanes_of(guarded) {
            let a = f64::from_bits(self.src64(lane, &a_op)?);
            let b = f64::from_bits(self.src64(lane, &b_op)?);
            self.lanes.set_reg_pair(lane, dst, f(a, b).to_bits());
        }
        Ok(())
    }
}

/// Iterate the set lane indices of a mask.
#[inline]
pub fn lanes_of(mask: u32) -> impl Iterator<Item = u32> {
    (0..WARP_SIZE).filter(move |l| mask & (1 << l) != 0)
}

/// Bits of a `GENERIC` textual operand (`+INF`, `-QNAN`) as FP32.
fn generic_bits32(s: &str) -> u32 {
    if s.contains("NAN") {
        let nan = f32::NAN.to_bits();
        if s.starts_with('-') {
            nan | 0x8000_0000
        } else {
            nan
        }
    } else if s.contains("INF") {
        if s.starts_with('-') {
            f32::NEG_INFINITY.to_bits()
        } else {
            f32::INFINITY.to_bits()
        }
    } else {
        0
    }
}

/// Bits of a `GENERIC` textual operand as FP64.
fn generic_bits64(s: &str) -> u64 {
    if s.contains("NAN") {
        let nan = f64::NAN.to_bits();
        if s.starts_with('-') {
            nan | 0x8000_0000_0000_0000
        } else {
            nan
        }
    } else if s.contains("INF") {
        if s.starts_with('-') {
            f64::NEG_INFINITY.to_bits()
        } else {
            f64::INFINITY.to_bits()
        }
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_of_iterates_set_bits() {
        assert_eq!(lanes_of(0b1011).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(lanes_of(0).count(), 0);
        assert_eq!(lanes_of(u32::MAX).count(), 32);
    }

    #[test]
    fn generic_literals() {
        assert!(f32::from_bits(generic_bits32("-QNAN")).is_nan());
        assert!(f32::from_bits(generic_bits32("+QNAN")).is_nan());
        assert_eq!(f32::from_bits(generic_bits32("+INF")), f32::INFINITY);
        assert_eq!(f32::from_bits(generic_bits32("-INF")), f32::NEG_INFINITY);
        assert!(f64::from_bits(generic_bits64("-QNAN")).is_nan());
        assert_eq!(f64::from_bits(generic_bits64("-INF")), f64::NEG_INFINITY);
    }
}
