//! The device: memory + architecture + launch machinery.
//!
//! Launches run thread blocks either serially (the calibrated legacy
//! behaviour, `threads == 1`) or across a pool of worker threads, one
//! logical SM each. Workers claim blocks from a shared counter, execute
//! them on private clocks against the shared atomic [`DeviceMemory`], and
//! their per-block cycle totals are reduced into the launch's
//! [`LaunchStats`]. Because every per-push congestion cost depends only on
//! the *global* push ordinal (see `fpx-nvbit`'s channel) and each block's
//! records carry a [`crate::hooks::PushOrigin`] for the host-side merge,
//! the total cycle count and the drained record sequence are identical to
//! a serial run.

use crate::exec::{ExecStats, SharedMem, SimError, StopReason, WarpExec, WarpIds};
use crate::hooks::{ChannelPort, HostChannel, InstrumentedCode, NullChannel};
use crate::mem::{ConstBanks, DevPtr, DeviceMemory};
use crate::timing::{Clock, CostModel};
use crate::warp::{WarpControl, WarpLanes};
use crate::{PARAM_BASE, WARP_SIZE};
use fpx_obs::{fpx_debug, fpx_warn};
use fpx_prof::{Phase as ProfPhase, Prof};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// GPU architecture generation. The software division expansion differs
/// between the two (§2.2): Ampere uses one more Newton–Raphson step and a
/// differently guarded fix-up, producing different exception counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// e.g. RTX 2070 SUPER (the paper's Machine 1).
    Turing,
    /// e.g. RTX 3060 (the paper's Machine 2).
    Ampere,
}

/// One kernel launch parameter, serialized into constant bank 0 at
/// `c[0x0][0x160]` in declaration order (4-byte values 4-aligned, 8-byte
/// values 8-aligned).
///
/// Device pointers are serialized as 4-byte addresses (this simulator's
/// address space is 32-bit; see `fpx-sim` crate docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    U32(u32),
    F32(f32),
    F64(f64),
    Ptr(DevPtr),
}

impl ParamValue {
    fn size(&self) -> u32 {
        match self {
            ParamValue::U32(_) | ParamValue::F32(_) | ParamValue::Ptr(_) => 4,
            ParamValue::F64(_) => 8,
        }
    }
}

/// Grid/block shape and parameters of one launch.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    pub params: Vec<ParamValue>,
    /// Extra dynamic shared memory bytes.
    pub shared_bytes: u32,
}

impl LaunchConfig {
    pub fn new(grid: u32, block: u32, params: Vec<ParamValue>) -> Self {
        LaunchConfig {
            grid,
            block,
            params,
            shared_bytes: 0,
        }
    }

    /// Compute the parameter-area byte offset of parameter `i`, mirroring
    /// how the compiler assigns `c[0x0][...]` offsets.
    pub fn param_offset(params: &[ParamValue], i: usize) -> u32 {
        let mut off = PARAM_BASE;
        for (j, p) in params.iter().enumerate() {
            off = off.next_multiple_of(p.size());
            if j == i {
                return off;
            }
            off += p.size();
        }
        off
    }
}

/// Cumulative statistics for one launch.
#[derive(Debug, Default, Clone, Copy)]
pub struct LaunchStats {
    /// Simulated cycles consumed by this launch: the sum of all blocks'
    /// cycles, i.e. total SM work. Identical between serial and parallel
    /// execution of the same launch.
    pub cycles: u64,
    pub exec: ExecStats,
    /// SM workers that executed this launch (1 for serial runs).
    pub workers: u32,
    /// Largest per-worker cycle total — the parallel critical path. For a
    /// serial run this equals `cycles`. Unlike `cycles` it depends on how
    /// blocks landed on workers, so it is informational, not deterministic.
    pub max_worker_cycles: u64,
}

/// The simulated GPU.
pub struct Gpu {
    pub arch: Arch,
    pub mem: DeviceMemory,
    pub cbanks: ConstBanks,
    pub clock: Clock,
    pub cost: CostModel,
    /// Cycle ceiling per launch; exceeded → [`SimError::Watchdog`].
    pub watchdog_cycles: u64,
    /// Worker threads (logical SMs) used per launch. 1 = serial execution
    /// on the caller's thread, the default. Capped at the grid size.
    pub threads: usize,
    /// Self-profiler handle; disabled by default (a no-op). When enabled,
    /// block execution records per-block cycles (sharded by block index,
    /// so the profile is schedule-free) and hook-dispatch cost.
    pub prof: Prof,
    /// Channel coalescing cap: how many staged records a block's
    /// [`ChannelPort`] batches into one transfer. `1` disables coalescing
    /// (every staged record degenerates to an immediate per-record push —
    /// the equivalence-proptest toggle).
    pub coalesce: usize,
    launch_counter: u64,
}

impl Gpu {
    pub fn new(arch: Arch) -> Self {
        Gpu {
            arch,
            mem: DeviceMemory::default(),
            cbanks: ConstBanks::new(),
            clock: Clock::default(),
            cost: CostModel::default(),
            watchdog_cycles: 200_000_000_000,
            threads: 1,
            prof: Prof::disabled(),
            coalesce: crate::hooks::DEFAULT_COALESCE,
            launch_counter: 0,
        }
    }

    /// Number of launches performed so far.
    pub fn launches(&self) -> u64 {
        self.launch_counter
    }

    /// Launch an (optionally instrumented) kernel without a channel.
    pub fn launch(
        &mut self,
        code: &InstrumentedCode,
        cfg: &LaunchConfig,
    ) -> Result<LaunchStats, SimError> {
        self.launch_with_channel(code, cfg, &NullChannel)
    }

    /// Launch with a device→host channel for instrumentation traffic.
    pub fn launch_with_channel(
        &mut self,
        code: &InstrumentedCode,
        cfg: &LaunchConfig,
        channel: &dyn HostChannel,
    ) -> Result<LaunchStats, SimError> {
        debug_assert_eq!(code.injections.len(), code.code.len());
        let launch_id = self.launch_counter;
        self.launch_counter += 1;

        // Serialize parameters into constant bank 0.
        let mut off = PARAM_BASE;
        for p in &cfg.params {
            off = off.next_multiple_of(p.size());
            match *p {
                ParamValue::U32(v) => self.cbanks.write_u32(0, off, v),
                ParamValue::F32(v) => self.cbanks.write_u32(0, off, v.to_bits()),
                ParamValue::F64(v) => self.cbanks.write_u64(0, off, v.to_bits()),
                ParamValue::Ptr(p) => self.cbanks.write_u32(0, off, p.0),
            }
            off += p.size();
        }

        let start_cycles = self.clock.cycles();
        let watchdog_abs = start_cycles.saturating_add(self.watchdog_cycles);
        let warps_per_block = cfg.block.div_ceil(WARP_SIZE).max(1);
        let shared_size = code.code.shared_bytes.max(cfg.shared_bytes).max(4096);

        let workers = self.threads.max(1).min(cfg.grid.max(1) as usize);
        if workers <= 1 {
            // Serial path: blocks run back-to-back on the shared clock,
            // recycling one arena.
            let mut stats = ExecStats::default();
            let mut arena = BlockArena::new();
            for block in 0..cfg.grid {
                if let Err(e) = run_block(
                    code,
                    cfg,
                    block,
                    launch_id,
                    &self.mem,
                    &self.cbanks,
                    &self.cost,
                    &mut self.clock,
                    &mut stats,
                    channel,
                    shared_size,
                    warps_per_block,
                    || watchdog_abs,
                    &self.prof,
                    self.coalesce,
                    &mut arena,
                ) {
                    if matches!(e, SimError::Watchdog { .. }) {
                        fpx_warn!(
                            "watchdog fired on launch {launch_id} block {block} (ceiling {} cycles)",
                            self.watchdog_cycles
                        );
                    }
                    return Err(e);
                }
            }
            let cycles = self.clock.cycles() - start_cycles;
            return Ok(LaunchStats {
                cycles,
                exec: stats,
                workers: 1,
                max_worker_cycles: cycles,
            });
        }

        // Parallel path: each worker claims blocks from a shared counter
        // and runs them on a private clock. `flushed` accumulates completed
        // blocks' cycles launch-wide; a worker's view of total launch time
        // is `flushed + its current block's clock`, so each warp slice runs
        // with the watchdog ceiling translated into its local clock domain.
        let budget = self.watchdog_cycles;
        let next_block = AtomicU32::new(0);
        let flushed = AtomicU64::new(0);
        let abort = AtomicBool::new(false);
        // First error by *block id* (not arrival time), so error reporting
        // is deterministic across schedules.
        let first_err: Mutex<Option<(u32, SimError)>> = Mutex::new(None);
        let (mem, cbanks, cost) = (&self.mem, &self.cbanks, &self.cost);
        let prof = &self.prof;
        let coalesce = self.coalesce;
        fpx_debug!(
            "launch {launch_id}: {} workers over {} blocks",
            workers,
            cfg.grid
        );

        let per_worker: Vec<(u64, ExecStats)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut worker_cycles = 0u64;
                        let mut stats = ExecStats::default();
                        let mut arena = BlockArena::new();
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            let block = next_block.fetch_add(1, Ordering::Relaxed);
                            if block >= cfg.grid {
                                break;
                            }
                            let mut clock = Clock::default();
                            let r = run_block(
                                code,
                                cfg,
                                block,
                                launch_id,
                                mem,
                                cbanks,
                                cost,
                                &mut clock,
                                &mut stats,
                                channel,
                                shared_size,
                                warps_per_block,
                                || budget.saturating_sub(flushed.load(Ordering::Relaxed)),
                                prof,
                                coalesce,
                                &mut arena,
                            );
                            worker_cycles += clock.cycles();
                            flushed.fetch_add(clock.cycles(), Ordering::Relaxed);
                            if let Err(e) = r {
                                // Report watchdog trips against the absolute
                                // ceiling, as the serial path does.
                                let e = match e {
                                    SimError::Watchdog { .. } => SimError::Watchdog {
                                        cycles: watchdog_abs,
                                    },
                                    other => other,
                                };
                                let mut slot = first_err
                                    .lock()
                                    .expect("poisoned only if a sibling worker panicked");
                                if slot.as_ref().is_none_or(|(b, _)| block < *b) {
                                    *slot = Some((block, e));
                                }
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        (worker_cycles, stats)
                    })
                })
                .collect();
            // join() only errs when the worker panicked; re-raising the
            // panic on the host thread preserves the worker's message.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        let mut stats = ExecStats::default();
        let mut max_worker_cycles = 0u64;
        for (cycles, st) in &per_worker {
            stats.add(st);
            max_worker_cycles = max_worker_cycles.max(*cycles);
        }
        let total = flushed.load(Ordering::Relaxed);
        // The host clock advances by total SM work, keeping cycle
        // accounting (and thus every calibrated slowdown figure) equal to
        // the serial schedule.
        self.clock.charge(total);
        if let Some((block, e)) = first_err
            .into_inner()
            .expect("workers joined above, so no one holds the lock")
        {
            if matches!(e, SimError::Watchdog { .. }) {
                fpx_warn!(
                    "watchdog fired on launch {launch_id} block {block} (ceiling {} cycles)",
                    self.watchdog_cycles
                );
            }
            return Err(e);
        }
        Ok(LaunchStats {
            cycles: total,
            exec: stats,
            workers: workers as u32,
            max_worker_cycles,
        })
    }
}

/// Reusable per-block execution state — shared memory and per-warp lane
/// registers — pooled per worker across the blocks of a launch. Blocks
/// used to allocate all of this fresh (a shared-memory buffer plus one
/// register file per warp, every block), which put the allocator on the
/// instrumented hot path; the arena recycles the backing buffers and only
/// zeroes them.
struct BlockArena {
    shared: SharedMem,
    warps: Vec<(WarpLanes, WarpControl, bool)>,
}

impl BlockArena {
    fn new() -> Self {
        BlockArena {
            shared: SharedMem::new(0),
            warps: Vec::new(),
        }
    }

    /// Re-initialize for one block: `warps_per_block` warps of `num_regs`
    /// registers, lane-activity masks derived from the block dimension.
    fn begin_block(
        &mut self,
        shared_size: u32,
        warps_per_block: u32,
        num_regs: u16,
        block_dim: u32,
    ) {
        self.shared.reset(shared_size);
        self.warps.truncate(warps_per_block as usize);
        let active = |w: u32| {
            if (w + 1) * WARP_SIZE <= block_dim {
                WARP_SIZE
            } else {
                block_dim - w * WARP_SIZE
            }
        };
        for (w, (lanes, ctrl, done)) in self.warps.iter_mut().enumerate() {
            lanes.reset(num_regs);
            *ctrl = WarpControl::new(active(w as u32));
            *done = false;
        }
        for w in self.warps.len() as u32..warps_per_block {
            self.warps
                .push((WarpLanes::new(num_regs), WarpControl::new(active(w)), false));
        }
    }
}

/// Run one thread block to completion: round-robin its warps between
/// barrier points, pushing channel records through a block-scoped
/// [`ChannelPort`]. `wd` yields the current watchdog ceiling in `clock`'s
/// domain; it is re-sampled at every warp slice so parallel workers see
/// launch-wide progress.
#[allow(clippy::too_many_arguments)]
fn run_block(
    code: &InstrumentedCode,
    cfg: &LaunchConfig,
    block: u32,
    launch_id: u64,
    mem: &DeviceMemory,
    cbanks: &ConstBanks,
    cost: &CostModel,
    clock: &mut Clock,
    stats: &mut ExecStats,
    channel: &dyn HostChannel,
    shared_size: u32,
    warps_per_block: u32,
    wd: impl Fn() -> u64,
    prof: &Prof,
    coalesce: usize,
    arena: &mut BlockArena,
) -> Result<(), SimError> {
    let block_start = clock.cycles();
    // Hook-dispatch attribution: snapshot the injection counters and
    // record the block's delta on completion — two atomic adds per block
    // instead of two per injected call.
    let calls_before = stats.injected_calls;
    let inj_cycles_before = stats.injected_cycles;
    let shadow_calls_before = stats.shadow_calls;
    let shadow_cycles_before = stats.shadow_cycles;
    let coach_calls_before = stats.coach_calls;
    let coach_cycles_before = stats.coach_cycles;
    let mut port = ChannelPort::with_coalesce(channel, launch_id, block, coalesce);
    // Persistent per-warp state so barriers can suspend/resume, recycled
    // from the worker's arena.
    arena.begin_block(shared_size, warps_per_block, code.code.num_regs, cfg.block);
    let BlockArena { shared, warps } = arena;

    // Round-robin between barrier points.
    loop {
        let mut progressed = false;
        for (w, (lanes, ctrl, done)) in warps.iter_mut().enumerate() {
            if *done {
                continue;
            }
            progressed = true;
            let mut exec = WarpExec {
                code,
                lanes,
                ctrl,
                global: mem,
                shared: &mut *shared,
                cbanks,
                clock,
                cost,
                channel: &mut port,
                ids: WarpIds {
                    block,
                    warp: w as u32,
                    ntid: cfg.block,
                },
                launch_id,
                stats,
                watchdog: wd(),
            };
            let r = exec.run();
            // Batches flush at the staging cap and at block end — both
            // deterministic per block (stage order is the round-robin warp
            // order), so batch composition and with it the amortized base
            // cost are schedule-free, and a trace replay can reproduce the
            // exact same boundaries without seeing warp-slice structure.
            // The error path still flushes, so e.g. a watchdog trip loses
            // no records a per-record push would have delivered.
            if r.is_err() {
                let flushed = port.flush();
                clock.charge(flushed);
            }
            match r? {
                StopReason::Done => *done = true,
                StopReason::Barrier => {}
            }
        }
        if !progressed {
            break;
        }
        if warps.iter().all(|(_, _, d)| *d) {
            break;
        }
    }
    let flushed = port.flush();
    clock.charge(flushed);
    let block_cycles = clock.cycles() - block_start;
    // Per-block attribution (profiler exec shards, per-SM cycle tracks)
    // excludes channel-push cycles: which block pays a push is
    // schedule-dependent — under a GT-key race the *winning* block pushes,
    // and congestion stalls follow the global push ordinal — so charging
    // them per block would make the serialized profile and metrics
    // snapshot diverge between `--threads 1` and `--threads 8`. The push
    // cycles stay in the block's clock (watchdog and launch totals are
    // unchanged) and are totalled deterministically by the channel itself.
    let attributed = block_cycles - port.push_cycles();
    if prof.is_enabled() {
        // Shadow-sanitizer dispatch gets its own phase so `prof report`
        // can decompose its overhead; `hook` keeps the rest.
        let shadow_calls = stats.shadow_calls - shadow_calls_before;
        let shadow_cycles = stats.shadow_cycles - shadow_cycles_before;
        let coach_calls = stats.coach_calls - coach_calls_before;
        let coach_cycles = stats.coach_cycles - coach_cycles_before;
        prof.record(
            ProfPhase::Hook,
            stats.injected_calls - calls_before - shadow_calls - coach_calls,
            stats.injected_cycles - inj_cycles_before - shadow_cycles - coach_cycles,
        );
        prof.record(ProfPhase::Shadow, shadow_calls, shadow_cycles);
        prof.record(ProfPhase::Coach, coach_calls, coach_cycles);
        prof.block_cycles(block, attributed);
    }
    channel.block_done(launch_id, block, attributed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_sass::assemble_kernel;
    use std::sync::Arc;

    fn run_kernel(
        src: &str,
        cfg: LaunchConfig,
        setup: impl FnOnce(&mut Gpu),
    ) -> (Gpu, LaunchStats) {
        let code = Arc::new(assemble_kernel(src).unwrap());
        code.validate().unwrap();
        let mut gpu = Gpu::new(Arch::Ampere);
        setup(&mut gpu);
        let stats = gpu
            .launch(&InstrumentedCode::plain(code), &cfg)
            .expect("launch failed");
        (gpu, stats)
    }

    #[test]
    fn vector_scale_kernel() {
        // out[tid] = in[tid] * 2.0
        let src = r#"
.kernel scale
    S2R R0, SR_TID.X ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    LDC R3, c[0x0][0x164] ;
    IADD3 R4, R2, R1, RZ ;
    IADD3 R5, R3, R1, RZ ;
    LDG.E R6, [R4] ;
    FMUL R7, R6, 2.0 ;
    STG.E [R5], R7 ;
    EXIT ;
"#;
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Turing);
        let in_ptr = gpu.mem.alloc_f32(&data).unwrap();
        let out_ptr = gpu.mem.alloc((data.len() * 4) as u32).unwrap();
        let cfg = LaunchConfig::new(
            1,
            64,
            vec![ParamValue::Ptr(in_ptr), ParamValue::Ptr(out_ptr)],
        );
        gpu.launch(&InstrumentedCode::plain(code), &cfg).unwrap();
        let out = gpu.mem.read_f32(out_ptr, 64).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 * 2.0, "lane {i}");
        }
        let _ = in_ptr;
    }

    #[test]
    fn divergent_if_then_else() {
        // out[tid] = tid < 16 ? 1.0 : -1.0, via a divergent branch.
        let src = r#"
.kernel diverge
    S2R R0, SR_TID.X ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    ISETP.LT.AND P0, R0, 0x10 ;
    SSY `(.L_sync) ;
    @!P0 BRA `(.L_else) ;
    MOV32I R4, 0x3f800000 ;
    BRA `(.L_sync) ;
.L_else:
    MOV32I R4, 0xbf800000 ;
.L_sync:
    SYNC ;
    STG.E [R3], R4 ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        let out = gpu.mem.alloc(32 * 4).unwrap();
        let cfg = LaunchConfig::new(1, 32, vec![ParamValue::Ptr(out)]);
        gpu.launch(&InstrumentedCode::plain(code), &cfg).unwrap();
        let vals = gpu.mem.read_f32(out, 32).unwrap();
        for (i, v) in vals.iter().enumerate() {
            let expect = if i < 16 { 1.0 } else { -1.0 };
            assert_eq!(*v, expect, "lane {i}");
        }
    }

    #[test]
    fn divergent_loop_with_per_lane_trip_counts() {
        // out[tid] = number of iterations = tid + 1 (as float, by repeated
        // FADD), with lanes leaving the loop at different times.
        let src = r#"
.kernel looped
    S2R R0, SR_TID.X ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    MOV32I R4, 0x0 ;
    MOV32I R5, 0x0 ;
    SSY `(.L_sync) ;
.L_top:
    I2F R6, R4 ;
    IADD3 R4, R4, 0x1, RZ ;
    FADD R5, R5, 1.0 ;
    ISETP.LE.AND P0, R4, R0 ;
    @P0 BRA `(.L_top) ;
.L_sync:
    SYNC ;
    STG.E [R3], R5 ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        let out = gpu.mem.alloc(32 * 4).unwrap();
        let cfg = LaunchConfig::new(1, 32, vec![ParamValue::Ptr(out)]);
        gpu.launch(&InstrumentedCode::plain(code), &cfg).unwrap();
        let vals = gpu.mem.read_f32(out, 32).unwrap();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, (i + 1) as f32, "lane {i} trip count");
        }
    }

    #[test]
    fn fp64_register_pairing_through_memory() {
        // Load an f64, double it with DADD, store it back.
        let src = r#"
.kernel dbl
    LDC R2, c[0x0][0x160] ;
    LDG.E.64 R4, [R2] ;
    DADD R6, R4, R4 ;
    STG.E.64 [R2], R6 ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Turing);
        let buf = gpu.mem.alloc_f64(&[2.5e-310]).unwrap(); // subnormal!
        let cfg = LaunchConfig::new(1, 1, vec![ParamValue::Ptr(buf)]);
        gpu.launch(&InstrumentedCode::plain(code), &cfg).unwrap();
        let v = gpu.mem.read_f64(buf, 1).unwrap()[0];
        assert_eq!(v, 2.0 * 2.5e-310f64);
    }

    #[test]
    fn predicated_exit_partial_warp() {
        // Lanes with tid >= 4 exit immediately; rest write 7.0.
        let src = r#"
.kernel pexit
    S2R R0, SR_TID.X ;
    ISETP.GE.AND P0, R0, 0x4 ;
    @P0 EXIT ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    MOV32I R4, 0x40e00000 ;
    STG.E [R3], R4 ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        let out = gpu.mem.alloc(8 * 4).unwrap();
        let cfg = LaunchConfig::new(1, 8, vec![ParamValue::Ptr(out)]);
        gpu.launch(&InstrumentedCode::plain(code), &cfg).unwrap();
        let vals = gpu.mem.read_f32(out, 8).unwrap();
        for v in &vals[..4] {
            assert_eq!(*v, 7.0);
        }
        for v in &vals[4..] {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn barrier_synchronizes_warps_through_shared_memory() {
        // Warp 0 writes shared[0]; all warps barrier; every thread reads it.
        let src = r#"
.kernel barrier
    S2R R0, SR_TID.X ;
    ISETP.NE.AND P0, R0, 0x0 ;
    MOV32I R4, 0x42280000 ;
    MOV32I R5, 0x0 ;
    @!P0 STS [R5], R4 ;
    BAR.SYNC ;
    LDS R6, [R5] ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    STG.E [R3], R6 ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        let out = gpu.mem.alloc(64 * 4).unwrap();
        let cfg = LaunchConfig::new(1, 64, vec![ParamValue::Ptr(out)]);
        gpu.launch(&InstrumentedCode::plain(code), &cfg).unwrap();
        let vals = gpu.mem.read_f32(out, 64).unwrap();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, 42.0, "thread {i} must see warp 0's store");
        }
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let src = r#"
.kernel spin
.L_top:
    BRA `(.L_top) ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        gpu.watchdog_cycles = 10_000;
        let cfg = LaunchConfig::new(1, 32, vec![]);
        let err = gpu
            .launch(&InstrumentedCode::plain(code), &cfg)
            .unwrap_err();
        assert!(matches!(err, SimError::Watchdog { .. }));
    }

    #[test]
    fn oob_store_faults() {
        let src = r#"
.kernel oob
    MOV32I R0, 0x7fffff00 ;
    STG.E [R0], R0 ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        let cfg = LaunchConfig::new(1, 1, vec![]);
        let err = gpu
            .launch(&InstrumentedCode::plain(code), &cfg)
            .unwrap_err();
        assert!(matches!(err, SimError::MemFault { .. }));
    }

    #[test]
    fn run_kernel_helper_smoke() {
        let (_gpu, stats) = run_kernel(
            ".kernel nopper\n  NOP ;\n  EXIT ;\n",
            LaunchConfig::new(1, 32, vec![]),
            |_| {},
        );
        assert_eq!(stats.exec.warp_instrs, 2);
        assert!(stats.cycles > 0);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.max_worker_cycles, stats.cycles);
    }

    #[test]
    fn stats_count_fp_instrs() {
        let src = r#"
.kernel fpcount
    MOV32I R0, 0x3f800000 ;
    FADD R1, R0, R0 ;
    FMUL R2, R1, R1 ;
    MUFU.RCP R3, R2 ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        let cfg = LaunchConfig::new(1, 32, vec![]);
        let stats = gpu.launch(&InstrumentedCode::plain(code), &cfg).unwrap();
        assert_eq!(stats.exec.fp_warp_instrs, 3);
        assert_eq!(stats.exec.warp_instrs, 5);
    }

    /// Per-thread kernel: out[global_tid] = global_tid + 1.0, addressed via
    /// CTAID so every block writes a distinct slice.
    const GRID_STAMP: &str = r#"
.kernel gstamp
    S2R R0, SR_TID.X ;
    S2R R8, SR_CTAID.X ;
    S2R R9, SR_NTID.X ;
    IMAD R0, R8, R9, R0 ;
    SHL R1, R0, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    I2F R4, R0 ;
    FADD R4, R4, 1.0 ;
    STG.E [R3], R4 ;
    EXIT ;
"#;

    fn run_grid_stamp(threads: usize, grid: u32, block: u32) -> (Vec<f32>, LaunchStats) {
        let code = Arc::new(assemble_kernel(GRID_STAMP).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        gpu.threads = threads;
        let out = gpu.mem.alloc(grid * block * 4).unwrap();
        let cfg = LaunchConfig::new(grid, block, vec![ParamValue::Ptr(out)]);
        let stats = gpu.launch(&InstrumentedCode::plain(code), &cfg).unwrap();
        (gpu.mem.read_f32(out, grid * block).unwrap(), stats)
    }

    #[test]
    fn parallel_launch_matches_serial_memory_cycles_and_stats() {
        let (serial_out, serial) = run_grid_stamp(1, 8, 64);
        let (par_out, par) = run_grid_stamp(4, 8, 64);
        assert_eq!(serial_out, par_out, "device memory must match");
        for (i, v) in par_out.iter().enumerate() {
            assert_eq!(*v, (i + 1) as f32, "thread {i}");
        }
        assert_eq!(serial.cycles, par.cycles, "total SM work is schedule-free");
        assert_eq!(serial.exec, par.exec);
        assert_eq!(serial.workers, 1);
        assert_eq!(par.workers, 4);
        // A worker's wall-clock share can never exceed the summed SM work;
        // it only *equals* it when one worker drained every block (possible
        // on short kernels — OS scheduling decides who claims blocks).
        assert!(
            par.max_worker_cycles <= par.cycles,
            "critical path {} cannot exceed total {}",
            par.max_worker_cycles,
            par.cycles
        );
        assert!(par.max_worker_cycles > 0);
    }

    /// Every issue-cost class (int, FP32, FP64, MUFU, memory, control),
    /// a lane-dependent divergent loop, a barrier, and several blocks.
    const ISSUE_MIX: &str = r#"
.kernel issue_mix
    S2R R0, SR_TID.X ;
    S2R R8, SR_CTAID.X ;
    S2R R9, SR_NTID.X ;
    IMAD R7, R8, R9, R0 ;
    SHL R1, R7, 0x2 ;
    LDC R2, c[0x0][0x160] ;
    IADD3 R3, R2, R1, RZ ;
    MOV32I R4, 0x0 ;
    MOV32I R5, 0x0 ;
    SSY `(.L_sync) ;
.L_top:
    IADD3 R4, R4, 0x1, RZ ;
    FADD R5, R5, 1.0 ;
    DADD R10, R10, R10 ;
    ISETP.LE.AND P0, R4, R0 ;
    @P0 BRA `(.L_top) ;
.L_sync:
    SYNC ;
    BAR.SYNC ;
    MUFU.RCP R6, R5 ;
    STG.E [R3], R6 ;
    EXIT ;
"#;

    #[test]
    fn issue_cycles_are_the_plain_cycles_of_a_launch() {
        use crate::hooks::{DeviceFn, InjectionCtx, PushOrigin, When};

        /// Charges its own cycles and pushes one record per call, like a
        /// reporting tool's injected function.
        struct Probe;
        impl DeviceFn for Probe {
            fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
                let pushed = ctx.channel.push(&[ctx.pc as u8]);
                ctx.clock.charge(pushed + 3);
            }
            fn num_runtime_args(&self) -> u32 {
                2
            }
        }
        struct Flat;
        impl HostChannel for Flat {
            fn push_from(&self, _o: PushOrigin, _b: &[u8], _w: usize) -> u64 {
                25
            }
        }

        let code = Arc::new(assemble_kernel(ISSUE_MIX).unwrap());
        let plain = InstrumentedCode::plain(Arc::clone(&code));
        let mut probed = InstrumentedCode::plain(Arc::clone(&code));
        for pc in 0..code.len() as u32 {
            probed.inject(pc, When::Before, Arc::new(Probe));
            probed.inject(pc, When::After, Arc::new(Probe));
        }
        let launch = |ic: &InstrumentedCode, threads: usize| {
            let mut gpu = Gpu::new(Arch::Ampere);
            gpu.threads = threads;
            let out = gpu.mem.alloc(8 * 64 * 4).unwrap();
            let cfg = LaunchConfig::new(8, 64, vec![ParamValue::Ptr(out)]);
            gpu.launch_with_channel(ic, &cfg, &Flat).unwrap()
        };
        let serial = launch(&plain, 1);
        assert!(serial.cycles > 0);
        for threads in [1, 4] {
            let p = launch(&plain, threads);
            assert_eq!(p.cycles, serial.cycles, "{threads} workers");
            assert_eq!(p.exec.issue_cycles, p.cycles, "{threads} workers: plain");
            let i = launch(&probed, threads);
            assert_eq!(
                i.exec.issue_cycles, serial.cycles,
                "{threads} workers: instrumented"
            );
            assert!(
                i.cycles > i.exec.issue_cycles + i.exec.injected_cycles,
                "{threads} workers: hooks and pushes charge on top of issue"
            );
        }
    }

    #[test]
    fn worker_pool_is_capped_by_grid_size() {
        let (_, stats) = run_grid_stamp(16, 3, 32);
        assert_eq!(stats.workers, 3);
    }

    #[test]
    fn parallel_watchdog_fires_on_infinite_loop() {
        let src = r#"
.kernel spin
.L_top:
    BRA `(.L_top) ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        gpu.watchdog_cycles = 10_000;
        gpu.threads = 4;
        let cfg = LaunchConfig::new(8, 32, vec![]);
        let err = gpu
            .launch(&InstrumentedCode::plain(code), &cfg)
            .unwrap_err();
        assert!(matches!(err, SimError::Watchdog { .. }));
        assert!(gpu.clock.cycles() > 0, "hung cycles are still charged");
    }

    #[test]
    fn parallel_error_reporting_picks_lowest_block() {
        // Only block 0 dereferences null; every worker races, but the
        // reported fault must still come from block 0.
        let src = r#"
.kernel nullref
    S2R R8, SR_CTAID.X ;
    ISETP.NE.AND P0, R8, 0x0 ;
    @P0 EXIT ;
    MOV32I R0, 0x0 ;
    LDG.E R1, [R0] ;
    EXIT ;
"#;
        let code = Arc::new(assemble_kernel(src).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        gpu.threads = 4;
        let cfg = LaunchConfig::new(8, 32, vec![]);
        let err = gpu
            .launch(&InstrumentedCode::plain(code), &cfg)
            .unwrap_err();
        match err {
            SimError::MemFault { fault, .. } => assert_eq!(fault.addr, 0),
            other => panic!("expected MemFault, got {other:?}"),
        }
    }
}
