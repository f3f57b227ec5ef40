//! Replay: drive any [`NvbitTool`] from a recorded trace, without
//! re-simulating the program.
//!
//! The replayer reproduces, charge for charge, what `Nvbit::launch` does
//! around a live simulation — minus the simulation itself, whose cycles
//! the trace's plain profile supplies:
//!
//! * `on_init` on a private device memory (the detector allocates its GT
//!   there, exactly as live) with the `gt_alloc` setup charge;
//! * per launch: `on_kernel_launch` (so white-lists and `freq-redn`
//!   sampling make the *same* skip decisions), the per-launch JIT charge,
//!   the recorded plain execution cycles, and then every recorded visit
//!   replayed through the tool's injected device functions — same
//!   register values, same `injected_call`/`injected_arg` charges, same
//!   channel pushes through per-block [`ChannelPort`]s (so congestion
//!   stalls and ⟨launch, block, seq⟩ stamps match a serial live run);
//! * per launch end: drain, `host_cost_per_record`, `on_channel_record`,
//!   `on_kernel_complete`; finally `on_term`.
//!
//! **Equivalence guarantee**: for a run that does not trip the hang
//! watchdog, replay is bit-exact with a serial live run — identical
//! deduplicated record sets, flow-state classifications, *and* total
//! cycles (asserted by this module's tests and the cross-crate property
//! tests). Hung runs are cut off at launch granularity rather than at
//! the live watchdog's warp-slice granularity, so a hung replay reports
//! `hung = true` with an approximate cycle count.

use crate::format::{kernel_checksum, Trace, TraceError, Visit};
use crate::record::referenced_regs;
use fpx_nvbit::channel::Channel;
use fpx_nvbit::overhead::JitCost;
use fpx_nvbit::tool::{Inserter, LaunchCtx, NvbitTool, ToolCtx};
use fpx_obs::{Counter, JitBreakdown, LaunchObs, Obs};
use fpx_prof::{Phase as ProfPhase, Prof};
use fpx_sass::kernel::KernelCode;
use fpx_sim::exec::lanes_of;
use fpx_sim::hooks::{ChannelPort, Injection, InjectionCtx, InstrumentedCode, When};
use fpx_sim::mem::{ConstBanks, DeviceMemory};
use fpx_sim::timing::{Clock, CostModel};
use fpx_sim::warp::WarpLanes;
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of replaying a trace through one tool.
pub struct Replayed<T> {
    /// The tool, with whatever reports it accumulated.
    pub tool: T,
    /// Modeled cycles — matches a serial live run of the same
    /// configuration when not hung.
    pub cycles: u64,
    /// Channel records the tool produced during replay.
    pub records: u64,
    pub instrumented_launches: u64,
    pub skipped_launches: u64,
    /// The cycle budget was exceeded; replay was cut off.
    pub hung: bool,
    /// Visits fed through injected functions.
    pub visits_replayed: u64,
    /// Total channel pushes the tool performed.
    pub channel_pushes: u64,
}

/// Replays a parsed [`Trace`] through tools.
pub struct TraceReplayer {
    trace: Trace,
    /// Kernels in trace-id order, verified against the recorded metadata.
    kernels: Vec<Arc<KernelCode>>,
}

impl TraceReplayer {
    /// Bind a trace to the kernels it was recorded from (typically
    /// rebuilt by preparing the program named in the trace header).
    /// Every kernel the trace references must be present, with matching
    /// instruction count and disassembly checksum.
    pub fn new(trace: Trace, kernels: &[Arc<KernelCode>]) -> Result<Self, TraceError> {
        let by_name: HashMap<&str, &Arc<KernelCode>> =
            kernels.iter().map(|k| (k.name.as_str(), k)).collect();
        let mut resolved = Vec::with_capacity(trace.kernels.len());
        for meta in &trace.kernels {
            let k = by_name
                .get(meta.name.as_str())
                .ok_or_else(|| TraceError::KernelMismatch {
                    kernel: meta.name.clone(),
                    reason: "not present in the rebuilt program".into(),
                })?;
            if k.num_regs != meta.num_regs {
                return Err(TraceError::KernelMismatch {
                    kernel: meta.name.clone(),
                    reason: format!(
                        "register count {} differs from recorded {}",
                        k.num_regs, meta.num_regs
                    ),
                });
            }
            if k.len() as u32 != meta.num_instrs {
                return Err(TraceError::KernelMismatch {
                    kernel: meta.name.clone(),
                    reason: format!(
                        "instruction count {} differs from recorded {}",
                        k.len(),
                        meta.num_instrs
                    ),
                });
            }
            if kernel_checksum(k) != meta.checksum {
                return Err(TraceError::KernelMismatch {
                    kernel: meta.name.clone(),
                    reason: "disassembly checksum differs (code changed since recording)".into(),
                });
            }
            resolved.push(Arc::clone(k));
        }
        Ok(TraceReplayer {
            trace,
            kernels: resolved,
        })
    }

    /// Parse `bytes` and bind to `kernels`.
    pub fn from_bytes(bytes: &[u8], kernels: &[Arc<KernelCode>]) -> Result<Self, TraceError> {
        Self::new(Trace::from_bytes(bytes)?, kernels)
    }

    /// The bound trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Replay the whole trace through `tool`. `watchdog` is the total
    /// cycle budget (the runner's hang limit); `None` runs unbounded.
    pub fn replay<T: NvbitTool>(&self, tool: T, watchdog: Option<u64>) -> Replayed<T> {
        self.replay_observed(tool, watchdog, Obs::disabled())
    }

    /// Like [`TraceReplayer::replay`], feeding the metrics registry behind
    /// `obs` as the replay progresses: launch/JIT/host counters, channel
    /// push regimes, per-launch observations, and per-SM cycle shards
    /// (from the trace's recorded per-block plain cycles).
    ///
    /// Two divergences from a live observed run, both inherent to replay:
    /// instruction-mix counters (`WarpInstrs` and the FP class split) stay
    /// zero because replay never interprets the kernel body, and per-SM
    /// shards reflect recorded *plain* block cycles — injection and stall
    /// cycles are charged to the launch, not to a block.
    pub fn replay_observed<T: NvbitTool>(
        &self,
        tool: T,
        watchdog: Option<u64>,
        obs: Obs,
    ) -> Replayed<T> {
        self.replay_profiled(tool, watchdog, obs, Prof::disabled())
    }

    /// Like [`TraceReplayer::replay_observed`], additionally feeding the
    /// self-profiler behind `prof`: `jit`/`exec`/`drain` spans per launch,
    /// hook-dispatch and channel-push leaf phases, per-kernel cycle
    /// breakdowns, and per-block shard attribution from the trace's
    /// recorded plain cycles — the same schedule-free quantities a live
    /// profiled run records, so `run --profile` and `trace replay
    /// --profile` decompose with one vocabulary.
    pub fn replay_profiled<T: NvbitTool>(
        &self,
        tool: T,
        watchdog: Option<u64>,
        obs: Obs,
        prof: Prof,
    ) -> Replayed<T> {
        let mut tool = tool;
        tool.set_prof(prof.clone());
        let mut mem = DeviceMemory::default();
        let mut clock = Clock::default();
        let cost = CostModel::default();
        let jit = JitCost::default();
        let cbanks = ConstBanks::new();
        let mut channel = Channel::default();
        channel.set_obs(obs.clone());
        channel.set_prof(prof.clone());
        let budget = watchdog.unwrap_or(u64::MAX);

        tool.on_init(&mut ToolCtx {
            mem: &mut mem,
            clock: &mut clock,
            cost: &cost,
        });

        // Instrumentation per trace kernel id: the build happens once
        // per kernel, the JIT cost recurs per launch — exactly the live
        // `Nvbit` behaviour.
        let mut hooks: Vec<Option<KernelHooks>> = self.kernels.iter().map(|_| None).collect();
        let mut records_total = 0u64;
        let mut instrumented = 0u64;
        let mut skipped = 0u64;
        let mut visits_replayed = 0u64;
        let mut hung = false;

        for (launch_index, lt) in self.trace.launches.iter().enumerate() {
            let kernel = &self.kernels[lt.kernel as usize];
            let mut lctx = LaunchCtx {
                instrument: true,
                launch_index: launch_index as u64,
                plan_epoch: 0,
            };
            tool.on_kernel_launch(&mut lctx, kernel);

            let launch_start = clock.cycles();
            if !lctx.instrument {
                // Skipped launch: plain execution, no JIT, no records.
                clock.charge(lt.plain_cycles);
                skipped += 1;
                tool.on_kernel_complete(kernel);
                if obs.is_enabled() {
                    observe_replayed_launch(
                        &obs,
                        launch_index as u64,
                        kernel,
                        lt,
                        false,
                        0,
                        JitBreakdown::default(),
                        lt.plain_cycles,
                        0,
                        0,
                        0,
                        0,
                        0,
                    );
                }
                if clock.cycles() > budget {
                    hung = true;
                    break;
                }
                continue;
            }

            let mut sp_jit = prof.span(ProfPhase::Jit);
            let kh = hooks[lt.kernel as usize]
                .get_or_insert_with(|| KernelHooks::build(&mut tool, kernel));
            let jit_cycles = jit.cycles(kernel.len(), kh.injections);
            clock.charge(jit_cycles);
            sp_jit.add_cycles(jit_cycles);
            drop(sp_jit);
            let exec_start = clock.cycles();
            let push_cycles_before = channel.total_push_cycles();
            let mut inj_calls = 0u64;
            let mut inj_cycles = 0u64;
            let mut shadow_calls = 0u64;
            let mut shadow_cycles = 0u64;
            let mut coach_calls = 0u64;
            let mut coach_cycles = 0u64;
            clock.charge(lt.plain_cycles);

            let mut sp_exec = prof.span(ProfPhase::Exec);
            let mut lanes = WarpLanes::new(kernel.num_regs);
            let mut launch_hung = false;
            {
                // One port per block, opened at the block's first push.
                let mut ports: Vec<Option<ChannelPort<'_>>> =
                    lt.block_cycles.iter().map(|_| None).collect();
                for v in lt.visits.iter() {
                    let Some(regs) = kh.regs.get(v.pc as usize) else {
                        break; // pc out of range: stale trace, stop feeding
                    };
                    if v.values.len() != v.lanes() * regs.len() {
                        break; // value layout mismatch: stop feeding
                    }
                    let Some(port) = ports.get_mut(v.block as usize) else {
                        break; // block out of range: stop feeding
                    };
                    visits_replayed += 1;
                    // Every visit carries all the registers its injected
                    // functions read, so visits without a matching
                    // injection (e.g. Before visits under a tool that
                    // only instruments After) need no register staging —
                    // and, as live, cost no cycles.
                    let injections = kh.at(v.pc, v.when);
                    if injections.is_empty() {
                        continue;
                    }
                    stage(&mut lanes, regs, &v);
                    let port = port.get_or_insert_with(|| {
                        ChannelPort::new(&channel, launch_index as u64, v.block)
                    });
                    for inj in injections {
                        let call_cycles =
                            cost.injected_call + cost.injected_arg * inj.args() as u64;
                        clock.charge(call_cycles);
                        inj_calls += 1;
                        inj_cycles += call_cycles;
                        if inj.is_shadow() {
                            shadow_calls += 1;
                            shadow_cycles += call_cycles;
                        } else if inj.is_coach() {
                            coach_calls += 1;
                            coach_cycles += call_cycles;
                        }
                        let mut ctx = InjectionCtx {
                            kernel_name: &kernel.name,
                            launch_id: launch_index as u64,
                            pc: v.pc,
                            block: v.block,
                            warp: v.warp as u32,
                            exec_mask: v.exec_mask,
                            guarded_mask: v.guarded_mask,
                            lanes: &mut lanes,
                            global: &mem,
                            cbanks: &cbanks,
                            clock: &mut clock,
                            channel: port,
                        };
                        inj.func.call(&mut ctx);
                    }
                    // Mirror the live watchdog: a single launch exceeding
                    // the whole remaining budget aborts mid-launch (the
                    // drain never happens, as in `Nvbit::launch` erroring).
                    if clock.cycles() > launch_start.saturating_add(budget) {
                        launch_hung = true;
                        break;
                    }
                }
                // Ship every port's staged partial batch, in block order,
                // exactly as live flushes at block end (and on the
                // watchdog error path). Mid-stream cap flushes already
                // happened inside `ChannelPort::stage`, so batch
                // boundaries — and the amortized base cost — match the
                // live run's per-block composition.
                for port in ports.iter_mut().flatten() {
                    let flushed = port.flush();
                    clock.charge(flushed);
                }
            }
            let exec_cycles = clock.cycles() - exec_start;
            let push_delta = channel.total_push_cycles() - push_cycles_before;
            // Exclusive exec cycles, as live: hook dispatch and channel
            // pushes carry their own phases.
            sp_exec.add_cycles(exec_cycles.saturating_sub(inj_cycles + push_delta));
            drop(sp_exec);
            if prof.is_enabled() {
                // Mirror the live split: shadow-sanitizer dispatch gets
                // its own phase, `hook` keeps the rest.
                prof.record(
                    ProfPhase::Hook,
                    inj_calls - shadow_calls - coach_calls,
                    inj_cycles - shadow_cycles - coach_cycles,
                );
                prof.record(ProfPhase::Shadow, shadow_calls, shadow_cycles);
                prof.record(ProfPhase::Coach, coach_calls, coach_cycles);
                for (block, cycles) in lt.block_cycles.iter().enumerate() {
                    prof.block_cycles(block as u32, *cycles);
                }
            }
            if launch_hung {
                hung = true;
                break;
            }

            let mut sp_drain = prof.span(ProfPhase::Drain);
            let records = channel.drain();
            let host_base = tool.host_cost_per_record() * records.len() as u64;
            clock.charge(host_base);
            let mut drain_cycles = host_base;
            for r in records {
                let extra = tool.on_channel_record(r.bytes());
                clock.charge(extra);
                drain_cycles += extra;
            }
            sp_drain.add_cycles(drain_cycles);
            drop(sp_drain);
            records_total += records.len() as u64;
            instrumented += 1;
            tool.on_kernel_complete(kernel);
            if prof.is_enabled() {
                let exec_excl = exec_cycles.saturating_sub(inj_cycles + push_delta);
                prof.kernel_cycles(&kernel.name, ProfPhase::Jit, jit_cycles);
                prof.kernel_cycles(&kernel.name, ProfPhase::Exec, exec_excl);
                prof.kernel_cycles(
                    &kernel.name,
                    ProfPhase::Hook,
                    inj_cycles - shadow_cycles - coach_cycles,
                );
                prof.kernel_cycles(&kernel.name, ProfPhase::ChannelPush, push_delta);
                prof.kernel_cycles(&kernel.name, ProfPhase::Drain, drain_cycles);
                prof.kernel_cycles(&kernel.name, ProfPhase::Shadow, shadow_cycles);
                prof.kernel_cycles(&kernel.name, ProfPhase::Coach, coach_cycles);
            }
            if obs.is_enabled() {
                observe_replayed_launch(
                    &obs,
                    launch_index as u64,
                    kernel,
                    lt,
                    true,
                    kh.injections as u64,
                    JitBreakdown {
                        base: jit.base,
                        per_instr: jit.per_instr * kernel.len() as u64,
                        per_injection: jit.per_injection * kh.injections as u64,
                    },
                    exec_cycles,
                    inj_calls,
                    inj_cycles,
                    push_delta,
                    drain_cycles,
                    records.len() as u64,
                );
            }
            if clock.cycles() > budget {
                hung = true;
                break;
            }
        }

        tool.on_term(&mut ToolCtx {
            mem: &mut mem,
            clock: &mut clock,
            cost: &cost,
        });

        Replayed {
            tool,
            cycles: clock.cycles(),
            records: records_total,
            instrumented_launches: instrumented,
            skipped_launches: skipped,
            hung,
            visits_replayed,
            channel_pushes: channel.total_pushes(),
        }
    }
}

/// One kernel's instrumentation as replay reads it: each hook point's
/// injections, found by ⟨pc, when⟩ without rescanning the pc's list, and
/// the registers each pc's visits stage.
struct KernelHooks {
    /// `by_pc[pc][when]`: the injections at that hook point, in the
    /// order the engine runs them (mutators first, then registration
    /// order).
    by_pc: Vec<[Vec<Injection>; 2]>,
    /// `regs[pc]`: the registers a visit at `pc` carries, in recorded
    /// order ([`referenced_regs`]).
    regs: Vec<Vec<u8>>,
    /// Total injections attached (the JIT charge scales with this).
    injections: usize,
}

impl KernelHooks {
    /// Instrument `kernel` with `tool` and index the result.
    fn build<T: NvbitTool>(tool: &mut T, kernel: &Arc<KernelCode>) -> KernelHooks {
        let mut ic = InstrumentedCode::plain(Arc::clone(kernel));
        let mut regs = Vec::with_capacity(kernel.len());
        for pc in 0..kernel.len() as u32 {
            let instr = kernel.instrs[pc as usize].clone();
            let mut inserter = Inserter::new(&mut ic, pc);
            tool.instrument_instruction(kernel, pc, &instr, &mut inserter);
            regs.push(referenced_regs(&instr));
        }
        let injections = ic.injection_count();
        let by_pc = ic
            .injections
            .into_iter()
            .map(|list| {
                let (before, after) = list.into_iter().partition(|i| i.when == When::Before);
                [before, after]
            })
            .collect();
        KernelHooks {
            by_pc,
            regs,
            injections,
        }
    }

    /// The injections at ⟨`pc`, `when`⟩ (`pc` is in range: its `regs`
    /// entry was found first).
    #[inline]
    fn at(&self, pc: u32, when: When) -> &[Injection] {
        &self.by_pc[pc as usize][(when == When::After) as usize]
    }
}

/// Write `v`'s values into `lanes`: one row copy per register for a
/// full-mask visit, lane by lane into the guarded lanes otherwise.
fn stage(lanes: &mut WarpLanes, regs: &[u8], v: &Visit<'_>) {
    let k = v.lanes();
    if k == 0 {
        return;
    }
    if v.guarded_mask == u32::MAX {
        for (&r, row) in regs.iter().zip(v.values.chunks_exact(32)) {
            lanes.set_reg_row(r, row.try_into().expect("a 32-lane row"));
        }
    } else {
        for (&r, row) in regs.iter().zip(v.values.chunks_exact(k)) {
            for (lane, &x) in lanes_of(v.guarded_mask).zip(row) {
                lanes.set_reg(lane, r, x);
            }
        }
    }
}

/// Feed one replayed launch into the metrics registry: the same global
/// counters, per-kernel batch, and per-launch observation a live observed
/// run records (minus instruction mix, which replay cannot see).
#[allow(clippy::too_many_arguments)]
fn observe_replayed_launch(
    obs: &Obs,
    launch: u64,
    kernel: &Arc<KernelCode>,
    lt: &crate::format::LaunchTrace,
    instrumented: bool,
    checks_injected: u64,
    jit: JitBreakdown,
    exec_cycles: u64,
    inj_calls: u64,
    inj_cycles: u64,
    channel_cycles: u64,
    drain_cycles: u64,
    records: u64,
) {
    obs.bump(Counter::Launches);
    obs.add(Counter::SimCycles, exec_cycles);
    obs.add(Counter::InjectedCalls, inj_calls);
    obs.add(Counter::InjectedCycles, inj_cycles);
    obs.add(Counter::HostRecords, records);
    obs.add(Counter::HostDrainCycles, drain_cycles);
    if instrumented {
        obs.bump(Counter::InstrumentedLaunches);
        obs.add(Counter::ChecksInjected, checks_injected);
        obs.bump(Counter::JitLaunches);
        obs.add(Counter::JitCycles, jit.total());
        obs.add(Counter::JitBaseCycles, jit.base);
        obs.add(Counter::JitInstrCycles, jit.per_instr);
        obs.add(Counter::JitInjectionCycles, jit.per_injection);
    }
    // Per-SM attribution from the recorded per-block plain cycles.
    for (block, cycles) in lt.block_cycles.iter().enumerate() {
        obs.block_cycles(launch, block as u32, *cycles);
    }
    obs.kernel_add(
        &kernel.name,
        &[
            (Counter::Launches, 1),
            (Counter::SimCycles, exec_cycles),
            (Counter::ChecksInjected, checks_injected),
            (Counter::HostRecords, records),
        ],
    );
    obs.finish_launch(LaunchObs {
        launch,
        kernel: kernel.name.clone(),
        instrumented,
        checks_injected,
        jit,
        exec_cycles,
        injected_cycles: inj_cycles,
        channel_cycles,
        drain_cycles,
        records,
        sm_cycles: Vec::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(guarded_mask: u32, values: &[u32]) -> Visit<'_> {
        Visit {
            pc: 0,
            when: When::Before,
            block: 0,
            warp: 0,
            exec_mask: guarded_mask,
            guarded_mask,
            exceptional: false,
            values,
        }
    }

    #[test]
    fn stage_writes_rows_and_scatters_partial_masks() {
        let mut lanes = WarpLanes::new(8);
        // Full mask: one row per register.
        let full: Vec<u32> = (0..64).collect();
        stage(&mut lanes, &[2, 5], &visit(u32::MAX, &full));
        for lane in 0..32 {
            assert_eq!(lanes.reg(lane, 2), lane);
            assert_eq!(lanes.reg(lane, 5), 32 + lane);
        }
        // Lanes 1, 3 and 30, register-major: R2's three lanes, then R5's.
        let partial = [100, 101, 102, 200, 201, 202];
        stage(
            &mut lanes,
            &[2, 5],
            &visit(1 << 1 | 1 << 3 | 1 << 30, &partial),
        );
        for (lane, r2, r5) in [(1, 100, 200), (3, 101, 201), (30, 102, 202)] {
            assert_eq!(lanes.reg(lane, 2), r2, "lane {lane}");
            assert_eq!(lanes.reg(lane, 5), r5, "lane {lane}");
        }
        // Unguarded lanes keep what the full-mask visit staged.
        assert_eq!(lanes.reg(0, 2), 0);
        assert_eq!(lanes.reg(2, 5), 34);
        assert_eq!(lanes.reg(31, 2), 31);
    }
}
