//! The NVBit context: owns the GPU, the tool, and the channel, and drives
//! the intercept → (JIT + instrument) → execute → drain cycle of Figure 1.

use crate::channel::Channel;
use crate::overhead::JitCost;
use crate::tool::{Inserter, LaunchCtx, NvbitTool, ToolCtx};
use fpx_obs::{Counter, JitBreakdown, LaunchObs, Obs};
use fpx_prof::{Phase as ProfPhase, Prof};
use fpx_sass::kernel::KernelCode;
use fpx_sim::exec::SimError;
use fpx_sim::gpu::{Gpu, LaunchConfig, LaunchStats};
use fpx_sim::hooks::InstrumentedCode;
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of one intercepted launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchReport {
    pub stats: LaunchStats,
    /// Channel records produced by this launch.
    pub records: u64,
    /// Whether the instrumented version ran.
    pub instrumented: bool,
    /// JIT cycles charged for this launch (zero when uninstrumented).
    pub jit_cycles: u64,
}

/// An NVBit context with a loaded tool, intercepting all launches —
/// the `LD_PRELOAD`-ed shared object of the paper's Figure 1.
pub struct Nvbit<T: NvbitTool> {
    pub gpu: Gpu,
    pub tool: T,
    pub channel: Channel,
    pub jit: JitCost,
    /// Pre-decoded instrumentation cache, keyed by ⟨kernel *content*
    /// checksum, plan epoch⟩. The *build* is cached; the JIT *cost* is
    /// still charged per instrumented launch, as the paper observes
    /// (§3.1.3). Tools with per-launch injection plans bump
    /// `LaunchCtx::plan_epoch` to force a fresh build for that launch.
    ///
    /// Keying by [`KernelCode::checksum`] (the same fingerprint `fpx-trace`
    /// stamps on recorded traces) instead of pointer identity means a
    /// kernel re-assembled into a fresh allocation — serve mode prepares
    /// the program per request — still skips the decode/instrument pass.
    /// Each entry keeps the kernel it was built from; a checksum collision
    /// is caught by metadata comparison and falls back to an uncached
    /// fresh build instead of serving the wrong instrumentation.
    cache: HashMap<(u64, u64), (Arc<KernelCode>, Arc<InstrumentedCode>)>,
    /// Pointer-keyed checksum memo. Holding the `Arc` pins the allocation,
    /// so an address in this map can never be recycled for a different
    /// kernel; repeat launches of the same handle skip the O(kernel)
    /// checksum walk.
    checksums: HashMap<usize, (Arc<KernelCode>, u64)>,
    launch_index: u64,
    /// Metrics handle; disabled (inert) by default.
    obs: Obs,
    /// Self-profiler handle; disabled (inert) by default.
    prof: Prof,
}

impl<T: NvbitTool> Nvbit<T> {
    /// Load `tool` into a fresh context (library-load interception).
    pub fn new(mut gpu: Gpu, mut tool: T) -> Self {
        let mut ctx = ToolCtx {
            mem: &mut gpu.mem,
            clock: &mut gpu.clock,
            cost: &gpu.cost,
        };
        tool.on_init(&mut ctx);
        Nvbit {
            gpu,
            tool,
            channel: Channel::default(),
            jit: JitCost::default(),
            cache: HashMap::new(),
            checksums: HashMap::new(),
            launch_index: 0,
            obs: Obs::disabled(),
            prof: Prof::disabled(),
        }
    }

    /// Attach a metrics registry. The same handle is installed on the
    /// channel, so push regimes and per-block cycles flow to it; a
    /// disabled handle costs one branch per probe site.
    pub fn set_obs(&mut self, obs: Obs) {
        self.channel.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The attached metrics handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attach a self-profiler. The handle is installed on the channel
    /// (per-push cost) and the GPU (per-block and hook-dispatch cost);
    /// launches then record `jit`/`exec`/`drain` spans and a per-kernel
    /// cycle breakdown. Tools that profile init-time structures (the
    /// detector's GT) need the handle *before* `Nvbit::new` — see
    /// [`NvbitTool::set_prof`].
    pub fn set_prof(&mut self, prof: Prof) {
        self.channel.set_prof(prof.clone());
        self.gpu.prof = prof.clone();
        self.prof = prof;
    }

    /// The attached profiler handle (disabled by default).
    pub fn prof(&self) -> &Prof {
        &self.prof
    }

    /// Content checksum for `kernel`, memoized by allocation address.
    fn kernel_key(&mut self, kernel: &Arc<KernelCode>) -> u64 {
        let ptr = Arc::as_ptr(kernel) as usize;
        if let Some((_pinned, sum)) = self.checksums.get(&ptr) {
            return *sum;
        }
        let sum = kernel.checksum();
        self.checksums.insert(ptr, (Arc::clone(kernel), sum));
        sum
    }

    /// Cheap identity check backing the checksum key: two kernels whose
    /// metadata agrees *and* whose checksums collided are treated as the
    /// same code (FNV-1a collisions across same-named, same-shaped kernels
    /// are not a realistic hazard; differing metadata is).
    fn same_kernel(a: &KernelCode, b: &KernelCode) -> bool {
        a.name == b.name
            && a.len() == b.len()
            && a.num_regs == b.num_regs
            && a.shared_bytes == b.shared_bytes
    }

    fn build_instrumented(&mut self, kernel: &Arc<KernelCode>) -> InstrumentedCode {
        let mut ic = InstrumentedCode::plain(Arc::clone(kernel));
        for pc in 0..kernel.len() as u32 {
            let instr = kernel.instrs[pc as usize].clone();
            let mut inserter = Inserter {
                ic: &mut ic,
                pc,
                inserted: 0,
            };
            self.tool
                .instrument_instruction(kernel, pc, &instr, &mut inserter);
        }
        ic
    }

    fn instrumented(&mut self, kernel: &Arc<KernelCode>, epoch: u64) -> Arc<InstrumentedCode> {
        let key = (self.kernel_key(kernel), epoch);
        if let Some((built_from, ic)) = self.cache.get(&key) {
            if Arc::ptr_eq(built_from, kernel) || Self::same_kernel(built_from, kernel) {
                return Arc::clone(ic);
            }
            // Checksum collision between genuinely different kernels:
            // build fresh without evicting the existing entry.
            return Arc::new(self.build_instrumented(kernel));
        }
        let ic = Arc::new(self.build_instrumented(kernel));
        self.cache
            .insert(key, (Arc::clone(kernel), Arc::clone(&ic)));
        ic
    }

    /// Intercept and run one kernel launch.
    pub fn launch(
        &mut self,
        kernel: &Arc<KernelCode>,
        cfg: &LaunchConfig,
    ) -> Result<LaunchReport, SimError> {
        let mut lctx = LaunchCtx {
            instrument: true,
            launch_index: self.launch_index,
            plan_epoch: 0,
        };
        self.launch_index += 1;
        self.tool.on_kernel_launch(&mut lctx, kernel);

        // Span guards borrow the handle they came from; a clone (one Arc
        // bump, or nothing when disabled) keeps `self` free for the
        // mutable calls inside each span.
        let prof = self.prof.clone();

        let (code, jit_cycles) = if lctx.instrument {
            let mut sp = prof.span(ProfPhase::Jit);
            let ic = self.instrumented(kernel, lctx.plan_epoch);
            let jit = self.jit.cycles(kernel.len(), ic.injection_count());
            self.gpu.clock.charge(jit);
            sp.add_cycles(jit);
            (ic, jit)
        } else {
            (Arc::new(InstrumentedCode::plain(Arc::clone(kernel))), 0)
        };
        let checks_injected = if lctx.instrument {
            code.injection_count() as u64
        } else {
            0
        };

        // Snapshot inputs for the launch observation before running.
        let sim_launch_id = self.gpu.launches();
        let push_cycles_before = self.channel.total_push_cycles();

        let (stats, push_delta) = {
            let mut sp = prof.span(ProfPhase::Exec);
            let stats = self.gpu.launch_with_channel(&code, cfg, &self.channel)?;
            // The `exec` span carries the *exclusive* execution cost:
            // injected-call dispatch and channel pushes are attributed to
            // their own leaf phases (`hook`, `channel_push`), so the
            // flamegraph never double-counts a cycle.
            let push_delta = self.channel.total_push_cycles() - push_cycles_before;
            sp.add_cycles(
                stats
                    .cycles
                    .saturating_sub(stats.exec.injected_cycles + push_delta),
            );
            (stats, push_delta)
        };

        let mut sp_drain = prof.span(ProfPhase::Drain);
        let records = self.channel.drain();
        let n_records = records.len() as u64;
        let host_base = self.tool.host_cost_per_record() * n_records;
        self.gpu.clock.charge(host_base);
        let mut drain_cycles = host_base;
        for r in records {
            let extra = self.tool.on_channel_record(r.bytes());
            self.gpu.clock.charge(extra);
            drain_cycles += extra;
        }
        sp_drain.add_cycles(drain_cycles);
        drop(sp_drain);
        self.tool.on_kernel_complete(kernel);

        if self.prof.is_enabled() {
            let exec_excl = stats
                .cycles
                .saturating_sub(stats.exec.injected_cycles + push_delta);
            self.prof
                .kernel_cycles(&kernel.name, ProfPhase::Jit, jit_cycles);
            self.prof
                .kernel_cycles(&kernel.name, ProfPhase::Exec, exec_excl);
            self.prof
                .kernel_cycles(&kernel.name, ProfPhase::Hook, stats.exec.injected_cycles);
            self.prof
                .kernel_cycles(&kernel.name, ProfPhase::ChannelPush, push_delta);
            self.prof
                .kernel_cycles(&kernel.name, ProfPhase::Drain, drain_cycles);
        }

        if self.obs.is_enabled() {
            self.observe_launch(
                kernel,
                lctx.instrument,
                checks_injected,
                sim_launch_id,
                jit_cycles,
                &stats,
                push_delta,
                drain_cycles,
                n_records,
            );
        }

        Ok(LaunchReport {
            stats,
            records: n_records,
            instrumented: lctx.instrument,
            jit_cycles,
        })
    }

    /// Feed one completed launch into the metrics registry: global
    /// counters, the per-kernel breakdown, and the per-launch observation
    /// (with its span tree inputs). Every quantity recorded here is
    /// schedule-free — sums of per-block modeled cycles, instruction
    /// counts, JIT/host charges — so snapshots are identical under any
    /// `--threads N` (see DESIGN.md §4).
    #[allow(clippy::too_many_arguments)]
    fn observe_launch(
        &self,
        kernel: &Arc<KernelCode>,
        instrumented: bool,
        checks_injected: u64,
        sim_launch_id: u64,
        jit_cycles: u64,
        stats: &LaunchStats,
        channel_cycles: u64,
        drain_cycles: u64,
        records: u64,
    ) {
        let e = &stats.exec;
        self.obs.bump(Counter::Launches);
        self.obs.add(Counter::SimCycles, stats.cycles);
        self.obs.add(Counter::WarpInstrs, e.warp_instrs);
        self.obs.add(Counter::FpWarpInstrs, e.fp_warp_instrs);
        self.obs.add(Counter::Fp32WarpInstrs, e.fp32_warp_instrs);
        self.obs.add(Counter::Fp64WarpInstrs, e.fp64_warp_instrs);
        self.obs.add(Counter::Fp16WarpInstrs, e.fp16_warp_instrs);
        self.obs.add(Counter::InjectedCalls, e.injected_calls);
        self.obs.add(Counter::InjectedCycles, e.injected_cycles);
        self.obs.add(Counter::HostRecords, records);
        self.obs.add(Counter::HostDrainCycles, drain_cycles);
        let jit = if instrumented {
            self.obs.bump(Counter::InstrumentedLaunches);
            self.obs.add(Counter::ChecksInjected, checks_injected);
            self.obs.bump(Counter::JitLaunches);
            self.obs.add(Counter::JitCycles, jit_cycles);
            let jit = JitBreakdown {
                base: self.jit.base,
                per_instr: self.jit.per_instr * kernel.len() as u64,
                per_injection: self.jit.per_injection * checks_injected,
            };
            self.obs.add(Counter::JitBaseCycles, jit.base);
            self.obs.add(Counter::JitInstrCycles, jit.per_instr);
            self.obs.add(Counter::JitInjectionCycles, jit.per_injection);
            jit
        } else {
            JitBreakdown::default()
        };
        self.obs.kernel_add(
            &kernel.name,
            &[
                (Counter::Launches, 1),
                (Counter::SimCycles, stats.cycles),
                (Counter::WarpInstrs, e.warp_instrs),
                (Counter::FpWarpInstrs, e.fp_warp_instrs),
                (Counter::ChecksInjected, checks_injected),
                (Counter::HostRecords, records),
            ],
        );
        self.obs.finish_launch(LaunchObs {
            launch: sim_launch_id,
            kernel: kernel.name.clone(),
            instrumented,
            checks_injected,
            jit,
            exec_cycles: stats.cycles,
            injected_cycles: e.injected_cycles,
            channel_cycles,
            drain_cycles,
            records,
            sm_cycles: Vec::new(),
        });
    }

    /// Tear down the context; the tool emits its final report.
    pub fn terminate(&mut self) {
        let mut ctx = ToolCtx {
            mem: &mut self.gpu.mem,
            clock: &mut self.gpu.clock,
            cost: &self.gpu.cost,
        };
        self.tool.on_term(&mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_sass::assemble_kernel;
    use fpx_sass::instr::Instruction;
    use fpx_sim::gpu::Arch;
    use fpx_sim::hooks::{DeviceFn, InjectionCtx, When};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc as StdArc;

    /// A tool that counts FP instructions it instruments and records it
    /// receives, and pushes one record per FP warp-instruction execution.
    struct CountingTool {
        instrumented_sites: usize,
        received: usize,
        skip_launches: bool,
    }

    struct PushFn {
        calls: StdArc<AtomicU64>,
    }

    impl DeviceFn for PushFn {
        fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let stall = ctx.channel.push(&[0xab]);
            ctx.clock.charge(stall);
        }
    }

    impl NvbitTool for CountingTool {
        fn on_kernel_launch(&mut self, ctx: &mut LaunchCtx, _k: &KernelCode) {
            if self.skip_launches {
                ctx.instrument = false;
            }
        }

        fn instrument_instruction(
            &mut self,
            _kernel: &KernelCode,
            _pc: u32,
            instr: &Instruction,
            inserter: &mut Inserter<'_>,
        ) {
            if instr.opcode.base.is_fp_instrumented() {
                self.instrumented_sites += 1;
                inserter.insert_call(
                    When::After,
                    StdArc::new(PushFn {
                        calls: StdArc::new(AtomicU64::new(0)),
                    }),
                );
            }
        }

        fn on_channel_record(&mut self, _r: &[u8]) -> u64 {
            self.received += 1;
            0
        }
    }

    fn fp_kernel() -> StdArc<KernelCode> {
        StdArc::new(
            assemble_kernel(
                r#"
.kernel fp3
    MOV32I R0, 0x3f800000 ;
    FADD R1, R0, R0 ;
    FMUL R2, R1, R1 ;
    MUFU.RCP R3, R2 ;
    EXIT ;
"#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn instrumentation_runs_and_records_flow_to_host() {
        let tool = CountingTool {
            instrumented_sites: 0,
            received: 0,
            skip_launches: false,
        };
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), tool);
        let k = fp_kernel();
        let cfg = LaunchConfig::new(1, 32, vec![]);
        let rep = nv.launch(&k, &cfg).unwrap();
        assert!(rep.instrumented);
        assert_eq!(nv.tool.instrumented_sites, 3);
        // 1 warp × 3 FP instructions → 3 records.
        assert_eq!(rep.records, 3);
        assert_eq!(nv.tool.received, 3);
        assert!(rep.jit_cycles > 0);
    }

    #[test]
    fn disabled_launch_pays_no_jit_and_produces_no_records() {
        let tool = CountingTool {
            instrumented_sites: 0,
            received: 0,
            skip_launches: true,
        };
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), tool);
        let k = fp_kernel();
        let cfg = LaunchConfig::new(1, 32, vec![]);
        let rep = nv.launch(&k, &cfg).unwrap();
        assert!(!rep.instrumented);
        assert_eq!(rep.records, 0);
        assert_eq!(rep.jit_cycles, 0);
        assert_eq!(nv.tool.received, 0);
    }

    #[test]
    fn jit_charged_every_instrumented_launch_but_built_once() {
        let tool = CountingTool {
            instrumented_sites: 0,
            received: 0,
            skip_launches: false,
        };
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), tool);
        let k = fp_kernel();
        let cfg = LaunchConfig::new(1, 32, vec![]);
        let r1 = nv.launch(&k, &cfg).unwrap();
        let r2 = nv.launch(&k, &cfg).unwrap();
        assert_eq!(r1.jit_cycles, r2.jit_cycles);
        assert!(r2.jit_cycles > 0, "JIT cost recurs per launch");
        // instrument_instruction ran only once per instruction.
        assert_eq!(nv.tool.instrumented_sites, 3);
    }

    #[test]
    fn decode_cache_hits_on_reassembled_identical_kernel() {
        let tool = CountingTool {
            instrumented_sites: 0,
            received: 0,
            skip_launches: false,
        };
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), tool);
        let cfg = LaunchConfig::new(1, 32, vec![]);
        // Two distinct allocations of byte-identical SASS — the serve-mode
        // hot case, where each request re-prepares the program.
        let k1 = fp_kernel();
        let k2 = fp_kernel();
        assert!(!StdArc::ptr_eq(&k1, &k2));
        assert_eq!(k1.checksum(), k2.checksum());
        let r1 = nv.launch(&k1, &cfg).unwrap();
        let r2 = nv.launch(&k2, &cfg).unwrap();
        // The content-keyed cache skips the decode/instrument pass for the
        // re-assembled copy; the JIT *cost* still recurs per launch.
        assert_eq!(nv.tool.instrumented_sites, 3);
        assert_eq!(r1.jit_cycles, r2.jit_cycles);
        assert_eq!(r1.records, r2.records);
    }

    #[test]
    fn decode_cache_metadata_check_rejects_foreign_kernels() {
        let tool = CountingTool {
            instrumented_sites: 0,
            received: 0,
            skip_launches: false,
        };
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), tool);
        let cfg = LaunchConfig::new(1, 32, vec![]);
        let k1 = fp_kernel();
        nv.launch(&k1, &cfg).unwrap();
        assert_eq!(nv.tool.instrumented_sites, 3);
        // A different kernel (different name/shape) must build fresh even
        // if it were forced onto the same cache slot.
        let k2 = StdArc::new(
            assemble_kernel(
                r#"
.kernel other
    MOV32I R0, 0x3f800000 ;
    FADD R1, R0, R0 ;
    EXIT ;
"#,
            )
            .unwrap(),
        );
        assert_ne!(k1.checksum(), k2.checksum());
        nv.launch(&k2, &cfg).unwrap();
        assert_eq!(nv.tool.instrumented_sites, 4, "fresh build for new code");
        // And the collision guard itself: different metadata is never
        // treated as the same kernel.
        assert!(!Nvbit::<CountingTool>::same_kernel(&k1, &k2));
    }

    #[test]
    fn obs_registry_captures_launch_counters_and_virtual_sm_cycles() {
        let tool = CountingTool {
            instrumented_sites: 0,
            received: 0,
            skip_launches: false,
        };
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), tool);
        let obs = Obs::with_sms(4);
        nv.set_obs(obs.clone());
        let k = fp_kernel();
        let rep = nv.launch(&k, &LaunchConfig::new(2, 64, vec![])).unwrap();
        let snap = obs.registry().unwrap().snapshot();
        assert_eq!(snap.get(Counter::Launches), 1);
        assert_eq!(snap.get(Counter::InstrumentedLaunches), 1);
        assert_eq!(snap.get(Counter::ChecksInjected), 3);
        // 2 blocks × 2 warps × 3 FP instructions, one record each.
        assert_eq!(snap.get(Counter::HostRecords), 12);
        assert_eq!(snap.get(Counter::ChannelPushes), 12);
        assert_eq!(snap.get(Counter::JitCycles), rep.jit_cycles);
        assert!(snap.get(Counter::SimCycles) > 0);
        assert!(snap.get(Counter::Fp32WarpInstrs) > 0);
        assert_eq!(snap.launches.len(), 1);
        let lo = &snap.launches[0];
        assert_eq!(lo.kernel, "fp3");
        assert_eq!(lo.records, 12);
        assert_eq!(lo.jit.total(), rep.jit_cycles);
        assert_eq!(lo.sm_cycles.len(), 4, "virtual SM shards sized by with_sms");
        assert!(
            lo.sm_cycles.iter().sum::<u64>() > 0,
            "block cycles flowed through Channel::block_done"
        );
        let span = lo.span_tree();
        assert_eq!(span.name, "launch");
        assert!(!span.children.is_empty());
        // Per-kernel breakdown recorded under the kernel's name.
        assert!(snap.per_kernel.contains_key("fp3"));
    }

    #[test]
    fn per_launch_plan_epochs_rebuild_instrumentation() {
        /// A tool whose injection plan differs per launch: it keys the
        /// cache by launch index, so `instrument_instruction` re-runs for
        /// every launch instead of reusing the first build.
        struct PerLaunchTool {
            builds: usize,
        }
        impl NvbitTool for PerLaunchTool {
            fn on_kernel_launch(&mut self, ctx: &mut LaunchCtx, _k: &KernelCode) {
                ctx.plan_epoch = ctx.launch_index;
            }
            fn instrument_instruction(
                &mut self,
                _kernel: &KernelCode,
                pc: u32,
                _instr: &Instruction,
                _inserter: &mut Inserter<'_>,
            ) {
                if pc == 0 {
                    self.builds += 1;
                }
            }
        }
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), PerLaunchTool { builds: 0 });
        let k = fp_kernel();
        let cfg = LaunchConfig::new(1, 32, vec![]);
        nv.launch(&k, &cfg).unwrap();
        nv.launch(&k, &cfg).unwrap();
        nv.launch(&k, &cfg).unwrap();
        assert_eq!(nv.tool.builds, 3, "one instrumentation pass per epoch");
    }

    #[test]
    fn instrumented_launch_is_slower_than_plain() {
        let mk = |skip| CountingTool {
            instrumented_sites: 0,
            received: 0,
            skip_launches: skip,
        };
        let k = fp_kernel();
        let cfg = LaunchConfig::new(4, 128, vec![]);
        let mut plain = Nvbit::new(Gpu::new(Arch::Ampere), mk(true));
        plain.launch(&k, &cfg).unwrap();
        let base = plain.gpu.clock.cycles();
        let mut inst = Nvbit::new(Gpu::new(Arch::Ampere), mk(false));
        inst.launch(&k, &cfg).unwrap();
        let slow = inst.gpu.clock.cycles();
        assert!(
            slow > 2 * base,
            "instrumented {slow} should far exceed plain {base}"
        );
    }
}
