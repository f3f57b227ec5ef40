//! [`InjectTool`]: wraps any NVBit tool and arms planned faults as
//! mutate-phase injections during the same JIT instrumentation pass, so
//! the inner tool's checks observe the mutated writebacks.

use crate::fault::{FaultFn, FaultSpec, FaultState};
use crate::site::Site;
use fpx_nvbit::tool::{Inserter, LaunchCtx, NvbitTool, ToolCtx};
use fpx_sass::instr::Instruction;
use fpx_sass::kernel::KernelCode;
use fpx_sim::hooks::Phase;
use std::sync::Arc;

/// One armed fault: its spec, resolved site, and shared outcome state.
pub struct ArmedFault {
    pub spec: FaultSpec,
    pub site: Site,
    pub state: Arc<FaultState>,
}

/// Wraps an inner tool with a fault plan. All tool callbacks delegate to
/// the inner tool; `instrument_instruction` additionally arms every
/// planned fault whose site matches the instruction, as
/// [`Phase::Mutate`] calls — so the inner tool's observe-phase hooks see
/// the injected value regardless of instrumentation order.
///
/// Launch-gated faults (`FaultSpec::launch = Some(n)`) make the plan
/// per-launch: the wrapper keys the instrumented-code cache by launch
/// index via [`LaunchCtx::plan_epoch`] and only arms the faults gated to
/// the launch being JIT-ed.
pub struct InjectTool<T> {
    pub inner: T,
    faults: Vec<ArmedFault>,
    per_launch: bool,
    current_launch: u64,
}

impl<T> InjectTool<T> {
    pub fn new(inner: T, faults: Vec<(FaultSpec, Site)>) -> Self {
        let per_launch = faults.iter().any(|(f, _)| f.launch.is_some());
        InjectTool {
            inner,
            faults: faults
                .into_iter()
                .map(|(spec, site)| ArmedFault {
                    spec,
                    site,
                    state: Arc::new(FaultState::default()),
                })
                .collect(),
            per_launch,
            current_launch: 0,
        }
    }

    /// Each armed fault's dynamic facts from the run, in plan order:
    /// ⟨times fired, oracle mask, saw an exceptional source⟩.
    pub fn fault_meta(&self) -> Vec<(u64, u32, bool)> {
        self.faults
            .iter()
            .map(|f| {
                let s = &f.state;
                (s.fired(), s.oracle_mask(), s.saw_exceptional_src())
            })
            .collect()
    }
}

impl<T: NvbitTool> NvbitTool for InjectTool<T> {
    fn set_prof(&mut self, prof: fpx_prof::Prof) {
        self.inner.set_prof(prof);
    }

    fn on_init(&mut self, ctx: &mut ToolCtx<'_>) {
        self.inner.on_init(ctx);
    }

    fn on_kernel_launch(&mut self, ctx: &mut LaunchCtx, kernel: &KernelCode) {
        self.current_launch = ctx.launch_index;
        self.inner.on_kernel_launch(ctx, kernel);
        if ctx.instrument && self.per_launch {
            // Distinct epoch per launch: the fault set armed below
            // depends on the launch index, so the build cannot be shared.
            ctx.plan_epoch = ctx.launch_index + 1;
        }
    }

    fn instrument_instruction(
        &mut self,
        kernel: &KernelCode,
        pc: u32,
        instr: &Instruction,
        inserter: &mut Inserter<'_>,
    ) {
        for f in &self.faults {
            if f.site.kernel != kernel.name || f.site.pc != pc {
                continue;
            }
            if f.spec.launch.is_some_and(|l| l != self.current_launch) {
                continue;
            }
            inserter.insert_call_phased(
                f.spec.kind.when(),
                Phase::Mutate,
                Arc::new(FaultFn {
                    kind: f.spec.kind,
                    bit: f.spec.bit,
                    target: f.site.target_for(f.spec.kind),
                    fmt: f.site.fmt,
                    reciprocal: f.site.reciprocal,
                    srcs: f.site.srcs.clone().into(),
                    state: Arc::clone(&f.state),
                }),
            );
        }
        self.inner
            .instrument_instruction(kernel, pc, instr, inserter);
    }

    fn on_channel_record(&mut self, record: &[u8]) -> u64 {
        self.inner.on_channel_record(record)
    }

    fn host_cost_per_record(&self) -> u64 {
        self.inner.host_cost_per_record()
    }

    fn on_kernel_complete(&mut self, kernel: &KernelCode) {
        self.inner.on_kernel_complete(kernel);
    }

    fn on_term(&mut self, ctx: &mut ToolCtx<'_>) {
        self.inner.on_term(ctx);
    }
}
