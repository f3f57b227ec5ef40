//! Instrumentation hook points: how injected "device functions" attach to
//! instructions and what state they see when the simulator reaches them.
//!
//! `fpx-nvbit` builds its NVBit-like API on these primitives; tools
//! (GPU-FPX, BinFPE) never talk to this module directly.

use crate::mem::{ConstBanks, DeviceMemory};
use crate::timing::Clock;
use crate::warp::WarpLanes;
use fpx_sass::kernel::KernelCode;
use std::sync::Arc;

/// Whether an injection runs before or after its instruction executes.
///
/// GPU-FPX's detector injects *after* (it checks destination values);
/// the analyzer additionally injects *before* when destination and source
/// share a register, so the pre-overwrite source value is still visible
/// (paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    Before,
    After,
}

/// Identity of one channel push: which launch it belongs to, which thread
/// block produced it, and the block-local push sequence number.
///
/// Blocks run concurrently on worker threads (one logical SM each), so
/// records reach the channel in a nondeterministic interleaving. Sorting
/// drained records by `(launch, block, seq)` — the derived `Ord` — restores
/// exactly the order a serial block-by-block execution would have produced,
/// because within one block warps are scheduled round-robin identically in
/// both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PushOrigin {
    pub launch: u64,
    pub block: u32,
    pub seq: u64,
}

/// One record staged in a [`StagedBatch`]: its pre-stamped sequence
/// number, the payload's span in the batch's shared byte buffer, and the
/// wire size cost accounting uses.
#[derive(Debug, Clone, Copy)]
pub struct StagedEntry {
    /// Block-local push sequence number, stamped at *stage* time — this is
    /// what keeps the host-side ⟨launch, block, seq⟩ merge byte-identical
    /// to per-record pushes no matter when the batch is flushed.
    pub seq: u64,
    start: u32,
    end: u32,
    /// Wire size of this record (see [`HostChannel::push_from`]).
    pub wire_bytes: u32,
}

/// Records staged by one block's [`ChannelPort`] awaiting a single
/// coalesced transfer. Payload bytes live in one contiguous scratch buffer
/// (reused across flushes, so staging never allocates per record); each
/// entry carries its own pre-stamped `seq`, making the batch purely a
/// *transfer* unit — logical record identity and merge order are
/// untouched.
#[derive(Debug)]
pub struct StagedBatch {
    launch: u64,
    block: u32,
    bytes: Vec<u8>,
    entries: Vec<StagedEntry>,
}

impl StagedBatch {
    pub fn new(launch: u64, block: u32) -> Self {
        StagedBatch {
            launch,
            block,
            bytes: Vec::new(),
            entries: Vec::new(),
        }
    }

    fn append(&mut self, seq: u64, bytes: &[u8], wire_bytes: usize) {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(bytes);
        self.entries.push(StagedEntry {
            seq,
            start,
            end: self.bytes.len() as u32,
            wire_bytes: wire_bytes as u32,
        });
    }

    /// Staged records, in stage (= seq) order.
    #[inline]
    pub fn entries(&self) -> &[StagedEntry] {
        &self.entries
    }

    /// Payload bytes of one staged record.
    #[inline]
    pub fn payload(&self, e: &StagedEntry) -> &[u8] {
        &self.bytes[e.start as usize..e.end as usize]
    }

    /// The full [`PushOrigin`] of one staged record.
    #[inline]
    pub fn origin(&self, e: &StagedEntry) -> PushOrigin {
        PushOrigin {
            launch: self.launch,
            block: self.block,
            seq: e.seq,
        }
    }

    /// Block that staged this batch.
    #[inline]
    pub fn block(&self) -> u32 {
        self.block
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed wire bytes of all staged records — the per-byte cost basis
    /// of the coalesced transfer.
    #[inline]
    pub fn total_wire(&self) -> u64 {
        self.entries.iter().map(|e| e.wire_bytes as u64).sum()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.entries.clear();
    }
}

/// The device→host channel as seen from injected device code.
///
/// Implementations (in `fpx-nvbit`) account for transfer cost and
/// congestion; pushing is how the detector reports a fresh exception record
/// to the host "early, before (hour-long) GPU runs finish" (§3.1.2).
/// Pushes go through `&self` so every SM worker shares one channel.
pub trait HostChannel: Sync {
    /// Push one record stamped with its origin. `wire_bytes` is the size
    /// cost accounting uses — it differs from `bytes.len()` for tools that
    /// ship bulk payloads (BinFPE's 32-lane value blocks) of which only a
    /// compact summary needs to reach the host model. Returns the device
    /// cycles the producing warp spends on the push (fixed cost plus
    /// congestion stalls).
    fn push_from(&self, origin: PushOrigin, bytes: &[u8], wire_bytes: usize) -> u64;

    /// Push a whole staged batch as one transfer. The default forwards
    /// every staged record to [`push_from`] — identical in records *and*
    /// cost to never having staged — so channels that don't model
    /// coalescing (the null channel, test captures, trace timelines)
    /// behave exactly as before.
    ///
    /// [`push_from`]: HostChannel::push_from
    fn push_batch(&self, batch: &StagedBatch) -> u64 {
        let mut cost = 0;
        for e in batch.entries() {
            cost += self.push_from(batch.origin(e), batch.payload(e), e.wire_bytes as usize);
        }
        cost
    }

    /// Called when one thread block finishes, with the cycles that block
    /// spent executing (on its worker's clock). Profiling consumers
    /// (`fpx-trace`'s per-SM timeline) override this; the default drops
    /// the sample, so record channels are unaffected.
    fn block_done(&self, _launch: u64, _block: u32, _cycles: u64) {}
}

/// A no-op channel for uninstrumented launches and tests.
pub struct NullChannel;

impl HostChannel for NullChannel {
    fn push_from(&self, _origin: PushOrigin, _bytes: &[u8], _wire_bytes: usize) -> u64 {
        0
    }
}

/// One thread block's private endpoint onto the shared channel.
///
/// The port stamps each push with a [`PushOrigin`] carrying the block's
/// monotonically increasing sequence number, which is what lets the
/// host-side drain merge per-SM streams back into serial order. Injected
/// device functions call `push`/`push_sized` exactly as they did when the
/// channel itself was exclusive.
pub struct ChannelPort<'c> {
    chan: &'c dyn HostChannel,
    launch: u64,
    block: u32,
    next_seq: u64,
    push_cycles: u64,
    batch: StagedBatch,
    coalesce: usize,
}

/// Default number of records a port coalesces per transfer. Sized to a
/// warp-burst: one exception-dense FP instruction stages at most one
/// record per lane (detector w/o-GT) or one bulk record per warp (BinFPE),
/// so 16 keeps the staging buffer within one batch per couple of
/// instructions while amortizing the fixed push cost ~16×.
pub const DEFAULT_COALESCE: usize = 16;

impl<'c> ChannelPort<'c> {
    pub fn new(chan: &'c dyn HostChannel, launch: u64, block: u32) -> Self {
        Self::with_coalesce(chan, launch, block, DEFAULT_COALESCE)
    }

    /// A port with an explicit coalescing cap. `cap <= 1` disables
    /// staging entirely: every [`stage`] degenerates to an immediate
    /// [`push`], which is what the coalesced-vs-per-record equivalence
    /// proptests toggle.
    ///
    /// [`stage`]: ChannelPort::stage
    /// [`push`]: ChannelPort::push
    pub fn with_coalesce(chan: &'c dyn HostChannel, launch: u64, block: u32, cap: usize) -> Self {
        ChannelPort {
            chan,
            launch,
            block,
            next_seq: 0,
            push_cycles: 0,
            batch: StagedBatch::new(launch, block),
            coalesce: cap,
        }
    }

    /// Push one record. Returns the device cycles the producing warp
    /// spends on the push (fixed cost plus congestion stalls).
    #[inline]
    pub fn push(&mut self, bytes: &[u8]) -> u64 {
        self.push_sized(bytes, bytes.len())
    }

    /// Push a record whose *wire* size differs from the bytes retained.
    pub fn push_sized(&mut self, bytes: &[u8], wire_bytes: usize) -> u64 {
        let origin = PushOrigin {
            launch: self.launch,
            block: self.block,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let cost = self.chan.push_from(origin, bytes, wire_bytes);
        self.push_cycles += cost;
        cost
    }

    /// Stage one record for a coalesced transfer. The record's `seq` is
    /// stamped *now*, so the drained stream is byte-identical to an
    /// immediate [`push`](ChannelPort::push); only the transfer cost model
    /// changes (one amortized base cost per batch — congestion ordinals
    /// are still consumed one per logical record by the channel). Returns
    /// the device cycles charged by a cap-triggered flush, 0 otherwise.
    #[inline]
    pub fn stage(&mut self, bytes: &[u8]) -> u64 {
        self.stage_sized(bytes, bytes.len())
    }

    /// Stage a record whose *wire* size differs from the bytes retained
    /// (see [`push_sized`](ChannelPort::push_sized)).
    pub fn stage_sized(&mut self, bytes: &[u8], wire_bytes: usize) -> u64 {
        if self.coalesce <= 1 {
            return self.push_sized(bytes, wire_bytes);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.batch.append(seq, bytes, wire_bytes);
        if self.batch.len() >= self.coalesce {
            self.flush()
        } else {
            0
        }
    }

    /// Flush any staged records as one coalesced transfer. Returns the
    /// device cycles of the transfer (the caller charges its clock). The
    /// engine flushes at the staging cap (inside [`stage`]), at block end,
    /// and on the error path of a failed warp, so a batch never outlives
    /// its block — and batch boundaries depend only on per-block stage
    /// order, which trace replay reproduces exactly.
    ///
    /// [`stage`]: ChannelPort::stage
    pub fn flush(&mut self) -> u64 {
        if self.batch.is_empty() {
            return 0;
        }
        let cost = self.chan.push_batch(&self.batch);
        self.batch.clear();
        self.push_cycles += cost;
        cost
    }

    /// Number of records this block has pushed or staged so far.
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Device cycles this block's warps spent pushing (base cost plus
    /// congestion stalls). Which block pays a given push is
    /// schedule-dependent — a GT-race winner pushes, and stall costs
    /// follow the global push ordinal — so per-block attribution sinks
    /// (profiler exec shards, per-SM cycle tracks) subtract this from the
    /// block's clock and rely on the channel's own deterministic
    /// accumulators for push-cost totals.
    #[inline]
    pub fn push_cycles(&self) -> u64 {
        self.push_cycles
    }
}

/// Everything an injected device function can observe and touch, scoped to
/// the warp that triggered it.
pub struct InjectionCtx<'a, 'c> {
    /// Kernel name as reported in GPU-FPX messages.
    pub kernel_name: &'a str,
    /// Monotonic launch counter for the program run.
    pub launch_id: u64,
    /// PC of the instrumented instruction within the kernel.
    pub pc: u32,
    /// Flat block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Lanes on which the injected code executes.
    pub exec_mask: u32,
    /// Lanes on which the *instruction itself* executes (guard applied).
    /// Equal to `exec_mask` for unpredicated instructions.
    pub guarded_mask: u32,
    /// Register/predicate state of all 32 lanes.
    pub lanes: &'a mut WarpLanes,
    /// Device global memory (where the GT table lives). Shared across SM
    /// workers; mutation goes through its atomic word operations.
    pub global: &'a DeviceMemory,
    /// Constant banks (kernel parameters).
    pub cbanks: &'a ConstBanks,
    /// Cycle counter; injected code charges its own extra work here.
    pub clock: &'a mut Clock,
    /// Device→host channel, through this block's stamping port.
    pub channel: &'a mut ChannelPort<'c>,
}

impl InjectionCtx<'_, '_> {
    /// Iterate over the lanes the injected code covers.
    #[inline]
    pub fn active_lanes(&self) -> impl Iterator<Item = u32> + 'static {
        let mask = self.exec_mask;
        (0..crate::WARP_SIZE).filter(move |l| mask & (1 << l) != 0)
    }

    /// The warp leader: lowest active lane (Algorithm 2 broadcasts every
    /// lane's check result to this lane).
    #[inline]
    pub fn leader_lane(&self) -> u32 {
        self.exec_mask.trailing_zeros().min(crate::WARP_SIZE - 1)
    }
}

/// Ordering class of an injection within one hook point.
///
/// Hooks attached to the same `(pc, when)` used to run purely in
/// registration order, which made the observed value depend on which tool
/// registered first: an observer registered before a fault injector would
/// report the *pre-mutation* writeback. Partitioning hooks into phases
/// fixes the contract — every [`Phase::Mutate`] hook runs before every
/// [`Phase::Observe`] hook at the same hook point, so observers always see
/// the final architectural state, no matter the registration order.
/// Within one phase, registration order still applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// May rewrite register/predicate state (fault injectors).
    Mutate,
    /// Reads state only (detector checks, analyzers, recorders).
    Observe,
}

/// An injected device function. One instance is attached per instrumented
/// instruction; per-instruction compile-time data (register lists, cbank
/// ids, `compile_e_type`, the encoded location — Listing 1) is captured
/// inside the implementing closure/struct, mirroring NVBit's variadic
/// argument passing.
pub trait DeviceFn: Send + Sync {
    fn call(&self, ctx: &mut InjectionCtx<'_, '_>);

    /// Number of runtime values this function reads (its variadic args);
    /// used for cycle accounting.
    fn num_runtime_args(&self) -> u32 {
        0
    }

    /// Shadow-value sanitizer hooks (`fpx-shadow`) return `true` so the
    /// simulator attributes their dispatch cost to the `shadow` profiling
    /// phase instead of `hook`.
    fn is_shadow(&self) -> bool {
        false
    }

    /// Coach lineage hooks (`fpx-coach`) return `true` so the simulator
    /// attributes their dispatch cost to the `coach` profiling phase
    /// instead of `hook`.
    fn is_coach(&self) -> bool {
        false
    }
}

/// One injection attached to one instruction. The function's
/// runtime-argument count and profiling class are read once, when it is
/// attached, so per-call dispatch reads plain fields.
#[derive(Clone)]
pub struct Injection {
    pub when: When,
    pub phase: Phase,
    pub func: Arc<dyn DeviceFn>,
    args: u32,
    is_shadow: bool,
    is_coach: bool,
}

impl Injection {
    /// `func.num_runtime_args()`, read at attach time.
    #[inline]
    pub fn args(&self) -> u32 {
        self.args
    }

    /// `func.is_shadow()`, read at attach time.
    #[inline]
    pub fn is_shadow(&self) -> bool {
        self.is_shadow
    }

    /// `func.is_coach()`, read at attach time.
    #[inline]
    pub fn is_coach(&self) -> bool {
        self.is_coach
    }
}

/// A kernel together with its (possibly empty) instrumentation.
///
/// `injections[pc]` lists the device functions attached to instruction
/// `pc`. An empty table is an uninstrumented launch.
#[derive(Clone)]
pub struct InstrumentedCode {
    pub code: Arc<KernelCode>,
    pub injections: Vec<Vec<Injection>>,
}

impl InstrumentedCode {
    /// Wrap a kernel with no instrumentation.
    pub fn plain(code: Arc<KernelCode>) -> Self {
        let n = code.len();
        InstrumentedCode {
            code,
            injections: vec![Vec::new(); n],
        }
    }

    /// Attach an observe-phase injection to the instruction at `pc`
    /// (the default for every reporting tool).
    pub fn inject(&mut self, pc: u32, when: When, func: Arc<dyn DeviceFn>) {
        self.inject_phased(pc, when, Phase::Observe, func);
    }

    /// Attach an injection with an explicit [`Phase`]. The per-pc list is
    /// kept partitioned — all `Mutate` entries before all `Observe`
    /// entries — so the engine runs mutators first at every hook point
    /// regardless of registration order (registration order is preserved
    /// within each phase).
    pub fn inject_phased(&mut self, pc: u32, when: When, phase: Phase, func: Arc<dyn DeviceFn>) {
        let slot = &mut self.injections[pc as usize];
        let pos = match phase {
            Phase::Observe => slot.len(),
            Phase::Mutate => slot
                .iter()
                .position(|i| i.phase == Phase::Observe)
                .unwrap_or(slot.len()),
        };
        let (args, is_shadow, is_coach) =
            (func.num_runtime_args(), func.is_shadow(), func.is_coach());
        slot.insert(
            pos,
            Injection {
                when,
                phase,
                func,
                args,
                is_shadow,
                is_coach,
            },
        );
    }

    /// Total number of attached injections (JIT cost scales with this).
    pub fn injection_count(&self) -> usize {
        self.injections.iter().map(Vec::len).sum()
    }

    pub fn is_instrumented(&self) -> bool {
        self.injections.iter().any(|v| !v.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_sass::instr::Instruction;
    use fpx_sass::op::BaseOp;

    struct Nop;
    impl DeviceFn for Nop {
        fn call(&self, _ctx: &mut InjectionCtx<'_, '_>) {}
    }

    #[test]
    fn plain_code_is_uninstrumented() {
        let k = Arc::new(KernelCode::new(
            "k",
            vec![Instruction::new(BaseOp::Exit, vec![])],
        ));
        let ic = InstrumentedCode::plain(k);
        assert!(!ic.is_instrumented());
        assert_eq!(ic.injection_count(), 0);
    }

    #[test]
    fn injections_attach_per_pc() {
        let k = Arc::new(KernelCode::new(
            "k",
            vec![
                Instruction::new(BaseOp::Nop, vec![]),
                Instruction::new(BaseOp::Exit, vec![]),
            ],
        ));
        let mut ic = InstrumentedCode::plain(k);
        ic.inject(0, When::After, Arc::new(Nop));
        ic.inject(0, When::Before, Arc::new(Nop));
        assert!(ic.is_instrumented());
        assert_eq!(ic.injection_count(), 2);
        assert_eq!(ic.injections[0].len(), 2);
        assert_eq!(ic.injections[1].len(), 0);
    }

    #[test]
    fn mutate_hooks_order_before_observe_hooks() {
        let k = Arc::new(KernelCode::new(
            "k",
            vec![Instruction::new(BaseOp::Nop, vec![])],
        ));
        let mut ic = InstrumentedCode::plain(k);
        // Register an observer FIRST, then a mutator: the partition must
        // still place the mutator ahead of the observer.
        ic.inject(0, When::After, Arc::new(Nop));
        ic.inject_phased(0, When::After, Phase::Mutate, Arc::new(Nop));
        ic.inject(0, When::After, Arc::new(Nop));
        ic.inject_phased(0, When::After, Phase::Mutate, Arc::new(Nop));
        let phases: Vec<Phase> = ic.injections[0].iter().map(|i| i.phase).collect();
        assert_eq!(
            phases,
            vec![Phase::Mutate, Phase::Mutate, Phase::Observe, Phase::Observe]
        );
        assert_eq!(ic.injection_count(), 4);
    }

    #[test]
    fn port_stamps_sequential_origins() {
        struct Capture(std::sync::Mutex<Vec<PushOrigin>>);
        impl HostChannel for Capture {
            fn push_from(&self, origin: PushOrigin, _b: &[u8], _w: usize) -> u64 {
                self.0.lock().unwrap().push(origin);
                0
            }
        }
        let cap = Capture(std::sync::Mutex::new(Vec::new()));
        let mut port = ChannelPort::new(&cap, 3, 7);
        port.push(&[1]);
        port.push_sized(&[2], 64);
        assert_eq!(port.pushed(), 2);
        let got = cap.0.into_inner().unwrap();
        assert_eq!(
            got,
            vec![
                PushOrigin {
                    launch: 3,
                    block: 7,
                    seq: 0
                },
                PushOrigin {
                    launch: 3,
                    block: 7,
                    seq: 1
                },
            ]
        );
    }

    #[test]
    fn port_accumulates_push_cycles_for_attribution_exclusion() {
        // A channel whose cost grows with the push ordinal, like real
        // congestion: the port must total exactly what it was charged.
        struct Priced(std::sync::atomic::AtomicU64);
        impl HostChannel for Priced {
            fn push_from(&self, _o: PushOrigin, _b: &[u8], _w: usize) -> u64 {
                10 + self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            }
        }
        let ch = Priced(std::sync::atomic::AtomicU64::new(0));
        let mut port = ChannelPort::new(&ch, 0, 0);
        assert_eq!(port.push_cycles(), 0);
        port.push(&[1]);
        port.push(&[2]);
        port.push(&[3]);
        assert_eq!(port.push_cycles(), 10 + 11 + 12);
    }
}
