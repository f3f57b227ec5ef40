//! The GPU-FPX **detector** (§3.1): scalable device-side exception
//! checking with GT deduplication and selective instrumentation.
//!
//! * **Algorithm 1** — `instrument_instruction` selects one of the four
//!   specialized check functions by opcode shape (`MUFU.RCP*` → DIV0
//!   checks, FP32/FP64 prefix → NaN/INF/SUB checks, `64H` ops check the
//!   `(Rd-1, Rd)` pair).
//! * **Algorithm 2** — the injected device function checks every lane,
//!   broadcasts results to the warp leader, encodes ⟨E_exce, E_loc, E_fp⟩
//!   keys, and pushes only keys whose GT slot was empty.
//! * **Algorithm 3** — `on_kernel_launch` applies the white-list and the
//!   once-every-*k* (`freq-redn-factor`) undersampling decision via
//!   NVBit's `enable_instrumented` hook.

use crate::checks;
use crate::gt::GlobalTable;
use crate::record::{ExceptionRecord, LocationTable};
use crate::report::DetectorReport;
use fpx_nvbit::tool::{Inserter, LaunchCtx, NvbitTool, ToolCtx};
use fpx_sass::instr::Instruction;
use fpx_sass::kernel::KernelCode;
use fpx_sass::types::{
    row_class_masks_f16, row_class_masks_f32, row_class_masks_f64, row_exceptional_f16,
    row_exceptional_f32, row_exceptional_f64, ExceptionKind, FpFormat,
};
use fpx_sim::exec::lanes_of;
use fpx_sim::hooks::{DeviceFn, InjectionCtx, When};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Detector configuration: the three performance levers of §3.1 plus
/// reporting options.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Use the GT global table for deduplication (the paper's "w/ GT"
    /// phase). When false, every exceptional lane execution is pushed —
    /// the "w/o GT" phase of Figure 4, which floods the channel on
    /// exception-dense programs.
    pub use_gt: bool,
    /// Instrument a kernel once in every `k` of its invocations
    /// (`FREQ-REDN-FACTOR`); 0 disables undersampling.
    pub freq_redn_factor: u32,
    /// When set, only kernels named here are instrumented (the
    /// "white-list" method of §3.1.3).
    pub whitelist: Option<HashSet<String>>,
    /// Check on the device (the paper's design). When false, the injected
    /// code ships every destination value to the host and the check runs
    /// there — the ablation of §3.1's optimization (1), for quantifying
    /// what on-device checking buys ("in contrast to BinFPE, GPU-FPX's
    /// checking process takes place on the GPU device rather than the
    /// host").
    pub device_checking: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            use_gt: true,
            freq_redn_factor: 0,
            whitelist: None,
            device_checking: true,
        }
    }
}

/// How a destination register is checked — the four specialized injection
/// functions of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckKind {
    /// `check_32_nan_inf_sub(rd)`
    NanInfSub32 { rd: u8 },
    /// `check_64_nan_inf_sub(rd, rd+1)`
    NanInfSub64 { lo: u8 },
    /// `check_32_div0(rd)`
    Div032 { rd: u8 },
    /// `check_64_div0(rd-1, rd)` — `64H` ops hold the high word in `rd`.
    Div064 { hi: u8 },
    /// `check_16_nan_inf_sub(rd)` — the FP16 extension.
    NanInfSub16 { rd: u8 },
}

impl CheckKind {
    fn fp_format(self) -> FpFormat {
        match self {
            CheckKind::NanInfSub32 { .. } | CheckKind::Div032 { .. } => FpFormat::Fp32,
            CheckKind::NanInfSub64 { .. } | CheckKind::Div064 { .. } => FpFormat::Fp64,
            CheckKind::NanInfSub16 { .. } => FpFormat::Fp16,
        }
    }
}

/// The injected device function for one instrumented instruction
/// (Algorithm 2). Compile-time data — the check kind, the encoded
/// `locfp`, and the GT base — is captured here, mirroring NVBit's
/// variadic call arguments.
struct CheckFn {
    check: CheckKind,
    /// `(E_loc << 2) | E_fp`, precomputed at JIT time.
    locfp: u32,
    gt: Option<GlobalTable>,
    /// Ablation: ship raw values instead of checking on the device.
    device_checking: bool,
}

/// Host-check ablation record: `[tag=1, kind, locfp(le32), lo(le32), hi(le32)]`.
const HOST_CHECK_TAG: u8 = 1;

impl CheckFn {
    /// Ablation path: push the raw destination value of every lane; the
    /// host performs the classification (and GT-equivalent dedup).
    fn ship_raw(&self, ctx: &mut InjectionCtx<'_, '_>) {
        for lane in fpx_sim::exec::lanes_of(ctx.guarded_mask) {
            let (kind_byte, lo, hi) = match self.check {
                CheckKind::NanInfSub32 { rd } => (0u8, ctx.lanes.reg(lane, rd), 0),
                CheckKind::NanInfSub64 { lo } => {
                    (1, ctx.lanes.reg(lane, lo), ctx.lanes.reg(lane, lo + 1))
                }
                CheckKind::Div032 { rd } => (2, ctx.lanes.reg(lane, rd), 0),
                CheckKind::Div064 { hi } => {
                    (3, ctx.lanes.reg(lane, hi - 1), ctx.lanes.reg(lane, hi))
                }
                CheckKind::NanInfSub16 { rd } => (4, ctx.lanes.reg(lane, rd), 0),
            };
            let mut rec = [0u8; 14];
            rec[0] = HOST_CHECK_TAG;
            rec[1] = kind_byte;
            rec[2..6].copy_from_slice(&self.locfp.to_le_bytes());
            rec[6..10].copy_from_slice(&lo.to_le_bytes());
            rec[10..14].copy_from_slice(&hi.to_le_bytes());
            // Per-lane raw-value records are deterministic per block, so
            // they ride the warp-coalesced path.
            let stall = ctx.channel.stage(&rec);
            ctx.clock.charge(stall);
        }
    }
}

impl DeviceFn for CheckFn {
    fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
        if !self.device_checking {
            self.ship_raw(ctx);
            return;
        }
        // Whole-warp checking ("exn_type[T] = e" in Algorithm 2), done as
        // one branchless SoA row scan per operand: the register file is
        // register-major, so all 32 lanes' bits stream through straight-
        // line exponent/mantissa tests (SNIPPETS Snippet 1 style) instead
        // of 32 strided, branchy per-lane calls. The guard mask clears
        // lanes that didn't execute the instruction. Most executions are
        // clean, so a one-mask exceptional test returns before the
        // per-class split is built.
        let (lanes, g) = (&*ctx.lanes, ctx.guarded_mask);
        let masks = match self.check {
            CheckKind::NanInfSub32 { rd } | CheckKind::Div032 { rd } => {
                let row = lanes.reg_row(rd);
                if row_exceptional_f32(row, g) == 0 {
                    return;
                }
                row_class_masks_f32(row, g)
            }
            CheckKind::NanInfSub64 { lo } => {
                let (lo, hi) = (lanes.reg_row(lo), lanes.reg_row(lo + 1));
                if row_exceptional_f64(lo, hi, g) == 0 {
                    return;
                }
                row_class_masks_f64(lo, hi, g)
            }
            CheckKind::Div064 { hi } => {
                let (lo, hi) = (lanes.reg_row(hi - 1), lanes.reg_row(hi));
                if row_exceptional_f64(lo, hi, g) == 0 {
                    return;
                }
                row_class_masks_f64(lo, hi, g)
            }
            CheckKind::NanInfSub16 { rd } => {
                let row = lanes.reg_row(rd);
                if row_exceptional_f16(row, g) == 0 {
                    return;
                }
                row_class_masks_f16(row, g)
            }
        };
        // Lane masks per exception kind, indexed by `encode()`. DIV0
        // checks reinterpret a NaN/INF reciprocal destination (Algorithm 1
        // line 4); the others report the destination class directly.
        let mut lanes_by_kind = [0u32; 4];
        match self.check {
            CheckKind::Div032 { .. } | CheckKind::Div064 { .. } => {
                lanes_by_kind[ExceptionKind::DivByZero.encode() as usize] = masks.nan | masks.inf;
            }
            _ => {
                lanes_by_kind[ExceptionKind::NaN.encode() as usize] = masks.nan;
                lanes_by_kind[ExceptionKind::Inf.encode() as usize] = masks.inf;
                lanes_by_kind[ExceptionKind::Subnormal.encode() as usize] = masks.sub;
            }
        }
        // Warp-leader phase (Algorithm 2 lines 3–15): every lane
        // broadcasts its `e_type` to the leading thread, which encodes
        // the ⟨E_exce, E_loc, E_fp⟩ keys. Since all lanes share this
        // instruction's `locfp`, distinct keys within the warp are just
        // the distinct exception kinds — the leader probes GT once per
        // distinct key instead of once per lane.
        if lanes_by_kind != [0u32; 4] {
            for kind in ExceptionKind::ALL {
                let kind_lanes = lanes_by_kind[kind.encode() as usize];
                if kind_lanes == 0 {
                    continue;
                }
                let key = ExceptionRecord::key_from_locfp(self.locfp, kind);
                if let Some(gt) = &self.gt {
                    // Leader-deduplicated probe: push only on first
                    // occurrence (line 11's intent). Keys built by
                    // `key_from_locfp` are in range by construction; a
                    // `KeyOutOfRange` here would mean a corrupt record, so
                    // the device function skips rather than pushes garbage.
                    // The epoch (a nonzero launch-derived stamp) lets GT
                    // statistics split same-launch CAS races from
                    // cross-launch dedup deterministically.
                    let epoch = (ctx.launch_id & 0x7fff_ffff) as u32 + 1;
                    if gt.probe(ctx.global, key, epoch).unwrap_or(false) {
                        // Deliberately NOT warp-coalesced: which block
                        // wins the GT CAS race is schedule-dependent, so
                        // staging here would make batch composition (and
                        // the amortized base cost) vary between block
                        // schedules. Fresh keys are a few dozen per
                        // program — there is nothing to coalesce anyway.
                        let stall = ctx.channel.push(&key.to_le_bytes());
                        ctx.clock.charge(stall);
                    }
                } else {
                    // "w/o GT" phase: no table, so every exceptional
                    // *lane* pushes — the congestion-prone behaviour the
                    // GT addition fixed (§4.2). Deliberately NOT
                    // warp-coalesced: this ablation models the
                    // *unoptimized* tool, and its calibrated hang on
                    // exception floods is a paper result that coalescing
                    // must not soften.
                    for _lane in lanes_of(kind_lanes) {
                        let stall = ctx.channel.push(&key.to_le_bytes());
                        ctx.clock.charge(stall);
                    }
                }
            }
        }
    }

    fn num_runtime_args(&self) -> u32 {
        match self.check {
            CheckKind::NanInfSub32 { .. }
            | CheckKind::Div032 { .. }
            | CheckKind::NanInfSub16 { .. } => 1,
            _ => 2,
        }
    }
}

/// The GPU-FPX detector tool.
pub struct Detector {
    cfg: DetectorConfig,
    gt: Option<GlobalTable>,
    locs: Arc<Mutex<LocationTable>>,
    report: DetectorReport,
    /// `num[current_kernel]` of Algorithm 3. Keys are interned `Arc<str>`
    /// names: the common path (a kernel launched many times) costs one
    /// hash lookup, not one `String` clone per launch.
    invocations: HashMap<Arc<str>, u64>,
    /// Launches actually instrumented / skipped (for sampling studies).
    pub instrumented_launches: u64,
    pub skipped_launches: u64,
    /// Self-profiler handle, installed into the GT at init time so device
    /// probes record under the `gt_probe` phase.
    prof: fpx_prof::Prof,
}

impl Detector {
    pub fn new(cfg: DetectorConfig) -> Self {
        Detector {
            cfg,
            gt: None,
            locs: Arc::new(Mutex::new(LocationTable::new())),
            report: DetectorReport::default(),
            invocations: HashMap::new(),
            instrumented_launches: 0,
            skipped_launches: 0,
            prof: fpx_prof::Prof::disabled(),
        }
    }

    /// The cumulative host-side report.
    pub fn report(&self) -> &DetectorReport {
        &self.report
    }

    /// Consume the tool, returning its report.
    pub fn into_report(mut self) -> DetectorReport {
        self.report.dropped_sites = self.locs.lock().dropped();
        self.report
    }

    /// GT probe statistics (hits = deduplicated re-occurrences, misses =
    /// first occurrences), or `None` when running without the GT.
    pub fn gt_stats(&self) -> Option<(u64, u64)> {
        self.gt
            .as_ref()
            .map(|gt| (gt.stats().hits(), gt.stats().misses()))
    }

    /// Full GT probe snapshot for the metrics registry, or `None` when
    /// running without the GT.
    pub fn gt_snapshot(&self) -> Option<fpx_obs::GtSnapshot> {
        self.gt.as_ref().map(|gt| {
            let s = gt.stats();
            fpx_obs::GtSnapshot {
                probes: s.probes(),
                hits: s.hits(),
                misses: s.misses(),
                cas_losses: s.cas_losses(),
                collisions: s.collisions(),
            }
        })
    }

    /// Source sites dropped by `LocationTable` saturation (interned after
    /// the 16-bit `E_loc` space filled; they alias onto the reserved
    /// overflow id and cannot be distinguished in reports).
    pub fn dropped_sites(&self) -> u64 {
        self.locs.lock().dropped()
    }

    /// Snapshot `obs`'s registry, folding in this detector's site-table
    /// counters and GT probe statistics. `None` when `obs` is disabled.
    pub fn snapshot_into(&self, obs: &fpx_obs::Obs) -> Option<fpx_obs::Snapshot> {
        let reg = obs.registry()?;
        obs.add(fpx_obs::Counter::SitesTracked, self.tracked_sites());
        obs.add(fpx_obs::Counter::SitesDropped, self.dropped_sites());
        let mut snap = reg.snapshot();
        snap.gt = self.gt_snapshot();
        Some(snap)
    }

    /// Distinct source sites tracked by the location table.
    pub fn tracked_sites(&self) -> u64 {
        self.locs.lock().len() as u64
    }

    /// Algorithm 1: pick the specialized check for one instruction, or
    /// `None` to skip instrumentation.
    fn select_check(instr: &Instruction) -> Option<CheckKind> {
        let op = instr.opcode.base;
        let rd = instr.dest_reg()?;
        if rd == fpx_sass::operand::RZ {
            // RZ swallows results; there is nothing to check.
            return None;
        }
        if op.is_mufu_rcp() {
            return Some(if op.is_64h() {
                CheckKind::Div064 { hi: rd }
            } else {
                CheckKind::Div032 { rd }
            });
        }
        match op.fp_format()? {
            FpFormat::Fp32 => Some(CheckKind::NanInfSub32 { rd }),
            FpFormat::Fp64 => {
                if op.is_64h() {
                    // 64H: rd holds the high word → pair is (rd-1, rd).
                    Some(CheckKind::NanInfSub64 { lo: rd - 1 })
                } else {
                    Some(CheckKind::NanInfSub64 { lo: rd })
                }
            }
            FpFormat::Fp16 => Some(CheckKind::NanInfSub16 { rd }),
        }
    }
}

impl NvbitTool for Detector {
    fn set_prof(&mut self, prof: fpx_prof::Prof) {
        // Stored now, installed into the GT at on_init — drivers call
        // set_prof before Nvbit::new, which is what runs on_init.
        self.prof = prof;
    }

    fn on_init(&mut self, ctx: &mut ToolCtx<'_>) {
        if self.cfg.use_gt {
            // User-reachable failure: a program can exhaust the device
            // heap with its own buffers before the tool initializes, and
            // the init hook has no error channel. Mirror the real tool,
            // which aborts the instrumented app when its table allocation
            // fails — but say exactly what happened and why.
            let mut gt = GlobalTable::alloc(ctx.mem).unwrap_or_else(|e| {
                panic!(
                    "GPU-FPX: allocating the 4 MB global exception table failed ({e}); \
                     the program's own buffers exhausted simulated device memory"
                )
            });
            gt.set_prof(self.prof.clone());
            ctx.clock.charge(ctx.cost.gt_alloc);
            self.gt = Some(gt);
        }
    }

    /// Algorithm 3: white-list plus once-every-`k` undersampling.
    fn on_kernel_launch(&mut self, ctx: &mut LaunchCtx, kernel: &KernelCode) {
        let mut instr = match &self.cfg.whitelist {
            Some(list) => list.contains(&kernel.name),
            None => true,
        };
        if !self.invocations.contains_key(kernel.name.as_str()) {
            self.invocations.insert(Arc::from(kernel.name.as_str()), 0);
        }
        let num = self
            .invocations
            .get_mut(kernel.name.as_str())
            .expect("interned above");
        let k = self.cfg.freq_redn_factor;
        if k != 0 && !(*num).is_multiple_of(k as u64) {
            instr = false;
        }
        *num += 1;
        ctx.instrument = instr;
        if instr {
            self.instrumented_launches += 1;
        } else {
            self.skipped_launches += 1;
        }
    }

    fn instrument_instruction(
        &mut self,
        kernel: &KernelCode,
        pc: u32,
        instr: &Instruction,
        inserter: &mut Inserter<'_>,
    ) {
        let Some(check) = Self::select_check(instr) else {
            return; // "else skip instrumentation"
        };
        let loc = self
            .locs
            .lock()
            .intern(&kernel.name, pc, instr.sass(), instr.loc.clone());
        let locfp = ExceptionRecord::encode_locfp(loc, check.fp_format());
        inserter.insert_call(
            When::After,
            Arc::new(CheckFn {
                check,
                locfp,
                gt: self.gt.clone(),
                device_checking: self.cfg.device_checking,
            }),
        );
    }

    fn host_cost_per_record(&self) -> u64 {
        if self.cfg.device_checking {
            fpx_nvbit::overhead::HOST_PROC_PER_RECORD
        } else {
            // The ablated configuration performs the classification on
            // the host, per received value.
            fpx_nvbit::overhead::HOST_PROC_PER_RECORD + 8
        }
    }

    fn on_channel_record(&mut self, record: &[u8]) -> u64 {
        // Host-check ablation records carry raw values to classify here.
        if record.len() == 14 && record[0] == HOST_CHECK_TAG {
            let word = |r: std::ops::Range<usize>| {
                u32::from_le_bytes(
                    record[r]
                        .try_into()
                        .expect("4-byte slice of a 14-byte record"),
                )
            };
            let locfp = word(2..6);
            let lo = word(6..10);
            let hi = word(10..14);
            let kind = match record[1] {
                0 => checks::check_32_nan_inf_sub(lo),
                1 => checks::check_64_nan_inf_sub(lo, hi),
                2 => checks::check_32_div0(lo),
                4 => checks::check_16_nan_inf_sub(lo),
                _ => checks::check_64_div0(lo, hi),
            };
            let Some(exce) = kind else { return 0 };
            let key = ExceptionRecord::key_from_locfp(locfp, exce);
            let Some(rec) = ExceptionRecord::decode(key) else {
                return 0;
            };
            let locs = Arc::clone(&self.locs);
            let locs = locs.lock();
            let fresh = self.report.ingest(rec, locs.resolve(rec.loc));
            return if fresh {
                fpx_nvbit::overhead::HOST_REPORT_LINE
            } else {
                0
            };
        }
        let Some(rec) = ExceptionRecord::from_bytes(record) else {
            return 0;
        };
        let locs = Arc::clone(&self.locs);
        let locs = locs.lock();
        let fresh = self.report.ingest(rec, locs.resolve(rec.loc));
        // Only *new* sites produce a report line; with GT enabled this is
        // every record, and without it the early-notification print runs
        // per occurrence — part of why the w/o-GT phase congests.
        if fresh || !self.cfg.use_gt {
            fpx_nvbit::overhead::HOST_REPORT_LINE
        } else {
            0
        }
    }

    fn on_term(&mut self, _ctx: &mut ToolCtx<'_>) {
        let dropped = self.locs.lock().dropped();
        self.report.dropped_sites = dropped;
        if dropped > 0 {
            self.report.messages.push(format!(
                "#GPU-FPX WARNING: {dropped} source sites overflowed the \
                 {}-entry location table; their exceptions share the \
                 reserved overflow record and are reported as [unknown]",
                crate::record::MAX_LOCATIONS - 1
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_nvbit::Nvbit;
    use fpx_sass::assemble_kernel;
    use fpx_sim::gpu::{Arch, Gpu, LaunchConfig, ParamValue};
    use std::sync::Arc;

    fn detector_ctx(cfg: DetectorConfig) -> Nvbit<Detector> {
        Nvbit::new(Gpu::new(Arch::Ampere), Detector::new(cfg))
    }

    fn launch(nv: &mut Nvbit<Detector>, src: &str, cfg: LaunchConfig) -> fpx_nvbit::LaunchReport {
        let k = Arc::new(assemble_kernel(src).unwrap());
        nv.launch(&k, &cfg).unwrap()
    }

    const DIV0_KERNEL: &str = r#"
.kernel div0
    MOV32I R0, 0x0 ;
    MUFU.RCP R1, R0 ;
    EXIT ;
"#;

    #[test]
    fn detects_div0_from_mufu_rcp() {
        let mut nv = detector_ctx(DetectorConfig::default());
        launch(&mut nv, DIV0_KERNEL, LaunchConfig::new(1, 32, vec![]));
        let r = nv.tool.report();
        assert_eq!(
            r.counts.get(FpFormat::Fp32, ExceptionKind::DivByZero),
            1,
            "MUFU.RCP of zero is one DIV0 site"
        );
        assert_eq!(r.counts.total(), 1);
        assert!(r.messages[0].contains("Division by 0"));
        assert!(r.messages[0].contains("[div0]"));
    }

    #[test]
    fn gt_deduplicates_across_warps_blocks_and_launches() {
        let mut nv = detector_ctx(DetectorConfig::default());
        let k = Arc::new(assemble_kernel(DIV0_KERNEL).unwrap());
        let cfg = LaunchConfig::new(8, 256, vec![]);
        let rep1 = nv.launch(&k, &cfg).unwrap();
        let rep2 = nv.launch(&k, &cfg).unwrap();
        assert_eq!(rep1.records, 1, "one record despite 64 warps");
        assert_eq!(rep2.records, 0, "GT persists across launches");
        assert_eq!(nv.tool.report().occurrences, 1);
    }

    #[test]
    fn without_gt_every_exceptional_lane_pushes() {
        let mut nv = detector_ctx(DetectorConfig {
            use_gt: false,
            ..DetectorConfig::default()
        });
        let rep = launch(&mut nv, DIV0_KERNEL, LaunchConfig::new(2, 64, vec![]));
        // 2 blocks × 2 warps × 32 lanes, all div-by-zero.
        assert_eq!(rep.records, 128);
        let r = nv.tool.report();
        assert_eq!(r.occurrences, 128);
        assert_eq!(r.counts.total(), 1, "site counts stay deduplicated on host");
    }

    #[test]
    fn fp64_pair_and_subnormal_detection() {
        // DADD of two tiny values → FP64 subnormal result.
        let src = r#"
.kernel subgen
    LDC.64 R2, c[0x0][0x160] ;
    LDC.64 R4, c[0x0][0x168] ;
    DADD R6, R2, R4 ;
    EXIT ;
"#;
        let mut nv = detector_ctx(DetectorConfig::default());
        let k = Arc::new(assemble_kernel(src).unwrap());
        let cfg = LaunchConfig::new(
            1,
            32,
            vec![ParamValue::F64(2e-310), ParamValue::F64(3e-310)],
        );
        nv.launch(&k, &cfg).unwrap();
        let r = nv.tool.report();
        assert_eq!(r.counts.get(FpFormat::Fp64, ExceptionKind::Subnormal), 1);
        assert_eq!(r.counts.get(FpFormat::Fp32, ExceptionKind::Subnormal), 0);
    }

    #[test]
    fn mufu_rcp64h_checks_high_pair() {
        // RCP64H of a zero high word → INF high word → DIV0 (FP64).
        let src = r#"
.kernel d64
    MOV32I R2, 0x0 ;
    MOV32I R3, 0x0 ;
    MUFU.RCP64H R5, R3 ;
    EXIT ;
"#;
        let mut nv = detector_ctx(DetectorConfig::default());
        launch(&mut nv, src, LaunchConfig::new(1, 32, vec![]));
        let r = nv.tool.report();
        assert_eq!(r.counts.get(FpFormat::Fp64, ExceptionKind::DivByZero), 1);
    }

    #[test]
    fn clean_kernel_reports_nothing() {
        let src = r#"
.kernel clean
    MOV32I R0, 0x3f800000 ;
    FADD R1, R0, R0 ;
    FMUL R2, R1, R1 ;
    FFMA R3, R2, R1, R0 ;
    EXIT ;
"#;
        let mut nv = detector_ctx(DetectorConfig::default());
        let rep = launch(&mut nv, src, LaunchConfig::new(4, 128, vec![]));
        assert_eq!(rep.records, 0);
        assert!(!nv.tool.report().counts.any());
    }

    #[test]
    fn nan_propagating_arithmetic_counts_distinct_sites() {
        // Two FADD sites both produce NaN from a NaN immediate.
        let src = r#"
.kernel nan2
    FADD R1, RZ, +QNAN ;
    FADD R2, R1, 1.0 ;
    FMUL R3, R2, 0.5 ;
    EXIT ;
"#;
        let mut nv = detector_ctx(DetectorConfig::default());
        launch(&mut nv, src, LaunchConfig::new(1, 32, vec![]));
        let r = nv.tool.report();
        assert_eq!(r.counts.get(FpFormat::Fp32, ExceptionKind::NaN), 3);
    }

    #[test]
    fn freq_redn_factor_instruments_once_every_k() {
        let mut nv = detector_ctx(DetectorConfig {
            freq_redn_factor: 4,
            ..DetectorConfig::default()
        });
        let k = Arc::new(assemble_kernel(DIV0_KERNEL).unwrap());
        let cfg = LaunchConfig::new(1, 32, vec![]);
        let mut instrumented = 0;
        for _ in 0..8 {
            let rep = nv.launch(&k, &cfg).unwrap();
            instrumented += rep.instrumented as u32;
        }
        assert_eq!(instrumented, 2, "invocations 0 and 4");
        assert_eq!(nv.tool.instrumented_launches, 2);
        assert_eq!(nv.tool.skipped_launches, 6);
    }

    #[test]
    fn whitelist_limits_instrumentation() {
        let mut wl = HashSet::new();
        wl.insert("div0".to_string());
        let mut nv = detector_ctx(DetectorConfig {
            whitelist: Some(wl),
            ..DetectorConfig::default()
        });
        let wanted = Arc::new(assemble_kernel(DIV0_KERNEL).unwrap());
        let other =
            Arc::new(assemble_kernel(".kernel other\n  MUFU.RCP R1, RZ ;\n  EXIT ;\n").unwrap());
        let cfg = LaunchConfig::new(1, 32, vec![]);
        assert!(nv.launch(&wanted, &cfg).unwrap().instrumented);
        assert!(!nv.launch(&other, &cfg).unwrap().instrumented);
        // Only the white-listed kernel's DIV0 is reported.
        assert_eq!(nv.tool.report().counts.total(), 1);
    }

    #[test]
    fn skipped_launches_miss_exceptions_but_sampling_catches_first() {
        // The kernel raises an exception on every invocation; k=16 still
        // catches the site on invocation 0 — "without the loss of any
        // previously detected exceptions" (§4.3).
        let mut nv = detector_ctx(DetectorConfig {
            freq_redn_factor: 16,
            ..DetectorConfig::default()
        });
        let k = Arc::new(assemble_kernel(DIV0_KERNEL).unwrap());
        let cfg = LaunchConfig::new(1, 32, vec![]);
        for _ in 0..32 {
            nv.launch(&k, &cfg).unwrap();
        }
        assert_eq!(nv.tool.report().counts.total(), 1);
    }

    #[test]
    fn predicated_off_lanes_are_not_checked() {
        // The NaN-producing FADD only executes on lanes 0..0 (@!PT never
        // executes) — no exception should be reported from stale registers.
        let src = r#"
.kernel pred_off
    FSETP.LT.AND P0, 1.0, 0.5 ;
    @P0 FADD R1, RZ, +QNAN ;
    EXIT ;
"#;
        let mut nv = detector_ctx(DetectorConfig::default());
        launch(&mut nv, src, LaunchConfig::new(1, 32, vec![]));
        assert_eq!(nv.tool.report().counts.total(), 0);
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use fpx_nvbit::Nvbit;
    use fpx_sass::assemble_kernel;
    use fpx_sim::gpu::{Arch, Gpu, LaunchConfig};
    use std::sync::Arc;

    const KERNEL: &str = r#"
.kernel mix
    MOV32I R0, 0x0 ;
    MUFU.RCP R1, R0 ;
    FADD R2, R1, 1.0 ;
    FMUL R3, R2, R2 ;
    LDC.64 R4, c[0x0][0x160] ;
    DADD R6, R4, R4 ;
    EXIT ;
"#;

    #[test]
    fn host_checking_ablation_finds_the_same_sites() {
        let k = Arc::new(assemble_kernel(KERNEL).unwrap());
        let cfg = LaunchConfig::new(2, 64, vec![fpx_sim::gpu::ParamValue::F64(1e-310)]);
        let mut dev = Nvbit::new(
            Gpu::new(Arch::Ampere),
            Detector::new(DetectorConfig::default()),
        );
        dev.launch(&k, &cfg).unwrap();
        let mut host = Nvbit::new(
            Gpu::new(Arch::Ampere),
            Detector::new(DetectorConfig {
                device_checking: false,
                ..DetectorConfig::default()
            }),
        );
        host.launch(&k, &cfg).unwrap();
        assert_eq!(
            dev.tool.report().counts.row(),
            host.tool.report().counts.row(),
            "findings are invariant under the checking-locus ablation"
        );
        assert!(
            host.tool.report().occurrences > dev.tool.report().occurrences,
            "host-side checking ships every value"
        );
    }

    #[test]
    fn host_checking_ablation_is_slower() {
        let k = Arc::new(assemble_kernel(KERNEL).unwrap());
        let cfg = LaunchConfig::new(4, 128, vec![fpx_sim::gpu::ParamValue::F64(1e-310)]);
        let run = |device_checking: bool| {
            let mut nv = Nvbit::new(
                Gpu::new(Arch::Ampere),
                Detector::new(DetectorConfig {
                    device_checking,
                    ..DetectorConfig::default()
                }),
            );
            for _ in 0..8 {
                nv.launch(&k, &cfg).unwrap();
            }
            nv.gpu.clock.cycles()
        };
        let dev = run(true);
        let host = run(false);
        assert!(
            host > dev * 2,
            "host checking ({host}) must cost far more than device checking ({dev})"
        );
    }
}
