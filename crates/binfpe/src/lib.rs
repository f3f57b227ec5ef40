//! # fpx-binfpe — re-implementation of the BinFPE baseline
//!
//! BinFPE (Laguna, Li, Gopalakrishnan — SOAP '22) is the prior SASS-level
//! exception detector GPU-FPX is evaluated against. Per the paper's §2.3,
//! its design differs from GPU-FPX's detector in exactly the ways that
//! cost it orders of magnitude in performance:
//!
//! 1. it instruments every FP *arithmetic* instruction and records the
//!    destination register of **every thread**, shipping all values to
//!    the host ("transmits data far in excess of what is required");
//! 2. the exception **check runs on the host**, not the device;
//! 3. there is **no deduplication**, so exception-dense programs flood
//!    the device→host channel (the hangs GPU-FPX's GT resolves);
//! 4. it does **not** instrument the control-flow opcodes of Table 1's
//!    right column (FSEL/FSET/FSETP/FMNMX/DSETP), so it can neither see
//!    exceptions flowing through selections nor classify their severity.
//!
//! The host-side report re-uses `gpu_fpx`'s [`DetectorReport`] plumbing so
//! the two tools' findings are directly comparable in the experiments.

use fpx_nvbit::tool::{Inserter, LaunchCtx, NvbitTool};
use fpx_sass::instr::Instruction;
use fpx_sass::kernel::KernelCode;
use fpx_sass::operand::RZ;
use fpx_sass::types::{row_exceptional_f32, row_exceptional_f64, ExceptionKind, FpFormat};
use fpx_sim::exec::lanes_of;
use fpx_sim::hooks::{DeviceFn, InjectionCtx, When};
use gpu_fpx::checks;
use gpu_fpx::record::{ExceptionRecord, LocationTable};
use gpu_fpx::report::DetectorReport;
use parking_lot::Mutex;
use std::sync::Arc;

/// How the recorded destination is laid out.
#[derive(Debug, Clone, Copy)]
enum RecKind {
    F32 {
        rd: u8,
        rcp: bool,
    },
    /// FP64 register pair starting at `lo`.
    F64 {
        lo: u8,
        rcp: bool,
    },
}

/// The injected recording function: ships one bulk record per warp per
/// execution containing the destination value of **every** lane — no
/// device-side checking, no dedup. The full 32-value block crosses the
/// wire (and is costed as such); the in-simulator record retains the
/// header plus the exceptional lanes' values, which is all the host model
/// needs to reproduce the host-side check's findings.
struct RecordFn {
    kind: RecKind,
    loc: u16,
}

const FLAG_RCP: u8 = 1 << 0;
const FLAG_F64: u8 = 1 << 1;

/// Exceptional lane values retained per bulk record (header + 5 × 8-byte
/// values fit the channel's inline record size).
const KEPT_LANES: usize = 5;

impl DeviceFn for RecordFn {
    fn call(&self, ctx: &mut InjectionCtx<'_, '_>) {
        let mut rec = [0u8; 4 + KEPT_LANES * 8];
        rec[0..2].copy_from_slice(&self.loc.to_le_bytes());
        let mut kept = 0usize;
        let wire_bytes;
        match self.kind {
            RecKind::F32 { rd, rcp } => {
                rec[2] = if rcp { FLAG_RCP } else { 0 };
                wire_bytes = 4 + 32 * 4;
                // Only NaN/INF/subnormal lanes can be kept; one row test
                // finds them, and the exact per-lane check below decides.
                let row = ctx.lanes.reg_row(rd);
                for lane in lanes_of(row_exceptional_f32(row, ctx.guarded_mask)) {
                    if kept == KEPT_LANES {
                        break;
                    }
                    let bits = row[lane as usize];
                    let exceptional = if rcp {
                        checks::check_32_div0(bits).is_some()
                    } else {
                        checks::check_32_nan_inf_sub(bits).is_some()
                    };
                    if exceptional {
                        let at = 4 + kept * 8;
                        rec[at..at + 4].copy_from_slice(&bits.to_le_bytes());
                        kept += 1;
                    }
                }
            }
            RecKind::F64 { lo, rcp } => {
                rec[2] = FLAG_F64 | if rcp { FLAG_RCP } else { 0 };
                wire_bytes = 4 + 32 * 8;
                let (lo, hi) = (ctx.lanes.reg_row(lo), ctx.lanes.reg_row(lo + 1));
                for lane in lanes_of(row_exceptional_f64(lo, hi, ctx.guarded_mask)) {
                    if kept == KEPT_LANES {
                        break;
                    }
                    let (l, h) = (lo[lane as usize], hi[lane as usize]);
                    let exceptional = if rcp {
                        checks::check_64_div0(l, h).is_some()
                    } else {
                        checks::check_64_nan_inf_sub(l, h).is_some()
                    };
                    if exceptional {
                        let at = 4 + kept * 8;
                        rec[at..at + 4].copy_from_slice(&l.to_le_bytes());
                        rec[at + 4..at + 8].copy_from_slice(&h.to_le_bytes());
                        kept += 1;
                    }
                }
            }
        }
        rec[3] = kept as u8;
        // One bulk record per warp per FP instruction, deterministic per
        // block: warp-coalesced. The full 32-lane wire size is still
        // charged, and each record still consumes one congestion ordinal,
        // so BinFPE's stall-dominated channel saturation is unchanged —
        // coalescing only amortizes the fixed push cost.
        let stall = ctx.channel.stage_sized(&rec[..4 + kept * 8], wire_bytes);
        ctx.clock.charge(stall);
    }

    fn num_runtime_args(&self) -> u32 {
        match self.kind {
            RecKind::F32 { .. } => 1,
            RecKind::F64 { .. } => 2,
        }
    }
}

/// Host cycles per checked destination value.
const HOST_CHECK_PER_VALUE: u64 = 2;

/// The BinFPE tool.
pub struct BinFpe {
    locs: Arc<Mutex<LocationTable>>,
    report: DetectorReport,
    /// Raw values received (the host-side workload BinFPE performs).
    pub values_checked: u64,
}

impl BinFpe {
    pub fn new() -> Self {
        BinFpe {
            locs: Arc::new(Mutex::new(LocationTable::new())),
            report: DetectorReport::default(),
            values_checked: 0,
        }
    }

    pub fn report(&self) -> &DetectorReport {
        &self.report
    }

    pub fn into_report(self) -> DetectorReport {
        self.report
    }
}

impl Default for BinFpe {
    fn default() -> Self {
        Self::new()
    }
}

impl NvbitTool for BinFpe {
    fn on_kernel_launch(&mut self, _ctx: &mut LaunchCtx, _kernel: &KernelCode) {
        // BinFPE has no selective instrumentation: every launch runs
        // instrumented (the default `ctx.instrument = true` stands).
    }

    fn instrument_instruction(
        &mut self,
        kernel: &KernelCode,
        pc: u32,
        instr: &Instruction,
        inserter: &mut Inserter<'_>,
    ) {
        // Computation opcodes only (Table 1 left column): BinFPE misses
        // FSEL/FSET/FSETP/FMNMX/DSETP entirely.
        let op = instr.opcode.base;
        if !op.is_fp_computation() {
            return;
        }
        let Some(rd) = instr.dest_reg() else { return };
        if rd == RZ {
            return;
        }
        let loc = self
            .locs
            .lock()
            .intern(&kernel.name, pc, instr.sass(), instr.loc.clone());
        let rcp = op.is_mufu_rcp();
        let kind = match op.fp_format() {
            Some(FpFormat::Fp64) => {
                if op.is_64h() {
                    RecKind::F64 { lo: rd - 1, rcp }
                } else {
                    RecKind::F64 { lo: rd, rcp }
                }
            }
            Some(_) => RecKind::F32 { rd, rcp },
            None => return,
        };
        inserter.insert_call(When::After, Arc::new(RecordFn { kind, loc }));
    }

    /// Host-side checking: classify the destination values of one bulk
    /// record (all 32 lanes are checked; the record carries the ones that
    /// can produce findings).
    fn on_channel_record(&mut self, record: &[u8]) -> u64 {
        if record.len() < 4 {
            return 0;
        }
        let mut findings = 0u64;
        self.values_checked += 32;
        let loc = u16::from_le_bytes([record[0], record[1]]);
        let flags = record[2];
        let kept = record[3] as usize;
        let rcp = flags & FLAG_RCP != 0;
        let f64_rec = flags & FLAG_F64 != 0;
        for i in 0..kept {
            let at = 4 + i * 8;
            if record.len() < at + 8 {
                break;
            }
            let (kind, fp) = if f64_rec {
                let lo = u32::from_le_bytes(record[at..at + 4].try_into().unwrap());
                let hi = u32::from_le_bytes(record[at + 4..at + 8].try_into().unwrap());
                let k = if rcp {
                    checks::check_64_div0(lo, hi)
                } else {
                    checks::check_64_nan_inf_sub(lo, hi)
                };
                (k, FpFormat::Fp64)
            } else {
                let bits = u32::from_le_bytes(record[at..at + 4].try_into().unwrap());
                let k = if rcp {
                    checks::check_32_div0(bits)
                } else {
                    checks::check_32_nan_inf_sub(bits)
                };
                (k, FpFormat::Fp32)
            };
            let Some(exce) = kind else { continue };
            findings += 1;
            let rec = ExceptionRecord { exce, loc, fp };
            let locs = Arc::clone(&self.locs);
            let locs = locs.lock();
            self.report.ingest(rec, locs.resolve(loc));
        }
        // BinFPE reports every occurrence — no site deduplication — so the
        // host emits a line per finding. On exception-dense programs this
        // report flood is what makes it hang.
        findings * fpx_nvbit::overhead::HOST_REPORT_LINE
    }

    /// BinFPE's actual exception check runs on the host: 32 destination
    /// values classified per record.
    fn host_cost_per_record(&self) -> u64 {
        32 * HOST_CHECK_PER_VALUE
    }
}

/// The `ExceptionKind` set BinFPE can attribute — identical checking rules
/// to GPU-FPX on the instructions it *does* cover.
pub fn covered_kinds() -> [ExceptionKind; 4] {
    ExceptionKind::ALL
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpx_nvbit::Nvbit;
    use fpx_sass::assemble_kernel;
    use fpx_sim::gpu::{Arch, Gpu, LaunchConfig};
    use gpu_fpx::detector::{Detector, DetectorConfig};

    fn run_binfpe(src: &str, grid: u32, block: u32) -> (Nvbit<BinFpe>, fpx_nvbit::LaunchReport) {
        let k = Arc::new(assemble_kernel(src).unwrap());
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere), BinFpe::new());
        let rep = nv
            .launch(&k, &LaunchConfig::new(grid, block, vec![]))
            .unwrap();
        (nv, rep)
    }

    const DIV0: &str = r#"
.kernel div0
    MOV32I R0, 0x0 ;
    MUFU.RCP R1, R0 ;
    FADD R2, R1, 1.0 ;
    EXIT ;
"#;

    #[test]
    fn finds_same_exceptions_as_detector_on_computation_ops() {
        let (nv, _) = run_binfpe(DIV0, 1, 32);
        let r = nv.tool.report();
        assert_eq!(r.counts.get(FpFormat::Fp32, ExceptionKind::DivByZero), 1);
        assert_eq!(r.counts.get(FpFormat::Fp32, ExceptionKind::Inf), 1);
    }

    #[test]
    fn ships_one_bulk_record_per_warp_execution() {
        let (nv, rep) = run_binfpe(DIV0, 2, 64);
        // 2 blocks × 2 warps × 2 instrumented FP instrs, one 32-lane
        // block each.
        assert_eq!(rep.records, 2 * 2 * 2);
        assert_eq!(nv.tool.values_checked, rep.records * 32);
    }

    #[test]
    fn misses_control_flow_opcodes() {
        // A NaN flowing through FSEL: GPU-FPX's analyzer sees it; BinFPE
        // records nothing for the FSEL itself.
        let src = r#"
.kernel fsel_only
    FSEL R2, R1, R0, PT ;
    FMNMX R3, R2, R0, PT ;
    EXIT ;
"#;
        let (nv, rep) = run_binfpe(src, 1, 32);
        assert_eq!(rep.records, 0, "no computation opcodes → no records");
        assert_eq!(nv.tool.values_checked, 0);
    }

    #[test]
    fn binfpe_is_slower_than_gpu_fpx_detector() {
        // The same exception-free FP-dense looped kernel, both tools, same
        // grid. The loop gives the program enough baseline work that the
        // marginal (per-instruction) overheads dominate the fixed GT/JIT
        // costs, as on any realistically sized benchmark.
        let src = r#"
.kernel dense
    MOV32I R0, 0x3f800000 ;
    MOV32I R7, 0x0 ;
    SSY `(.L_sync) ;
.L_top:
    FADD R1, R0, R0 ;
    FMUL R2, R1, R1 ;
    FFMA R3, R2, R1, R0 ;
    FADD R4, R3, R1 ;
    FMUL R5, R4, R2 ;
    FFMA R6, R5, R4, R3 ;
    IADD3 R7, R7, 0x1, RZ ;
    ISETP.LT.AND P0, R7, 0xc8 ;
    @P0 BRA `(.L_top) ;
.L_sync:
    SYNC ;
    EXIT ;
"#;
        let k = Arc::new(assemble_kernel(src).unwrap());
        let cfg = LaunchConfig::new(8, 256, vec![]);

        // Plain baseline: run the kernel uninstrumented.
        let mut gpu = Gpu::new(Arch::Ampere);
        let code = fpx_sim::hooks::InstrumentedCode::plain(Arc::clone(&k));
        gpu.launch(&code, &cfg).unwrap();
        let base = gpu.clock.cycles();

        let mut binfpe = Nvbit::new(Gpu::new(Arch::Ampere), BinFpe::new());
        binfpe.launch(&k, &cfg).unwrap();
        let bf = binfpe.gpu.clock.cycles();

        let mut fpx = Nvbit::new(
            Gpu::new(Arch::Ampere),
            Detector::new(DetectorConfig::default()),
        );
        fpx.launch(&k, &cfg).unwrap();
        let fx = fpx.gpu.clock.cycles();

        let bf_slow = bf as f64 / base as f64;
        let fx_slow = fx as f64 / base as f64;
        assert!(
            bf_slow > 4.0 * fx_slow,
            "BinFPE slowdown {bf_slow:.1}x should dwarf GPU-FPX {fx_slow:.1}x"
        );
    }
}
