//! Cross-crate property-based tests: invariants over randomly generated
//! values, instructions, and kernels.

use fpx_sass::op::{BaseOp, CmpOp, MufuFunc};
use fpx_sass::operand::{Operand, RZ};
use fpx_sass::types::{
    classify_f32, classify_f64, f64_bits_to_pair, pair_to_f64_bits, row_class_masks_f16,
    row_class_masks_f32, row_class_masks_f64, row_exceptional_f16, row_exceptional_f32,
    row_exceptional_f64, ExceptionKind, FpClass, FpFormat,
};
use fpx_sass::{assemble, Instruction};
use gpu_fpx::record::ExceptionRecord;
use proptest::prelude::*;

fn arb_exception_kind() -> impl Strategy<Value = ExceptionKind> {
    prop_oneof![
        Just(ExceptionKind::NaN),
        Just(ExceptionKind::Inf),
        Just(ExceptionKind::Subnormal),
        Just(ExceptionKind::DivByZero),
    ]
}

fn arb_fp_format() -> impl Strategy<Value = FpFormat> {
    prop_oneof![
        Just(FpFormat::Fp32),
        Just(FpFormat::Fp64),
        Just(FpFormat::Fp16)
    ]
}

/// Raw bits of a float format with `exp_bits` exponent and `man_bits`
/// mantissa bits, weighted toward the classes the row tests separate:
/// NaN payloads, ±INF, subnormals, ±0, and arbitrary bits.
fn arb_float_bits(exp_bits: u32, man_bits: u32) -> impl Strategy<Value = u64> {
    let sign = 1u64 << (exp_bits + man_bits);
    let exp = ((1u64 << exp_bits) - 1) << man_bits;
    let man = (1u64 << man_bits) - 1;
    let signed = move |s: bool, bits: u64| if s { bits | sign } else { bits };
    prop_oneof![
        (any::<bool>(), 1..=man).prop_map(move |(s, m)| signed(s, exp | m)),
        any::<bool>().prop_map(move |s| signed(s, exp)),
        (any::<bool>(), 1..=man).prop_map(move |(s, m)| signed(s, m)),
        any::<bool>().prop_map(move |s| signed(s, 0)),
        any::<u64>().prop_map(move |b| b & (sign | exp | man)),
    ]
}

/// A warp-wide row of such values.
fn arb_row(exp_bits: u32, man_bits: u32) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(arb_float_bits(exp_bits, man_bits), 32..33)
}

/// Active masks: arbitrary, full and empty.
fn arb_active() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), Just(u32::MAX), Just(0)]
}

proptest! {
    /// The one-mask row tests equal the exceptional lanes of the full
    /// per-class masks, for every format and active mask.
    #[test]
    fn row_exceptional_equals_class_masks(
        r32 in arb_row(8, 23),
        r64 in arb_row(11, 52),
        r16 in arb_row(5, 10),
        high in any::<u16>(),
        active in arb_active(),
    ) {
        let row32: [u32; 32] = std::array::from_fn(|l| r32[l] as u32);
        prop_assert_eq!(
            row_exceptional_f32(&row32, active),
            row_class_masks_f32(&row32, active).exceptional()
        );
        let lo: [u32; 32] = std::array::from_fn(|l| f64_bits_to_pair(r64[l]).0);
        let hi: [u32; 32] = std::array::from_fn(|l| f64_bits_to_pair(r64[l]).1);
        prop_assert_eq!(
            row_exceptional_f64(&lo, &hi, active),
            row_class_masks_f64(&lo, &hi, active).exceptional()
        );
        // FP16 lives in the low half-word; the high half is ignored.
        let row16: [u32; 32] = std::array::from_fn(|l| (high as u32) << 16 | r16[l] as u32);
        prop_assert_eq!(
            row_exceptional_f16(&row16, active),
            row_class_masks_f16(&row16, active).exceptional()
        );
    }

    /// Bit-level classification agrees with Rust's own float predicates.
    #[test]
    fn classify_f32_agrees_with_std(bits in any::<u32>()) {
        let v = f32::from_bits(bits);
        let c = classify_f32(bits);
        prop_assert_eq!(c == FpClass::NaN, v.is_nan());
        prop_assert_eq!(c == FpClass::Inf, v.is_infinite());
        prop_assert_eq!(c == FpClass::Subnormal, v.is_subnormal());
        prop_assert_eq!(c == FpClass::Zero, v == 0.0 && !v.is_nan());
        prop_assert_eq!(c == FpClass::Normal, v.is_normal());
    }

    #[test]
    fn classify_f64_agrees_with_std(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let c = classify_f64(bits);
        prop_assert_eq!(c == FpClass::NaN, v.is_nan());
        prop_assert_eq!(c == FpClass::Inf, v.is_infinite());
        prop_assert_eq!(c == FpClass::Subnormal, v.is_subnormal());
    }

    /// FP64 register pairing is a bijection.
    #[test]
    fn register_pairing_roundtrips(bits in any::<u64>()) {
        let (lo, hi) = f64_bits_to_pair(bits);
        prop_assert_eq!(pair_to_f64_bits(lo, hi), bits);
    }

    /// Exception records (Fig. 3) round-trip through their 20-bit keys
    /// and their 4-byte channel encoding.
    #[test]
    fn exception_record_roundtrips(
        exce in arb_exception_kind(),
        loc in any::<u16>(),
        fp in arb_fp_format(),
    ) {
        let rec = ExceptionRecord { exce, loc, fp };
        prop_assert!(rec.encode() < gpu_fpx::record::KEY_SPACE);
        prop_assert_eq!(ExceptionRecord::decode(rec.encode()), Some(rec));
        prop_assert_eq!(ExceptionRecord::from_bytes(&rec.to_bytes()), Some(rec));
    }

    /// Distinct records always get distinct keys (no aliasing inside GT).
    #[test]
    fn distinct_records_have_distinct_keys(
        a in (arb_exception_kind(), any::<u16>(), arb_fp_format()),
        b in (arb_exception_kind(), any::<u16>(), arb_fp_format()),
    ) {
        let ra = ExceptionRecord { exce: a.0, loc: a.1, fp: a.2 };
        let rb = ExceptionRecord { exce: b.0, loc: b.1, fp: b.2 };
        prop_assert_eq!(ra == rb, ra.encode() == rb.encode());
    }

    /// The detector check functions fire exactly on exceptional classes.
    #[test]
    fn check_fns_match_classification(bits in any::<u32>()) {
        use gpu_fpx::checks::*;
        let c = classify_f32(bits);
        prop_assert_eq!(
            check_32_nan_inf_sub(bits).is_some(),
            matches!(c, FpClass::NaN | FpClass::Inf | FpClass::Subnormal)
        );
        prop_assert_eq!(
            check_32_div0(bits).is_some(),
            matches!(c, FpClass::NaN | FpClass::Inf)
        );
    }

    /// SASS text round-trips through the assembler for arbitrary FP32
    /// three-register instructions (the detector's bread and butter).
    #[test]
    fn sass_text_roundtrips(
        op_idx in 0usize..6,
        d in 0u8..200,
        a in 0u8..200,
        b in 0u8..200,
    ) {
        let ops = [BaseOp::FAdd, BaseOp::FMul, BaseOp::FSel,
                   BaseOp::FSetP(CmpOp::Lt), BaseOp::Mufu(MufuFunc::Rcp),
                   BaseOp::DAdd];
        let base = ops[op_idx];
        let instr = match base {
            BaseOp::FSel => Instruction::new(base, vec![
                Operand::reg(d), Operand::reg(a), Operand::reg(b),
                Operand::pred(3),
            ]),
            BaseOp::FSetP(_) => Instruction::new(base, vec![
                Operand::pred(1), Operand::reg(a), Operand::reg(b),
            ]),
            BaseOp::Mufu(_) => Instruction::new(base, vec![
                Operand::reg(d), Operand::reg(a),
            ]),
            BaseOp::DAdd => Instruction::new(base, vec![
                Operand::reg(d & !1), Operand::reg(a & !1), Operand::reg(b & !1),
            ]),
            _ => Instruction::new(base, vec![
                Operand::reg(d), Operand::reg(a), Operand::reg(b),
            ]),
        };
        let text = instr.sass();
        let parsed = assemble(&text).unwrap();
        prop_assert_eq!(parsed.sass(), text);
    }

    /// RZ is a true bit-bucket under every FP op the detector watches:
    /// writes disappear, reads are +0.0.
    #[test]
    fn rz_semantics_hold(bits in any::<u32>()) {
        use fpx_sim::warp::WarpLanes;
        let mut lanes = WarpLanes::new(16);
        lanes.set_reg(0, RZ, bits);
        prop_assert_eq!(lanes.reg(0, RZ), 0);
        prop_assert_eq!(lanes.reg_pair(0, RZ), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled arithmetic matches host arithmetic on safe inputs: the
    /// simulator+compiler pipeline computes `x*a + b` exactly.
    #[test]
    fn compiled_fma_matches_host(
        x in -1.0e3f32..1.0e3,
        a in -1.0e3f32..1.0e3,
        b in -1.0e3f32..1.0e3,
    ) {
        use fpx_compiler::{CompileOpts, KernelBuilder, ParamTy};
        use fpx_sim::gpu::{Arch, Gpu, LaunchConfig, ParamValue};
        use fpx_sim::hooks::InstrumentedCode;
        use std::sync::Arc;

        let mut kb = KernelBuilder::new("p", &[("o", ParamTy::Ptr), ("x", ParamTy::F32),
                                               ("a", ParamTy::F32), ("b", ParamTy::F32)]);
        let t = kb.global_tid();
        let o = kb.param(0);
        let (vx, va, vb) = (kb.param(1), kb.param(2), kb.param(3));
        let r = kb.fma(vx, va, vb);
        kb.store_f32(o, t, r);
        let k = Arc::new(kb.compile(&CompileOpts::default()).unwrap());
        let mut gpu = Gpu::new(Arch::Ampere);
        let out = gpu.mem.alloc(4 * 32).unwrap();
        gpu.launch(&InstrumentedCode::plain(k), &LaunchConfig::new(1, 32, vec![
            ParamValue::Ptr(out), ParamValue::F32(x), ParamValue::F32(a), ParamValue::F32(b),
        ])).unwrap();
        let got = gpu.mem.read_f32(out, 1).unwrap()[0];
        prop_assert_eq!(got, x.mul_add(a, b));
    }

    /// The detector never reports anything on kernels whose inputs and
    /// operations are confined to safe normal ranges.
    #[test]
    fn detector_is_silent_on_safe_chains(ops in proptest::collection::vec(0u8..5, 1..20),
                                          x0 in 0.5f32..2.0) {
        use fpx_compiler::{CompileOpts, KernelBuilder, ParamTy};
        use fpx_nvbit::Nvbit;
        use fpx_sim::gpu::{Arch, Gpu, LaunchConfig, ParamValue};
        use gpu_fpx::detector::{Detector, DetectorConfig};
        use std::sync::Arc;

        let mut kb = KernelBuilder::new("safe", &[("o", ParamTy::Ptr), ("x", ParamTy::F32)]);
        let t = kb.global_tid();
        let o = kb.param(0);
        let mut v = kb.param(1);
        let half = kb.const_f32(0.5);
        let one = kb.const_f32(1.0);
        for op in &ops {
            v = match op {
                0 => kb.fma(v, half, one),
                1 => { let m = kb.mul(v, half); kb.add(m, one) }
                2 => kb.max(v, half),
                3 => kb.min(v, one),
                _ => kb.add(v, one),
            };
        }
        kb.store_f32(o, t, v);
        let k = Arc::new(kb.compile(&CompileOpts::default()).unwrap());
        let mut nv = Nvbit::new(Gpu::new(Arch::Ampere),
                                Detector::new(DetectorConfig::default()));
        let out = nv.gpu.mem.alloc(4 * 32).unwrap();
        nv.launch(&k, &LaunchConfig::new(1, 32, vec![
            ParamValue::Ptr(out), ParamValue::F32(x0),
        ])).unwrap();
        prop_assert_eq!(nv.tool.report().counts.total(), 0);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// GT determinism: running the same program twice yields identical
    /// reports (sites, counts, messages).
    #[test]
    fn detection_is_deterministic(seed in 0u8..8) {
        let names = ["GRAMSCHM", "LU", "interval", "HPCG",
                     "Remhos", "BlackScholes", "cuML-HousePrice", "SRU-Example"];
        let name = names[seed as usize];
        let cfg = fpx_suite::runner::RunnerConfig::default();
        let p = fpx_suite::find(name).unwrap();
        let a = fpx_suite::runner::detect(&p, &cfg);
        let b = fpx_suite::runner::detect(&p, &cfg);
        prop_assert_eq!(a.counts.row(), b.counts.row());
        prop_assert_eq!(a.messages, b.messages);
    }

    /// Thread-per-SM parallel execution is observably equivalent to the
    /// serial schedule: identical baseline and instrumented cycle totals,
    /// identical exception counts/occurrences, identical record counts,
    /// and the same message *set* (a GT CAS race between SMs can hand the
    /// first-occurrence push to a different block, permuting report order
    /// — never content).
    #[test]
    fn parallel_detection_matches_serial(seed in 0u8..6, threads in 2usize..5) {
        use fpx_suite::runner::{run_baseline, run_with_tool, RunnerConfig, Tool};
        use gpu_fpx::detector::DetectorConfig;

        let names = ["GRAMSCHM", "LU", "interval", "BlackScholes", "COVAR", "hotspot"];
        let p = fpx_suite::find(names[seed as usize]).unwrap();
        let serial_cfg = RunnerConfig::default();
        let par_cfg = RunnerConfig { threads, ..RunnerConfig::default() };
        let tool = Tool::Detector(DetectorConfig::default());
        let base = run_baseline(&p, &serial_cfg);
        prop_assert_eq!(base, run_baseline(&p, &par_cfg), "baseline cycles are schedule-free");
        let a = run_with_tool(&p, &serial_cfg, &tool, base);
        let b = run_with_tool(&p, &par_cfg, &tool, base);
        prop_assert_eq!(a.cycles, b.cycles, "instrumented cycles are schedule-free");
        prop_assert_eq!(a.records, b.records);
        prop_assert_eq!(a.hung, b.hung);
        let ra = a.detector_report.unwrap();
        let rb = b.detector_report.unwrap();
        prop_assert_eq!(ra.counts.row(), rb.counts.row());
        prop_assert_eq!(ra.counts.row16(), rb.counts.row16());
        prop_assert_eq!(ra.occurrences, rb.occurrences);
        let mut ma = ra.messages.clone();
        let mut mb = rb.messages.clone();
        ma.sort();
        mb.sort();
        prop_assert_eq!(ma, mb, "same findings, any schedule");
    }
}
