//! Floating-point formats, value classification, and exception kinds.
//!
//! Mirrors §2.1 of the paper: a binary floating-point number with exponent
//! field all-ones encodes INF (zero mantissa) or NaN (non-zero mantissa);
//! an all-zero exponent with a non-zero mantissa encodes a subnormal.
//! Division-by-zero is not a value class — it is inferred when a
//! `MUFU.RCP`/`MUFU.RCP64H` destination holds NaN or INF (Algorithm 1).

use serde::{Deserialize, Serialize};

/// Floating-point storage format of a SASS operation.
///
/// The exception-record format (paper Fig. 3) reserves two bits for the
/// format, anticipating FP16; the simulator currently executes FP32 and
/// FP64 but the encoding keeps the FP16 slot so record layouts match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FpFormat {
    /// IEEE-754 binary32, one SASS register.
    Fp32,
    /// IEEE-754 binary64, a pair of adjacent SASS registers.
    Fp64,
    /// IEEE-754 binary16 (reserved; planned in the paper's future work).
    Fp16,
}

impl FpFormat {
    /// Two-bit encoding used in the exception record (`E_fp`).
    #[inline]
    pub fn encode(self) -> u32 {
        match self {
            FpFormat::Fp32 => 0,
            FpFormat::Fp64 => 1,
            FpFormat::Fp16 => 2,
        }
    }

    /// Inverse of [`FpFormat::encode`]; `None` for the unused encoding 3.
    #[inline]
    pub fn decode(bits: u32) -> Option<Self> {
        match bits & 0b11 {
            0 => Some(FpFormat::Fp32),
            1 => Some(FpFormat::Fp64),
            2 => Some(FpFormat::Fp16),
            _ => None,
        }
    }
}

impl std::fmt::Display for FpFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpFormat::Fp32 => write!(f, "FP32"),
            FpFormat::Fp64 => write!(f, "FP64"),
            FpFormat::Fp16 => write!(f, "FP16"),
        }
    }
}

/// IEEE value class of a register value, per §2.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FpClass {
    /// Exponent all ones, mantissa non-zero.
    NaN,
    /// Exponent all ones, mantissa zero.
    Inf,
    /// Exponent all zeros, mantissa non-zero.
    Subnormal,
    /// Positive or negative zero.
    Zero,
    /// Any other finite, normal value.
    Normal,
}

impl FpClass {
    /// True for the classes GPU-FPX reports as exceptional values
    /// (NaN, INF, subnormal).
    #[inline]
    pub fn is_exceptional(self) -> bool {
        matches!(self, FpClass::NaN | FpClass::Inf | FpClass::Subnormal)
    }
}

/// The four exception kinds GPU-FPX records (paper Fig. 3, `E_exce`).
///
/// `DivByZero` is flagged when a reciprocal (`MUFU.RCP*`) destination is
/// NaN or INF; the other three are flagged from the destination value class
/// of any floating-point computation instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExceptionKind {
    NaN,
    Inf,
    Subnormal,
    DivByZero,
}

impl ExceptionKind {
    /// All kinds, in the order used for report columns (NAN, INF, SUB, DIV0).
    pub const ALL: [ExceptionKind; 4] = [
        ExceptionKind::NaN,
        ExceptionKind::Inf,
        ExceptionKind::Subnormal,
        ExceptionKind::DivByZero,
    ];

    /// Two-bit encoding used in the exception record (`E_exce`).
    #[inline]
    pub fn encode(self) -> u32 {
        match self {
            ExceptionKind::NaN => 0,
            ExceptionKind::Inf => 1,
            ExceptionKind::Subnormal => 2,
            ExceptionKind::DivByZero => 3,
        }
    }

    /// Inverse of [`ExceptionKind::encode`].
    #[inline]
    pub fn decode(bits: u32) -> Self {
        match bits & 0b11 {
            0 => ExceptionKind::NaN,
            1 => ExceptionKind::Inf,
            2 => ExceptionKind::Subnormal,
            _ => ExceptionKind::DivByZero,
        }
    }

    /// Whether the paper counts this kind as "serious" (red font in
    /// Tables 4–6): NaN, INF, and DIV0 are serious; subnormals are not.
    #[inline]
    pub fn is_serious(self) -> bool {
        !matches!(self, ExceptionKind::Subnormal)
    }

    /// Column label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            ExceptionKind::NaN => "NAN",
            ExceptionKind::Inf => "INF",
            ExceptionKind::Subnormal => "SUB",
            ExceptionKind::DivByZero => "DIV0",
        }
    }
}

impl std::fmt::Display for ExceptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const F16_EXP_MASK: u16 = 0x7c00;
const F16_MAN_MASK: u16 = 0x03ff;
const F32_EXP_MASK: u32 = 0x7f80_0000;
const F32_MAN_MASK: u32 = 0x007f_ffff;
const F64_EXP_MASK: u64 = 0x7ff0_0000_0000_0000;
const F64_MAN_MASK: u64 = 0x000f_ffff_ffff_ffff;

/// Classify a raw FP32 register value by direct bit inspection, exactly as
/// the injected `check_32_*` device functions do (§2.1 encoding rules).
#[inline]
pub fn classify_f32(bits: u32) -> FpClass {
    let exp = bits & F32_EXP_MASK;
    let man = bits & F32_MAN_MASK;
    if exp == F32_EXP_MASK {
        if man == 0 {
            FpClass::Inf
        } else {
            FpClass::NaN
        }
    } else if exp == 0 {
        if man == 0 {
            FpClass::Zero
        } else {
            FpClass::Subnormal
        }
    } else {
        FpClass::Normal
    }
}

/// Classify a raw FP64 value (already concatenated from its register pair,
/// as `check_64_*` does after combining `Rd` and `Rd+1`).
#[inline]
pub fn classify_f64(bits: u64) -> FpClass {
    let exp = bits & F64_EXP_MASK;
    let man = bits & F64_MAN_MASK;
    if exp == F64_EXP_MASK {
        if man == 0 {
            FpClass::Inf
        } else {
            FpClass::NaN
        }
    } else if exp == 0 {
        if man == 0 {
            FpClass::Zero
        } else {
            FpClass::Subnormal
        }
    } else {
        FpClass::Normal
    }
}

/// Classify a raw FP16 value (stored in the low 16 bits of a register) —
/// the format the paper's record layout reserves `E_fp` space for and
/// that this reproduction implements as the planned extension.
#[inline]
pub fn classify_f16(bits: u16) -> FpClass {
    let exp = bits & F16_EXP_MASK;
    let man = bits & F16_MAN_MASK;
    if exp == F16_EXP_MASK {
        if man == 0 {
            FpClass::Inf
        } else {
            FpClass::NaN
        }
    } else if exp == 0 {
        if man == 0 {
            FpClass::Zero
        } else {
            FpClass::Subnormal
        }
    } else {
        FpClass::Normal
    }
}

/// Per-class lane bitmasks for one warp-wide row of register values — the
/// branchless, whole-warp counterpart of [`classify_f32`] and friends.
/// Bit `l` of each mask is set when lane `l`'s value falls in that class;
/// lanes outside the supplied active mask are cleared everywhere, and a
/// lane with no bit set holds a [`FpClass::Normal`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassMasks {
    pub nan: u32,
    pub inf: u32,
    pub sub: u32,
    pub zero: u32,
}

impl ClassMasks {
    /// Lanes holding a value GPU-FPX reports as exceptional
    /// (NaN | INF | subnormal) — the warp-level analogue of
    /// [`FpClass::is_exceptional`].
    #[inline]
    pub fn exceptional(&self) -> u32 {
        self.nan | self.inf | self.sub
    }

    /// Reconstruct the scalar class of one lane (active lanes only; an
    /// inactive lane reads as Normal because all its bits are cleared).
    #[inline]
    pub fn class_of(&self, lane: u32) -> FpClass {
        let bit = 1u32 << lane;
        if self.nan & bit != 0 {
            FpClass::NaN
        } else if self.inf & bit != 0 {
            FpClass::Inf
        } else if self.sub & bit != 0 {
            FpClass::Subnormal
        } else if self.zero & bit != 0 {
            FpClass::Zero
        } else {
            FpClass::Normal
        }
    }
}

/// Classify all 32 lanes of an FP32 register row in one straight-line
/// pass. The body is branch-free (SNIPPETS Snippet 1 style: shift off the
/// sign, isolate exponent and mantissa, fold boolean bit tests into lane
/// masks), so the compiler can unroll/vectorize it — this is the
/// detector's and analyzer's hot-path classification.
#[inline]
pub fn row_class_masks_f32(row: &[u32; 32], active: u32) -> ClassMasks {
    let (mut nan, mut inf, mut sub, mut zero) = (0u32, 0u32, 0u32, 0u32);
    for (lane, &bits) in row.iter().enumerate() {
        let exp = (bits << 1) >> 24; // 8-bit exponent, sign shifted off
        let man = (bits << 9) >> 9; // 23-bit mantissa
        let exp_ones = (exp == 0xff) as u32;
        let exp_zero = (exp == 0) as u32;
        let man_zero = (man == 0) as u32;
        nan |= (exp_ones & (1 ^ man_zero)) << lane;
        inf |= (exp_ones & man_zero) << lane;
        sub |= (exp_zero & (1 ^ man_zero)) << lane;
        zero |= (exp_zero & man_zero) << lane;
    }
    ClassMasks {
        nan: nan & active,
        inf: inf & active,
        sub: sub & active,
        zero: zero & active,
    }
}

/// Classify all 32 lanes of an FP64 register-pair row (`lo` = `Rd`,
/// `hi` = `Rd+1`) branchlessly; see [`row_class_masks_f32`].
#[inline]
pub fn row_class_masks_f64(lo: &[u32; 32], hi: &[u32; 32], active: u32) -> ClassMasks {
    let (mut nan, mut inf, mut sub, mut zero) = (0u32, 0u32, 0u32, 0u32);
    for lane in 0..32 {
        let h = hi[lane];
        let exp = (h << 1) >> 21; // 11-bit exponent from the high word
        let exp_ones = (exp == 0x7ff) as u32;
        let exp_zero = (exp == 0) as u32;
        let man_zero = (((h << 12) >> 12) | lo[lane] == 0) as u32;
        nan |= (exp_ones & (1 ^ man_zero)) << lane;
        inf |= (exp_ones & man_zero) << lane;
        sub |= (exp_zero & (1 ^ man_zero)) << lane;
        zero |= (exp_zero & man_zero) << lane;
    }
    ClassMasks {
        nan: nan & active,
        inf: inf & active,
        sub: sub & active,
        zero: zero & active,
    }
}

/// Classify all 32 lanes of an FP16 row (value in the low 16 bits of each
/// register, as `HADD2`-style ops store a scalar half) branchlessly.
#[inline]
pub fn row_class_masks_f16(row: &[u32; 32], active: u32) -> ClassMasks {
    let (mut nan, mut inf, mut sub, mut zero) = (0u32, 0u32, 0u32, 0u32);
    for (lane, &bits) in row.iter().enumerate() {
        let bits = bits & 0xffff;
        let exp = (bits >> 10) & 0x1f;
        let man = bits & 0x03ff;
        let exp_ones = (exp == 0x1f) as u32;
        let exp_zero = (exp == 0) as u32;
        let man_zero = (man == 0) as u32;
        nan |= (exp_ones & (1 ^ man_zero)) << lane;
        inf |= (exp_ones & man_zero) << lane;
        sub |= (exp_zero & (1 ^ man_zero)) << lane;
        zero |= (exp_zero & man_zero) << lane;
    }
    ClassMasks {
        nan: nan & active,
        inf: inf & active,
        sub: sub & active,
        zero: zero & active,
    }
}

/// The NaN | INF | subnormal lanes of an FP32 row, restricted to
/// `active`: `row_class_masks_f32(row, active).exceptional()` in one
/// mask. Each lane's test is two compares on the sign-cleared bits
/// (exponent all ones, or a nonzero value below the smallest normal),
/// and the bit is placed by AND-ing the compare result with a constant,
/// so the loop vectorizes without per-lane shifts.
#[inline]
pub fn row_exceptional_f32(row: &[u32; 32], active: u32) -> u32 {
    let mut m = 0u32;
    for (lane, &bits) in row.iter().enumerate() {
        let abs = bits & 0x7fff_ffff;
        let exc = (abs >= F32_EXP_MASK) | (abs.wrapping_sub(1) < F32_MAN_MASK);
        m |= (exc as u32).wrapping_neg() & (1 << lane);
    }
    m & active
}

/// The NaN | INF | subnormal lanes of an FP64 register-pair row (`lo` =
/// `Rd`, `hi` = `Rd+1`); see [`row_exceptional_f32`].
#[inline]
pub fn row_exceptional_f64(lo: &[u32; 32], hi: &[u32; 32], active: u32) -> u32 {
    let mut m = 0u32;
    for lane in 0..32 {
        let h = hi[lane] & 0x7fff_ffff;
        let exp_ones = h >= 0x7ff0_0000;
        let exp_zero = h < 0x0010_0000;
        let exc = exp_ones | (exp_zero & ((h | lo[lane]) != 0));
        m |= (exc as u32).wrapping_neg() & (1 << lane);
    }
    m & active
}

/// The NaN | INF | subnormal lanes of an FP16 row (value in the low 16
/// bits of each register); see [`row_exceptional_f32`].
#[inline]
pub fn row_exceptional_f16(row: &[u32; 32], active: u32) -> u32 {
    let mut m = 0u32;
    for (lane, &bits) in row.iter().enumerate() {
        let abs = bits & 0x7fff;
        let exc = (abs >= F16_EXP_MASK as u32) | (abs.wrapping_sub(1) < F16_MAN_MASK as u32);
        m |= (exc as u32).wrapping_neg() & (1 << lane);
    }
    m & active
}

/// Widen an IEEE binary16 bit pattern to f32 (handles subnormals, ±INF,
/// and NaN payload preservation in the quiet bit).
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = ((bits >> 15) as u32) << 31;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let man = (bits & 0x3ff) as u32;
    let out = match (exp, man) {
        (0, 0) => sign, // ±0
        (0, m) => {
            // Subnormal: value = m × 2⁻²⁴; normalize into f32 range.
            let shift = m.leading_zeros() - 21; // zeros above bit 10
            let m_norm = (m << shift) & 0x3ff; // drop the implicit bit
            let e = 113 - shift; // 127 + (10 - shift) - 24
            sign | (e << 23) | (m_norm << 13)
        }
        (0x1f, 0) => sign | 0x7f80_0000, // ±INF
        (0x1f, m) => sign | 0x7f80_0000 | (m << 13) | 0x0040_0000, // NaN
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(out)
}

/// Narrow an f32 to IEEE binary16 (round-to-nearest-even, with overflow
/// to ±INF and underflow through the subnormal range to ±0).
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 31) as u16) << 15;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // INF / NaN.
        return if man == 0 {
            sign | 0x7c00
        } else {
            // Quiet NaN, keeping the top payload bits.
            sign | 0x7e00 | ((man >> 13) as u16 & 0x01ff)
        };
    }
    let e16 = exp - 127 + 15;
    if e16 >= 0x1f {
        return sign | 0x7c00; // overflow → INF
    }
    if e16 <= 0 {
        // Subnormal (or zero) in f16.
        if e16 < -10 {
            return sign; // underflows to zero
        }
        let m = man | 0x0080_0000; // implicit bit
        let shift = (14 - e16) as u32;
        // Round-to-nearest-even on the dropped bits.
        let half = 1u32 << (shift - 1);
        let dropped = m & ((1 << shift) - 1);
        let mut q = m >> shift;
        if dropped > half || (dropped == half && (q & 1) == 1) {
            q += 1;
        }
        return sign | (q as u16 & 0x7fff);
    }
    // Normal: round mantissa to 10 bits, nearest-even.
    let mut e = e16 as u32;
    let dropped = man & 0x1fff;
    let mut q = man >> 13;
    if dropped > 0x1000 || (dropped == 0x1000 && (q & 1) == 1) {
        q += 1;
        if q == 0x400 {
            q = 0;
            e += 1;
            if e >= 0x1f {
                return sign | 0x7c00;
            }
        }
    }
    sign | ((e as u16) << 10) | (q as u16)
}

/// Combine two adjacent 32-bit registers into the FP64 bit pattern they
/// jointly store (`lo` = `Rd`, `hi` = `Rd+1`), per §2.2.
#[inline]
pub fn pair_to_f64_bits(lo: u32, hi: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Split an FP64 bit pattern into its (low, high) register pair.
#[inline]
pub fn f64_bits_to_pair(bits: u64) -> (u32, u32) {
    (bits as u32, (bits >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_f32_special_values() {
        assert_eq!(classify_f32(f32::NAN.to_bits()), FpClass::NaN);
        assert_eq!(classify_f32(f32::INFINITY.to_bits()), FpClass::Inf);
        assert_eq!(classify_f32(f32::NEG_INFINITY.to_bits()), FpClass::Inf);
        assert_eq!(classify_f32(0f32.to_bits()), FpClass::Zero);
        assert_eq!(classify_f32((-0f32).to_bits()), FpClass::Zero);
        assert_eq!(classify_f32(1.0f32.to_bits()), FpClass::Normal);
        assert_eq!(classify_f32(f32::MIN_POSITIVE.to_bits()), FpClass::Normal);
        // Largest subnormal: just below MIN_POSITIVE.
        let sub = f32::from_bits(f32::MIN_POSITIVE.to_bits() - 1);
        assert_eq!(classify_f32(sub.to_bits()), FpClass::Subnormal);
        assert_eq!(classify_f32(1u32), FpClass::Subnormal); // smallest subnormal
    }

    #[test]
    fn classify_f64_special_values() {
        assert_eq!(classify_f64(f64::NAN.to_bits()), FpClass::NaN);
        assert_eq!(classify_f64(f64::INFINITY.to_bits()), FpClass::Inf);
        assert_eq!(classify_f64((-0f64).to_bits()), FpClass::Zero);
        assert_eq!(classify_f64(5e-324f64.to_bits()), FpClass::Subnormal);
        assert_eq!(classify_f64(1.0f64.to_bits()), FpClass::Normal);
    }

    #[test]
    fn classify_f16_special_values() {
        assert_eq!(classify_f16(0x7c00), FpClass::Inf); // +INF
        assert_eq!(classify_f16(0xfc00), FpClass::Inf); // -INF
        assert_eq!(classify_f16(0x7e00), FpClass::NaN);
        assert_eq!(classify_f16(0x0000), FpClass::Zero);
        assert_eq!(classify_f16(0x8000), FpClass::Zero);
        assert_eq!(classify_f16(0x0001), FpClass::Subnormal); // smallest sub
        assert_eq!(classify_f16(0x03ff), FpClass::Subnormal); // largest sub
        assert_eq!(classify_f16(0x0400), FpClass::Normal); // smallest normal
        assert_eq!(classify_f16(0x3c00), FpClass::Normal); // 1.0
    }

    #[test]
    fn f16_conversions_roundtrip_exact_values() {
        for (bits, val) in [
            (0x3c00u16, 1.0f32),
            (0x4000, 2.0),
            (0xc000, -2.0),
            (0x3800, 0.5),
            (0x7bff, 65504.0),        // f16::MAX
            (0x0400, 6.103_515_6e-5), // smallest normal
        ] {
            assert_eq!(f16_to_f32(bits), val, "{bits:#06x}");
            assert_eq!(f32_to_f16(val), bits, "{val}");
        }
        assert!(f16_to_f32(0x7e00).is_nan());
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f32_to_f16(1e6), 0x7c00, "overflow to INF");
        assert_eq!(f32_to_f16(1e-10), 0x0000, "underflow to zero");
        assert!(f32_to_f16(f32::NAN) & 0x7c00 == 0x7c00);
        // Subnormal f16 values survive the round trip.
        for bits in [0x0001u16, 0x0123, 0x03ff] {
            assert_eq!(f32_to_f16(f16_to_f32(bits)), bits, "{bits:#06x}");
        }
    }

    #[test]
    fn f16_roundtrip_is_exhaustively_lossless() {
        for bits in 0..=u16::MAX {
            let wide = f16_to_f32(bits);
            if classify_f16(bits) == FpClass::NaN {
                assert!(wide.is_nan(), "{bits:#06x}");
                assert_eq!(classify_f16(f32_to_f16(wide)), FpClass::NaN);
            } else {
                assert_eq!(
                    f32_to_f16(wide),
                    bits,
                    "{bits:#06x} -> {wide} -> {:#06x}",
                    f32_to_f16(wide)
                );
                // Subnormality is format-relative (an FP16 subnormal is a
                // perfectly normal f32); INF is not.
                assert_eq!(
                    classify_f16(bits) == FpClass::Inf,
                    wide.is_infinite(),
                    "{bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn row_masks_agree_with_scalar_classify_f32() {
        let vals = [
            f32::NAN.to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            0f32.to_bits(),
            (-0f32).to_bits(),
            1.0f32.to_bits(),
            1u32,                            // smallest subnormal
            f32::MIN_POSITIVE.to_bits() - 1, // largest subnormal
            f32::MIN_POSITIVE.to_bits(),
            0xffc0_0000, // -NaN
        ];
        let mut row = [0u32; 32];
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = vals[i % vals.len()];
        }
        let m = row_class_masks_f32(&row, u32::MAX);
        for lane in 0..32u32 {
            assert_eq!(
                m.class_of(lane),
                classify_f32(row[lane as usize]),
                "lane {lane}"
            );
        }
        // Inactive lanes are cleared in every mask.
        let half = row_class_masks_f32(&row, 0x0000_ffff);
        assert_eq!(half.exceptional() & 0xffff_0000, 0);
        for lane in 16..32u32 {
            assert_eq!(half.class_of(lane), FpClass::Normal);
        }
    }

    #[test]
    fn row_exceptional_marks_nan_inf_and_subnormal_lanes() {
        let mut row = [1.0f32.to_bits(); 32];
        row[1] = f32::NAN.to_bits();
        row[2] = f32::NEG_INFINITY.to_bits();
        row[3] = 1; // smallest subnormal
        row[4] = (-0f32).to_bits();
        row[5] = f32::MIN_POSITIVE.to_bits(); // smallest normal
        row[6] = 0xffc0_0001; // -NaN with a payload
        assert_eq!(row_exceptional_f32(&row, u32::MAX), 0b100_1110);
        assert_eq!(row_exceptional_f32(&row, 0b1010), 0b1010);

        let (mut lo, mut hi) = ([0u32; 32], [0x3ff0_0000u32; 32]); // 1.0
        (lo[0], hi[0]) = f64_bits_to_pair(f64::INFINITY.to_bits());
        (lo[1], hi[1]) = (1, 0); // subnormal, low word only
        (lo[2], hi[2]) = (0, 0x8000_0000); // -0
        (lo[3], hi[3]) = (1, 0x7ff0_0000); // NaN, payload in the low word
        assert_eq!(row_exceptional_f64(&lo, &hi, u32::MAX), 0b1011);

        let mut row = [0xdead_3c00u32; 32]; // 1.0 under garbage high bits
        row[0] = 0x7c00;
        row[1] = 0xffff_8001; // negative subnormal
        row[2] = 0x0400; // smallest normal
        row[3] = 0xffff_8000; // -0
        assert_eq!(row_exceptional_f16(&row, u32::MAX), 0b11);
    }

    #[test]
    fn row_masks_agree_with_scalar_classify_f64_and_f16() {
        let vals64 = [
            f64::NAN.to_bits(),
            f64::INFINITY.to_bits(),
            (-0f64).to_bits(),
            5e-324f64.to_bits(),
            1.0f64.to_bits(),
            0x000f_ffff_ffff_ffffu64, // largest subnormal
            0x8000_0000_0000_0001u64, // negative subnormal, low word only
        ];
        let (mut lo, mut hi) = ([0u32; 32], [0u32; 32]);
        for lane in 0..32 {
            let (l, h) = f64_bits_to_pair(vals64[lane % vals64.len()]);
            lo[lane] = l;
            hi[lane] = h;
        }
        let m = row_class_masks_f64(&lo, &hi, u32::MAX);
        for lane in 0..32u32 {
            let bits = pair_to_f64_bits(lo[lane as usize], hi[lane as usize]);
            assert_eq!(m.class_of(lane), classify_f64(bits), "lane {lane}");
        }

        let vals16 = [
            0x7c00u16, 0xfc00, 0x7e00, 0x0000, 0x8000, 0x0001, 0x03ff, 0x3c00,
        ];
        let mut row = [0u32; 32];
        for lane in 0..32 {
            // High garbage bits must be ignored.
            row[lane] = 0xdead_0000 | vals16[lane % vals16.len()] as u32;
        }
        let m = row_class_masks_f16(&row, u32::MAX);
        for lane in 0..32u32 {
            assert_eq!(
                m.class_of(lane),
                classify_f16(row[lane as usize] as u16),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn pair_roundtrip() {
        let x = -1234.5678e-300f64;
        let (lo, hi) = f64_bits_to_pair(x.to_bits());
        assert_eq!(pair_to_f64_bits(lo, hi), x.to_bits());
    }

    #[test]
    fn encodings_roundtrip() {
        for k in ExceptionKind::ALL {
            assert_eq!(ExceptionKind::decode(k.encode()), k);
        }
        for f in [FpFormat::Fp32, FpFormat::Fp64, FpFormat::Fp16] {
            assert_eq!(FpFormat::decode(f.encode()), Some(f));
        }
        assert_eq!(FpFormat::decode(3), None);
    }

    #[test]
    fn seriousness_matches_paper_red_fonts() {
        assert!(ExceptionKind::NaN.is_serious());
        assert!(ExceptionKind::Inf.is_serious());
        assert!(ExceptionKind::DivByZero.is_serious());
        assert!(!ExceptionKind::Subnormal.is_serious());
    }
}
