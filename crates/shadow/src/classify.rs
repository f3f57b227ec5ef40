//! Pure divergence classification: ulp-grid arithmetic and the
//! cancellation / large-relative-error / total-loss verdicts.
//!
//! Everything here is a pure function of its arguments so the classifier
//! can be unit-tested exhaustively (exact cancellation to ±0.0, the ulp
//! budget boundary, subnormal shadows, FTZ interaction) without running
//! the simulator.

/// Which values the sanitizer shadows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowMode {
    /// FP64 shadows for every FP32 computation (NSan-style).
    Full,
    /// Reduced-precision check: FP64 computations are shadowed in
    /// truncated form (24-bit significand), catching divergence that a
    /// precision *drop* would amplify at a fraction of full-shadow cost.
    Rpc,
}

impl ShadowMode {
    pub fn label(self) -> &'static str {
        match self {
            ShadowMode::Full => "full",
            ShadowMode::Rpc => "rpc",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(ShadowMode::Full),
            "rpc" => Some(ShadowMode::Rpc),
            _ => None,
        }
    }
}

/// Shadow-sanitizer configuration. Enters the serve/cache config
/// fingerprint in full, so cached results can never silently omit (or
/// mis-threshold) shadow findings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowConfig {
    pub mode: ShadowMode,
    /// Findings fire when |real − shadow| exceeds this many ulps of the
    /// shadow value (strictly greater — divergence exactly *at* the
    /// budget is within budget). The default sits safely above the
    /// SFU's `sfu_round` error (≤ 4 ulps) so `MUFU` never false-fires.
    pub ulp_budget: f64,
    /// Minimum exponent drop (max source exponent − result exponent)
    /// for an over-budget add/sub to classify as cancellation.
    pub cancel_threshold: u32,
    /// Host-side report cap; findings past it count as `dropped`.
    pub max_findings: usize,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig {
            mode: ShadowMode::Full,
            ulp_budget: 16.0,
            cancel_threshold: 8,
            max_findings: 10_000,
        }
    }
}

/// Why a writeback diverged from its shadow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DivergenceKind {
    /// Add/sub of near-equal magnitudes whose result exponent dropped
    /// past the threshold: the leading digits annihilated and the real
    /// result is mostly prior rounding error.
    Cancellation,
    /// |real − shadow| above the ulp budget without the cancellation
    /// shape: accumulated or amplified rounding error.
    LargeRelError,
    /// The real value left the finite range (NaN/INF) while the shadow
    /// stayed finite — precision loss so total the detector's exception
    /// classes take over. Cross-checks the existing detector.
    TotalLoss,
}

impl DivergenceKind {
    pub fn label(self) -> &'static str {
        match self {
            DivergenceKind::Cancellation => "cancellation",
            DivergenceKind::LargeRelError => "large-relative-error",
            DivergenceKind::TotalLoss => "total-loss",
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            DivergenceKind::Cancellation => 1,
            DivergenceKind::LargeRelError => 2,
            DivergenceKind::TotalLoss => 3,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<Self> {
        match c {
            1 => Some(DivergenceKind::Cancellation),
            2 => Some(DivergenceKind::LargeRelError),
            3 => Some(DivergenceKind::TotalLoss),
            _ => None,
        }
    }
}

/// The precision grid ulps are measured on. Shadows live in f64, but an
/// "ulp" means an ulp of the *real* format: binary32 for full mode, the
/// truncated 24-bit-significand grid for RPC (same fraction width,
/// binary64 exponent range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UlpGrid {
    /// Fraction bits of the grid (23 for binary32 and for the RPC
    /// truncation).
    pub sig_bits: i64,
    /// Minimum normal exponent; magnitudes below it measure in the
    /// fixed subnormal ulp `2^(min_exp − sig_bits)`.
    pub min_exp: i64,
}

/// Ulp grid of IEEE-754 binary32 (full mode).
pub const F32_GRID: UlpGrid = UlpGrid {
    sig_bits: 23,
    min_exp: -126,
};

/// Ulp grid of the RPC truncation: binary32 fraction width over the
/// binary64 exponent range.
pub const RPC_GRID: UlpGrid = UlpGrid {
    sig_bits: 23,
    min_exp: -1022,
};

/// Unbiased binary exponent of a finite non-zero `f64` (exact for
/// subnormals); `None` for ±0.
fn exponent_of(x: f64) -> Option<i64> {
    let bits = x.to_bits() & 0x7fff_ffff_ffff_ffff;
    if bits == 0 {
        return None;
    }
    let biased = (bits >> 52) as i64;
    Some(if biased == 0 {
        // Subnormal: value is mantissa × 2^-1074, top set bit at p.
        (63 - bits.leading_zeros() as i64) - 1074
    } else {
        biased - 1023
    })
}

/// 2^k as f64 (k is small enough here that subnormal results are exact).
fn exp2i(k: i64) -> f64 {
    if (-1022..=1023).contains(&k) {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        2.0f64.powi(k as i32)
    }
}

/// One ulp of `x` on `grid`. ±0 and subnormal magnitudes use the grid's
/// fixed subnormal ulp, so a shadow that is merely *rounded* into the
/// subnormal range (≤ 0.5 ulp off) is never flagged.
pub fn ulp_at(x: f64, grid: UlpGrid) -> f64 {
    let e = exponent_of(x).unwrap_or(grid.min_exp).max(grid.min_exp);
    exp2i(e - grid.sig_bits)
}

/// |real − shadow| in ulps of the shadow on `grid`. Exactly equal values
/// (including +0 vs −0) are 0 ulps apart. Both arguments must be finite.
pub fn err_ulps(real: f64, shadow: f64, grid: UlpGrid) -> f64 {
    if real == shadow {
        return 0.0;
    }
    (real - shadow).abs() / ulp_at(shadow, grid)
}

/// Truncate to the RPC shadow precision: 24-bit significand (low 29
/// fraction bits cleared), binary64 exponent range. Non-finite values
/// pass through.
pub fn rpc_truncate(x: f64) -> f64 {
    if !x.is_finite() {
        return x;
    }
    f64::from_bits(x.to_bits() & !((1u64 << 29) - 1))
}

/// Sign-preserving flush of sub-binary32-normal magnitudes to zero —
/// the shadow-side mirror of the simulator's `ftz32`, applied so FTZ
/// (declared instruction semantics) never reads as a finding.
pub fn flush32(x: f64) -> f64 {
    if x != 0.0 && x.abs() < f32::MIN_POSITIVE as f64 {
        if x.is_sign_negative() {
            -0.0
        } else {
            0.0
        }
    } else {
        x
    }
}

/// Does an over-budget add/sub have the catastrophic-cancellation shape?
/// Both addends finite and non-zero, effectively opposite signs, within
/// one binade of each other, and the real result's exponent dropped at
/// least `threshold` binades below the larger addend (a ±0 result is an
/// unbounded drop).
fn is_cancellation(a: f64, b: f64, real: f64, threshold: u32) -> bool {
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let (Some(ea), Some(eb)) = (exponent_of(a), exponent_of(b)) else {
        return false;
    };
    if a.is_sign_positive() == b.is_sign_positive() {
        return false;
    }
    if (ea - eb).abs() > 1 {
        return false;
    }
    let top = ea.max(eb);
    match exponent_of(real) {
        None => true, // exact-looking ±0 result: infinite drop
        Some(er) => top - er >= threshold as i64,
    }
}

/// Whether a writeback needs no verdict: the shadow is non-finite (it
/// cannot judge the real value, and the caller heals the slot) or real
/// and shadow agree within `budget` ulps on `grid`.
/// [`classify_writeback`] returns `None` exactly for these.
#[inline]
pub fn within_budget(real: f64, shadow: f64, budget: f64, grid: UlpGrid) -> bool {
    !shadow.is_finite() || (real.is_finite() && err_ulps(real, shadow, grid) <= budget)
}

/// [`within_budget`] over one warp's row of writebacks: bit `lane` is
/// set when that lane needs no verdict.
pub fn within_budget_row(real: &[f64; 32], shadow: &[f64; 32], budget: f64, grid: UlpGrid) -> u32 {
    let mut mask = 0u32;
    for l in 0..32 {
        mask |= (within_budget(real[l], shadow[l], budget, grid) as u32) << l;
    }
    mask
}

/// Classify one writeback. `addends` carries the two effective addend
/// shadow values for add/sub-shaped ops (for FFMA: the product and the
/// addend); `None` for everything else. Returns `None` when real and
/// shadow agree within budget — or when the *shadow* is non-finite, in
/// which case the caller heals the slot (a blown-up shadow can't judge
/// the real value; manifest exceptions are the detector's domain).
pub fn classify_writeback(
    addends: Option<(f64, f64)>,
    real: f64,
    shadow: f64,
    cfg: &ShadowConfig,
    grid: UlpGrid,
) -> Option<(DivergenceKind, f64)> {
    if within_budget(real, shadow, cfg.ulp_budget, grid) {
        return None;
    }
    if !real.is_finite() {
        return Some((DivergenceKind::TotalLoss, f64::INFINITY));
    }
    let err = err_ulps(real, shadow, grid);
    if let Some((a, b)) = addends {
        if is_cancellation(a, b, real, cfg.cancel_threshold) {
            return Some((DivergenceKind::Cancellation, err));
        }
    }
    Some((DivergenceKind::LargeRelError, err))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShadowConfig {
        ShadowConfig::default()
    }

    #[test]
    fn exact_match_is_zero_ulps() {
        assert_eq!(err_ulps(1.5, 1.5, F32_GRID), 0.0);
    }

    #[test]
    fn signed_zeros_are_zero_ulps_apart() {
        // Exact cancellation to ±0.0 in both real and shadow must never
        // be a finding, whatever the sign combination.
        assert_eq!(err_ulps(0.0, -0.0, F32_GRID), 0.0);
        assert_eq!(err_ulps(-0.0, 0.0, F32_GRID), 0.0);
        assert!(classify_writeback(Some((1.0, -1.0)), 0.0, -0.0, &cfg(), F32_GRID).is_none());
    }

    #[test]
    fn exact_cancellation_to_zero_with_residual_shadow_is_cancellation() {
        // real rounds to +0.0 while the shadow keeps the residual: the
        // canonical catastrophic-cancellation site.
        let residual = 2.0f64.powi(-31);
        let v = classify_writeback(
            Some((1.0 + residual, -1.0)),
            0.0,
            residual,
            &cfg(),
            F32_GRID,
        );
        let (kind, err) = v.expect("must fire");
        assert_eq!(kind, DivergenceKind::Cancellation);
        assert!(err.is_finite() && err > cfg().ulp_budget);
    }

    #[test]
    fn divergence_exactly_at_the_budget_is_within_budget() {
        // 16 ulps of 1.0f32 is exactly representable; the budget bound
        // is strict (err > budget), so == budget must not fire …
        let budget_exact = 1.0 + 16.0 * 2.0f64.powi(-23);
        assert_eq!(err_ulps(budget_exact, 1.0, F32_GRID), 16.0);
        assert!(classify_writeback(None, budget_exact, 1.0, &cfg(), F32_GRID).is_none());
        // … while one more ulp does.
        let over = 1.0 + 17.0 * 2.0f64.powi(-23);
        let (kind, err) = classify_writeback(None, over, 1.0, &cfg(), F32_GRID).expect("must fire");
        assert_eq!(kind, DivergenceKind::LargeRelError);
        assert_eq!(err, 17.0);
    }

    #[test]
    fn subnormal_shadow_uses_fixed_subnormal_ulp() {
        // A subnormal shadow rounded to the nearest binary32 subnormal
        // is ≤ 0.5 ulp off — never a finding.
        let shadow = 768.5 * 2.0f64.powi(-149); // between two f32 subnormals
        let real = (shadow as f32) as f64; // correctly rounded
        assert_eq!(err_ulps(real, shadow, F32_GRID), 0.5);
        assert!(classify_writeback(None, real, shadow, &cfg(), F32_GRID).is_none());
        // But a real value zeroed where the shadow keeps a large
        // subnormal is far over budget.
        let (kind, _) = classify_writeback(None, 0.0, 100.0 * 2.0f64.powi(-149), &cfg(), F32_GRID)
            .expect("must fire");
        assert_eq!(kind, DivergenceKind::LargeRelError);
    }

    #[test]
    fn ftz_flush_mirrors_declared_semantics() {
        // flush32 zeroes sub-f32-normal magnitudes sign-preservingly, so
        // an FTZ instruction's real 0 compares against a flushed shadow 0.
        let tiny = 9.0e-40_f64;
        assert_eq!(flush32(tiny), 0.0);
        assert!(flush32(-tiny).is_sign_negative() && flush32(-tiny) == 0.0);
        assert_eq!(flush32(1.0), 1.0);
        assert!(flush32(f64::NAN).is_nan());
        assert!(classify_writeback(None, 0.0, flush32(tiny), &cfg(), F32_GRID).is_none());
        // Without FTZ the same comparison is rounding-only and also clean.
        let real = (tiny as f32) as f64;
        assert!(classify_writeback(None, real, tiny, &cfg(), F32_GRID).is_none());
    }

    #[test]
    fn total_loss_requires_finite_shadow() {
        let v = classify_writeback(None, f64::INFINITY, 1.0e30, &cfg(), F32_GRID);
        assert_eq!(v.map(|(k, _)| k), Some(DivergenceKind::TotalLoss));
        // Both non-finite: the detector's domain, not a shadow finding.
        assert!(classify_writeback(None, f64::NAN, f64::NAN, &cfg(), F32_GRID).is_none());
        assert!(classify_writeback(None, f64::INFINITY, f64::INFINITY, &cfg(), F32_GRID).is_none());
    }

    #[test]
    fn cancellation_needs_opposite_signs_and_near_equal_magnitudes() {
        // Same signs: over-budget error is plain LargeRelError.
        let (k, _) = classify_writeback(Some((1.0, 1.0)), 2.5, 2.0, &cfg(), F32_GRID).unwrap();
        assert_eq!(k, DivergenceKind::LargeRelError);
        // More than one binade apart: not cancellation.
        let (k, _) = classify_writeback(Some((4.0, -1.0)), 3.5, 3.0, &cfg(), F32_GRID).unwrap();
        assert_eq!(k, DivergenceKind::LargeRelError);
        // Zero addend: not cancellation.
        let (k, _) = classify_writeback(Some((0.0, -1.0)), -1.5, -1.0, &cfg(), F32_GRID).unwrap();
        assert_eq!(k, DivergenceKind::LargeRelError);
    }

    #[test]
    fn rpc_truncation_keeps_24_bit_significand() {
        let x = 1.0 + 2.0f64.powi(-23) + 2.0f64.powi(-40);
        assert_eq!(rpc_truncate(x), 1.0 + 2.0f64.powi(-23));
        assert!(rpc_truncate(f64::NAN).is_nan());
        assert_eq!(rpc_truncate(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn rpc_grid_catches_f64_cancellation() {
        // 1 + 2^-40 cancels against -1: the truncated shadow saw exactly
        // 1 and produced 0, while the real f64 keeps 2^-40.
        let real = 2.0f64.powi(-40);
        let shadow = 0.0;
        let (kind, _) = classify_writeback(
            Some((rpc_truncate(1.0 + real), -1.0)),
            real,
            shadow,
            &cfg(),
            RPC_GRID,
        )
        .expect("must fire");
        assert_eq!(kind, DivergenceKind::Cancellation);
    }

    #[test]
    fn subnormal_exponents_are_exact() {
        assert_eq!(exponent_of(f64::MIN_POSITIVE), Some(-1022));
        assert_eq!(exponent_of(5e-324), Some(-1074)); // smallest subnormal
        assert_eq!(exponent_of(0.0), None);
        assert_eq!(exponent_of(-0.0), None);
        assert_eq!(exponent_of(1.5), Some(0));
    }
}
