//! The normal (Gaussian) distribution.
//!
//! ALERT models the global slowdown factor ξ as a normal random variable
//! (paper §3.3, Idea 2). Three operations on the normal distribution sit on
//! the controller's hot path:
//!
//! * the CDF Φ, used for the probability that a configuration finishes by
//!   the deadline (paper Eq. 6),
//! * the inverse CDF Φ⁻¹, used for the percentile-latency energy bound
//!   (paper Eq. 12),
//! * the PDF, used when fitting observed slowdowns for Fig. 11.
//!
//! The implementations are dependency-free: `erf` uses the Abramowitz &
//! Stegun 7.1.26 rational approximation refined to double precision with a
//! continued-fraction-free correction, and `inv_phi` uses Acklam's rational
//! approximation polished by two Halley iterations, giving ~1e-15 relative
//! accuracy across `(0, 1)`.

use serde::{Deserialize, Serialize};

/// 1/√(2π), the normalization constant of the standard normal PDF.
pub const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// √2.
const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// The `|x|` from which `erf(x)` is exactly `±1.0` in double precision.
///
/// `erfc` is decreasing and `erfc(6) ≈ 2.15e-17`, below `2⁻⁵⁴ ≈ 5.55e-17`
/// — half the spacing of doubles just below 1.0 — so `1.0 − erfc(|x|)`
/// rounds to exactly 1.0 for every `|x| ≥ 6`, and the shortcut returns
/// the very bits the full evaluation would (the unit test
/// `erf_saturates_exactly_from_six` sweeps the computed `erfc_abs` over
/// `[6, 26.5]`, beyond which it is 0.0 anyway). Φ's upper tail lands
/// here: `Φ(z) = ½·erfc(−z/√2)` evaluates `erf` for `z ≥ 6√2 ≈ 8.5`,
/// a deadline many standard deviations away.
const ERF_SATURATION: f64 = 6.0;

/// The error function `erf(x)`.
///
/// Uses the rational Chebyshev approximation from W. J. Cody (1969) with
/// three regimes, accurate to better than 1e-15 in double precision.
///
/// # Examples
///
/// ```
/// use alert_stats::normal::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    // Cody's algorithm: erf on [0, 0.5], erfc on (0.5, 4], asymptotic erfc
    // beyond. Coefficients from Cody (1969), "Rational Chebyshev
    // approximation for the error function".
    let ax = x.abs();
    if ax < 0.5 {
        // erf(x) = x * P(x^2)/Q(x^2)
        const P: [f64; 5] = [
            3.209_377_589_138_469_4e3,
            3.774_852_376_853_02e2,
            1.138_641_541_510_501_6e2,
            3.161_123_743_870_565_6,
            1.857_777_061_846_031_5e-1,
        ];
        const Q: [f64; 4] = [
            2.844_236_833_439_171e3,
            1.282_616_526_077_372_3e3,
            2.440_246_379_344_441_7e2,
            2.360_129_095_234_412_3e1,
        ];
        let z = x * x;
        let num = ((((P[4] * z + P[3]) * z + P[2]) * z + P[1]) * z) + P[0];
        let den = ((((z + Q[3]) * z + Q[2]) * z + Q[1]) * z) + Q[0];
        x * num / den
    } else if ax >= ERF_SATURATION {
        // `1 − erfc(|x|)` rounds to exactly 1.0 here (see
        // `ERF_SATURATION`), so skip the `exp` and the rational.
        1.0_f64.copysign(x)
    } else {
        let ec = erfc_abs(ax);
        let v = 1.0 - ec;
        if x < 0.0 {
            -v
        } else {
            v
        }
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Keeps full relative precision in the far right tail where `1 - erf(x)`
/// would cancel catastrophically; this matters because ALERT evaluates
/// deadline-miss probabilities that can be tiny.
pub fn erfc(x: f64) -> f64 {
    if x < 0.5 {
        1.0 - erf(x)
    } else {
        erfc_abs(x)
    }
}

/// `erfc` for non-negative arguments ≥ 0.5.
fn erfc_abs(ax: f64) -> f64 {
    debug_assert!(ax >= 0.5);
    if ax <= 4.0 {
        // erfc(x) = exp(-x^2) * P(x)/Q(x)
        const P: [f64; 9] = [
            1.230_339_354_797_997_2e3,
            2.051_078_377_826_071_6e3,
            1.712_047_612_634_070_7e3,
            8.819_522_212_417_69e2,
            2.986_351_381_974_001e2,
            6.611_919_063_714_163e1,
            8.883_149_794_388_376,
            5.641_884_969_886_7e-1,
            2.153_115_354_744_038_3e-8,
        ];
        const Q: [f64; 8] = [
            1.230_339_354_803_749_8e3,
            3.439_367_674_143_721_6e3,
            4.362_619_090_143_247e3,
            3.290_799_235_733_459_7e3,
            1.621_389_574_566_690_3e3,
            5.371_811_018_620_099e2,
            1.176_939_508_913_124_6e2,
            1.574_492_611_070_983_3e1,
        ];
        let num = P.iter().rev().fold(0.0_f64, |acc, &c| acc * ax + c);
        let den = Q.iter().rev().fold(1.0_f64, |acc, &c| acc * ax + c);
        (-ax * ax).exp() * num / den
    } else {
        // Asymptotic regime (Cody): erfc(x) = exp(-x²)/x · (1/√π − z·P(z)/Q(z))
        // with z = 1/x². Coefficients from netlib CALERF.
        if ax > 26.5 {
            // exp(-x²) underflows; erfc is zero to double precision.
            return 0.0;
        }
        const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_3;
        const P: [f64; 6] = [
            3.053_266_349_612_323_4e-1,
            3.603_448_999_498_044_4e-1,
            1.257_817_261_112_292_5e-1,
            1.608_378_514_874_228e-2,
            6.587_491_615_298_378e-4,
            1.631_538_713_730_209_8e-2,
        ];
        const Q: [f64; 5] = [
            2.568_520_192_289_822,
            1.872_952_849_923_460_5,
            5.279_051_029_514_284e-1,
            6.051_834_131_244_132e-2,
            2.335_204_976_268_691_8e-3,
        ];
        let z = 1.0 / (ax * ax);
        let mut num = P[5] * z;
        let mut den = z;
        for i in 0..4 {
            num = (num + P[i]) * z;
            den = (den + Q[i]) * z;
        }
        let r = z * (num + P[4]) / (den + Q[4]);
        let v = (-ax * ax).exp() * (FRAC_1_SQRT_PI - r) / ax;
        v.max(0.0)
    }
}

/// Standard normal probability density function φ(x).
#[inline]
pub fn pdf(x: f64) -> f64 {
    FRAC_1_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution function Φ(x).
///
/// # Examples
///
/// ```
/// use alert_stats::normal::phi;
/// assert!((phi(0.0) - 0.5).abs() < 1e-15);
/// assert!((phi(1.959963984540054) - 0.975).abs() < 1e-9);
/// ```
#[inline]
pub fn phi(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Inverse of the standard normal CDF, Φ⁻¹(p).
///
/// Acklam's rational approximation, refined by two Halley iterations to
/// near machine precision.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)` (the quantile is unbounded at the
/// endpoints).
///
/// # Examples
///
/// ```
/// use alert_stats::normal::{inv_phi, phi};
/// let x = inv_phi(0.975);
/// assert!((x - 1.959963984540054).abs() < 1e-9);
/// assert!((phi(inv_phi(0.3)) - 0.3).abs() < 1e-12);
/// ```
pub fn inv_phi(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "inv_phi requires p in (0,1), got {p}");
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // Two Halley refinement steps push the error to ~1 ulp.
    let mut x = x;
    for _ in 0..2 {
        let e = phi(x) - p;
        let u = e / pdf(x);
        x -= u / (1.0 + x * u / 2.0);
    }
    x
}

/// A normal distribution with mean `mu` and standard deviation `sigma`.
///
/// `sigma == 0` is allowed and degenerates to a point mass; the CDF becomes
/// a step function. ALERT hits this case when the Kalman variance estimate
/// collapses in perfectly quiescent (simulated) environments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "mean must be finite");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and non-negative, got {sigma}"
        );
        Normal { mu, sigma }
    }

    /// The mean μ.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// The standard deviation σ.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.sigma
    }

    /// The variance σ².
    #[inline]
    pub fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    /// Probability density at `x`.
    ///
    /// For the degenerate `sigma == 0` case the density is not defined; this
    /// returns `f64::INFINITY` at `mu` and `0` elsewhere.
    pub fn pdf(&self, x: f64) -> f64 {
        // lint:allow(nan-unsafe-compare): exact degenerate-distribution sentinel; sigma is validated finite and non-negative at construction
        if self.sigma == 0.0 {
            if x == self.mu {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            pdf((x - self.mu) / self.sigma) / self.sigma
        }
    }

    /// Cumulative probability `P[X <= x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        // lint:allow(nan-unsafe-compare): exact degenerate-distribution sentinel; sigma is validated finite and non-negative at construction
        if self.sigma == 0.0 {
            if x >= self.mu {
                1.0
            } else {
                0.0
            }
        } else {
            phi((x - self.mu) / self.sigma)
        }
    }

    /// Quantile function: the `x` with `P[X <= x] = p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)` and the distribution is not
    /// degenerate.
    pub fn quantile(&self, p: f64) -> f64 {
        // lint:allow(nan-unsafe-compare): exact degenerate-distribution sentinel; sigma is validated finite and non-negative at construction
        if self.sigma == 0.0 {
            self.mu
        } else {
            self.mu + self.sigma * inv_phi(p)
        }
    }

    /// Probability that `X` exceeds `x` (upper tail), computed without
    /// cancellation.
    pub fn sf(&self, x: f64) -> f64 {
        // lint:allow(nan-unsafe-compare): exact degenerate-distribution sentinel; sigma is validated finite and non-negative at construction
        if self.sigma == 0.0 {
            if x >= self.mu {
                0.0
            } else {
                1.0
            }
        } else {
            0.5 * erfc((x - self.mu) / (self.sigma * SQRT_2))
        }
    }

    /// Scales the random variable by a positive constant: `c·X`.
    ///
    /// ALERT uses this to turn the slowdown distribution ξ into a latency
    /// distribution ξ·t^prof (paper Eq. 6).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not positive.
    pub fn scaled(&self, c: f64) -> Normal {
        assert!(c > 0.0 && c.is_finite(), "scale must be positive");
        Normal::new(self.mu * c, self.sigma * c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_saturates_exactly_from_six() {
        // Dense sweep of the saturated range: the full evaluation rounds
        // to exactly 1.0 at every point, so the shortcut changes no bit.
        let n = 2_000_000;
        let (lo, hi) = (ERF_SATURATION, 26.5);
        for i in 0..=n {
            let x = lo + (hi - lo) * (i as f64 / n as f64);
            assert_eq!(1.0 - erfc_abs(x), 1.0, "x = {x}");
            assert_eq!(erf(x), 1.0);
            assert_eq!(erf(-x), -1.0);
        }
        // The analytic bound the shortcut rests on.
        assert!(erfc_abs(ERF_SATURATION) < 2f64.powi(-54));
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun tables / mpmath.
        let cases = [
            (0.0, 0.0),
            (0.1, 0.112_462_916_018_284_9),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (1.5, 0.966_105_146_475_310_7),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 1e-12,
                "erf({x}) = {} want {want}",
                erf(x)
            );
            assert!((erf(-x) + want).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_tail_has_relative_precision() {
        // erfc(5) = 1.5374597944280348e-12 (mpmath).
        let v = erfc(5.0);
        let want = 1.537_459_794_428_034_8e-12;
        assert!(
            ((v - want) / want).abs() < 1e-8,
            "erfc(5) = {v}, want {want}"
        );
        // erfc(10) = 2.0884875837625448e-45.
        let v = erfc(10.0);
        let want = 2.088_487_583_762_545e-45;
        assert!(((v - want) / want).abs() < 1e-6);
    }

    #[test]
    fn phi_reference_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-15);
        assert!((phi(1.0) - 0.841_344_746_068_542_9).abs() < 1e-12);
        assert!((phi(-1.0) - 0.158_655_253_931_457_05).abs() < 1e-12);
        assert!((phi(2.326_347_874_040_841) - 0.99).abs() < 1e-10);
    }

    #[test]
    fn inv_phi_roundtrip() {
        for &p in &[1e-10, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6] {
            let x = inv_phi(p);
            let back = phi(x);
            assert!(
                (back - p).abs() < 1e-12 * (1.0 + 1.0 / p.min(1.0 - p)).min(1e3),
                "p={p} x={x} back={back}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inv_phi requires p in (0,1)")]
    fn inv_phi_rejects_zero() {
        let _ = inv_phi(0.0);
    }

    #[test]
    fn normal_cdf_and_quantile() {
        let n = Normal::new(10.0, 2.0);
        assert!((n.cdf(10.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(12.0) - phi(1.0)).abs() < 1e-12);
        assert!((n.quantile(0.5) - 10.0).abs() < 1e-9);
        assert!((n.quantile(phi(1.0)) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn normal_sf_complements_cdf() {
        let n = Normal::new(0.0, 1.0);
        for &x in &[-3.0, -1.0, 0.0, 0.5, 2.0, 4.0] {
            assert!((n.sf(x) + n.cdf(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_normal_is_step() {
        let n = Normal::new(3.0, 0.0);
        assert_eq!(n.cdf(2.999), 0.0);
        assert_eq!(n.cdf(3.0), 1.0);
        assert_eq!(n.quantile(0.123), 3.0);
        assert_eq!(n.sf(3.0), 0.0);
        assert_eq!(n.sf(2.0), 1.0);
        assert_eq!(n.pdf(3.0), f64::INFINITY);
        assert_eq!(n.pdf(1.0), 0.0);
    }

    #[test]
    fn scaled_normal_matches_latency_use() {
        // ξ ~ N(1.2, 0.1); latency = ξ * 0.05s → N(0.06, 0.005).
        let xi = Normal::new(1.2, 0.1);
        let lat = xi.scaled(0.05);
        assert!((lat.mean() - 0.06).abs() < 1e-15);
        assert!((lat.std_dev() - 0.005).abs() < 1e-15);
        // P[latency <= deadline] must match P[ξ <= deadline/t_prof].
        let deadline = 0.065;
        assert!((lat.cdf(deadline) - xi.cdf(deadline / 0.05)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn negative_sigma_rejected() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Simple trapezoid check over [-8, 8].
        let n = 16_000;
        let (a, b) = (-8.0, 8.0);
        let h = (b - a) / n as f64;
        let mut s = 0.5 * (pdf(a) + pdf(b));
        for i in 1..n {
            s += pdf(a + i as f64 * h);
        }
        s *= h;
        assert!((s - 1.0).abs() < 1e-10, "integral = {s}");
    }
}
