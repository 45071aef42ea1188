//! Expected inference quality under a deadline (paper Eqs. 3, 7, 13).
//!
//! For a traditional DNN, quality is a step function of latency: the
//! model's quality if it finishes by the deadline, the fallback otherwise
//! (Eq. 3). ALERT's estimate takes the expectation over the latency
//! distribution (Eq. 7):
//!
//! ```text
//! q̂ = Pr[t ≤ T]·q + (1 − Pr[t ≤ T])·q_fail
//! ```
//!
//! For an anytime DNN the staircase of outputs generalizes this (Eq. 13):
//! the delivered output is the last stage completed by the deadline. All
//! stage completion times share the same ξ, so the event "stage k is the
//! best completed" has probability `Pr_k − Pr_{k+1}` with
//! `Pr_k = Pr[ξ·t^prof·frac_k ≤ T]` — a telescoping sum.
//!
//! The mean-only ablation (ALERT\* in paper §5.3, Fig. 10) replaces the
//! expectation with the staircase evaluated at the mean latency; its
//! failure to price tail risk is exactly what Fig. 10 measures.

use crate::config::{CandidateModel, StagePoint};
use alert_stats::normal::Normal;
use alert_stats::units::Seconds;

/// Expected quality of running `model` up to stage `target_stage`
/// (inclusive) with full-network profile `t_prof_full`, judged at
/// `deadline` (Eqs. 7/13).
///
/// # Panics
///
/// Panics if `target_stage` is out of range.
pub fn expected_quality(
    xi: &Normal,
    model: &CandidateModel,
    t_prof_full: Seconds,
    target_stage: usize,
    deadline: Seconds,
) -> f64 {
    let stages = &model.stages;
    assert!(target_stage < stages.len(), "stage out of range");
    // Pr_k for k = 0..=target.
    let mut probs = Vec::with_capacity(target_stage + 1);
    for s in &stages[..=target_stage] {
        let t_stage = t_prof_full * s.frac;
        let pr = crate::latency::deadline_probability(xi, t_stage, deadline);
        probs.push(pr);
    }
    expected_quality_from_probs(&stages[..=target_stage], model.fail_quality, &mut probs)
}

/// The Eq. 7/13 mixture given the *raw* per-stage completion
/// probabilities `probs[k] = Pr[stage k completes by the deadline]`
/// (clamped non-increasing in place, then telescoped).
///
/// This is the one implementation of the telescoping sum; both
/// [`expected_quality`] and the selection fast lane (`crate::lane`,
/// which memoizes the probabilities across sibling candidates) call it,
/// so the two paths are arithmetically identical by construction.
///
/// # Panics
///
/// Panics if `probs` is empty or its length differs from `stages`.
pub fn expected_quality_from_probs(
    stages: &[StagePoint],
    fail_quality: f64,
    probs: &mut [f64],
) -> f64 {
    assert!(!probs.is_empty(), "at least one stage required");
    assert_eq!(stages.len(), probs.len(), "stage/probability mismatch");
    let target_stage = probs.len() - 1;
    // Completion probabilities are non-increasing across stages (same ξ);
    // enforce against floating noise.
    for k in 1..probs.len() {
        if probs[k] > probs[k - 1] {
            probs[k] = probs[k - 1];
        }
    }
    let mut expected = 0.0;
    for k in 0..=target_stage {
        let pr_next = if k < target_stage { probs[k + 1] } else { 0.0 };
        expected += stages[k].quality * (probs[k] - pr_next);
    }
    expected += fail_quality * (1.0 - probs.first().copied().unwrap_or(0.0));
    expected
}

/// Relative slack of [`quality_ceiling`] over the largest quality
/// magnitude; see there for the rounding bound it covers.
const MIXTURE_ROUNDING_SLACK: f64 = 1e-9;

/// An upper bound on every expected quality the stage prefix `stages`
/// (stages `0..=target`) can yield, in either probability mode: the best
/// reachable quality `q_cap = max(fail_quality, stages' qualities)` plus
/// a rounding slack.
///
/// Mean-only estimates return one of those qualities verbatim. The
/// Eq. 7/13 mixture of [`expected_quality_from_probs`] weighs them with
/// `probs[k] − probs[k+1]` and `1 − probs[0]`: with every probability in
/// `[0, 1]` and the clamp making them non-increasing, the weights are
/// non-negative and sum to exactly 1 before rounding, so the exact
/// mixture is at most `q_cap`. Each rounded weight, product and sum
/// adds a relative error of at most `u = 2⁻⁵³`, so the computed mixture
/// over `n` stages exceeds `q_cap` by at most about
/// `(n + 2)·u·max|q|` — under `1e-13·max|q|` for any staircase of up to
/// a thousand stages. The slack `1e-9·max|q|` covers it with orders of
/// magnitude to spare. NaN qualities are ignored by `max`; a NaN
/// anywhere in the mixture makes the estimate NaN, which no floor
/// accepts.
pub fn quality_ceiling(stages: &[StagePoint], fail_quality: f64) -> f64 {
    let (q_cap, max_abs) = stages
        .iter()
        .map(|s| s.quality)
        .fold((fail_quality, fail_quality.abs()), |(cap, abs), q| {
            (cap.max(q), abs.max(q.abs()))
        });
    q_cap + MIXTURE_ROUNDING_SLACK * max_abs
}

/// The ALERT\* (mean-only) quality estimate: the staircase evaluated at
/// the mean latency, with no probabilistic mixing.
///
/// # Panics
///
/// Panics if `target_stage` is out of range for `model.stages` — stage
/// indices come from the candidate table, so an out-of-range index is a
/// construction bug, not a runtime condition.
pub fn mean_only_quality(
    xi: &Normal,
    model: &CandidateModel,
    t_prof_full: Seconds,
    target_stage: usize,
    deadline: Seconds,
) -> f64 {
    let stages = &model.stages;
    assert!(target_stage < stages.len(), "stage out of range");
    mean_only_quality_over(
        stages[..=target_stage]
            .iter()
            .map(|s| (t_prof_full * s.frac, s.quality)),
        model.fail_quality,
        xi.mean(),
        deadline,
    )
}

/// The mean-only staircase walk over `(stage profile latency, stage
/// quality)` pairs — the shared kernel of [`mean_only_quality`] and the
/// fast lane's precomputed-latency path. `t_prof_full * frac` (a single
/// f64 multiply) is the caller's job; `· ξ̄` and the staircase walk happen
/// here, in the exact original order of operations.
pub fn mean_only_quality_over(
    stage_pairs: impl Iterator<Item = (Seconds, f64)>,
    fail_quality: f64,
    xi_mean: f64,
    deadline: Seconds,
) -> f64 {
    let mut q = fail_quality;
    for (t_stage, quality) in stage_pairs {
        let mean_t = t_stage.get() * xi_mean;
        if mean_t <= deadline.get() {
            q = quality;
        } else {
            break;
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StagePoint;

    fn trad() -> CandidateModel {
        CandidateModel::traditional("t", 0.95, 0.005)
    }

    fn anytime() -> CandidateModel {
        CandidateModel::anytime(
            "a",
            vec![
                StagePoint {
                    frac: 0.3,
                    quality: 0.85,
                },
                StagePoint {
                    frac: 0.6,
                    quality: 0.91,
                },
                StagePoint {
                    frac: 1.0,
                    quality: 0.94,
                },
            ],
            0.005,
        )
    }

    #[test]
    fn traditional_matches_eq7() {
        let xi = Normal::new(1.0, 0.1);
        let t = Seconds(0.1);
        let deadline = Seconds(0.105);
        let pr = crate::latency::deadline_probability(&xi, t, deadline);
        let want = pr * 0.95 + (1.0 - pr) * 0.005;
        let got = expected_quality(&xi, &trad(), t, 0, deadline);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn certain_completion_gives_full_quality() {
        let xi = Normal::new(1.0, 0.01);
        let got = expected_quality(&xi, &trad(), Seconds(0.1), 0, Seconds(1.0));
        assert!((got - 0.95).abs() < 1e-9);
    }

    #[test]
    fn certain_miss_gives_fallback() {
        let xi = Normal::new(1.0, 0.01);
        let got = expected_quality(&xi, &trad(), Seconds(0.5), 0, Seconds(0.1));
        assert!((got - 0.005).abs() < 1e-9);
    }

    #[test]
    fn anytime_telescoping_sums_to_valid_mixture() {
        let xi = Normal::new(1.0, 0.2);
        let m = anytime();
        let t = Seconds(0.1);
        // Deadline such that stage 2 is uncertain, stages 0–1 nearly sure.
        let q = expected_quality(&xi, &m, t, 2, Seconds(0.09));
        assert!(q > 0.85 && q < 0.94, "q = {q}");
        // Expectation is bounded by the extreme stage qualities.
        assert!(q >= m.fail_quality && q <= 0.94);
    }

    #[test]
    fn anytime_beats_traditional_under_high_variance() {
        // The §3.4/§3.5 argument: with a volatile environment, the anytime
        // network's early outputs floor the expectation, while a similar-
        // latency traditional DNN risks total failure.
        let t = Seconds(0.1);
        // Deadline with a little slack over the full latency: a calm
        // environment completes almost surely, a wild one does not.
        let deadline = Seconds(0.11);
        let trad_big = CandidateModel::traditional("big", 0.95, 0.005);
        let calm = Normal::new(1.0, 0.02);
        let wild = Normal::new(1.0, 0.35);
        let q_trad_calm = expected_quality(&calm, &trad_big, t, 0, deadline);
        let q_any_calm = expected_quality(&calm, &anytime(), t, 2, deadline);
        let q_trad_wild = expected_quality(&wild, &trad_big, t, 0, deadline);
        let q_any_wild = expected_quality(&wild, &anytime(), t, 2, deadline);
        // Calm: traditional's higher final quality wins or ties.
        assert!(q_trad_calm > q_any_calm - 0.01);
        // Wild: anytime wins clearly.
        assert!(
            q_any_wild > q_trad_wild + 0.05,
            "anytime {q_any_wild} vs trad {q_trad_wild}"
        );
    }

    #[test]
    fn target_stage_caps_the_staircase() {
        let xi = Normal::new(1.0, 0.01);
        let m = anytime();
        // Plenty of time, but we stop at stage 0: expected quality ≈ 0.85.
        let q = expected_quality(&xi, &m, Seconds(0.1), 0, Seconds(10.0));
        assert!((q - 0.85).abs() < 1e-6);
    }

    #[test]
    fn mean_only_ignores_variance() {
        let m = trad();
        let t = Seconds(0.1);
        let deadline = Seconds(0.105);
        // Mean latency meets the deadline → full quality, no matter σ.
        for sigma in [0.01, 0.5] {
            let xi = Normal::new(1.0, sigma);
            let q = mean_only_quality(&xi, &m, t, 0, deadline);
            assert_eq!(q, 0.95);
        }
        // Full estimator prices the risk: far below 0.95 at σ = 0.5.
        let wild = Normal::new(1.0, 0.5);
        assert!(expected_quality(&wild, &m, t, 0, deadline) < 0.6);
    }

    #[test]
    fn mean_only_staircase() {
        let m = anytime();
        let xi = Normal::new(1.0, 0.0);
        let t = Seconds(0.1);
        assert_eq!(mean_only_quality(&xi, &m, t, 2, Seconds(0.07)), 0.91);
        assert_eq!(mean_only_quality(&xi, &m, t, 2, Seconds(0.02)), 0.005);
        assert_eq!(mean_only_quality(&xi, &m, t, 2, Seconds(0.2)), 0.94);
    }

    #[test]
    #[should_panic(expected = "stage out of range")]
    fn rejects_bad_stage() {
        let xi = Normal::new(1.0, 0.1);
        let _ = expected_quality(&xi, &trad(), Seconds(0.1), 3, Seconds(0.1));
    }
}
