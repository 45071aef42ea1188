//! The selection fast lane: structure-of-arrays candidate precomputation
//! with a per-decision stage-probability memo.
//!
//! ALERT re-enumerates every `(device, model, stage, power)` execution
//! target per input (§3.2 step 4, with the device axis collapsing on
//! single-platform tables), and in this runtime that enumeration *is* the
//! throughput ceiling — the per-decision cost is almost entirely CDF and
//! inverse-CDF evaluations plus table chasing. [`CandidateLane`] rebuilds
//! that hot path **selection-identically** to the reference enumeration
//! in [`crate::select::select_with_period`]:
//!
//! * per-candidate profile terms (`t^prof` stage latencies, run power,
//!   cap, staircase, quality guard) are flattened at construction into a
//!   cache-friendly structure-of-arrays, so a decision does no
//!   nested-`Vec` chasing;
//! * stage-completion probabilities are *memoized per decision* across
//!   sibling candidates (the stage-`k` target probability of `(i, k, j)`
//!   is the same number as stage `k` of `(i, k+1, j)`'s staircase);
//! * the `Φ⁻¹(Pr_th)` of the Eq. 12 energy bound — constant across
//!   candidates — is hoisted out of the loop
//!   ([`crate::latency::percentile_latency_with_z`]).
//!
//! Every candidate is scored, in enumeration order, through the
//! same `SelectionAccumulator`, and every reused value is produced by
//! the *same* floating-point expression as the reference path, so
//! sharing cannot change a bit. `tests/fast_lane.rs` proves bit-identity
//! of the lane and the controller against the reference enumeration over
//! randomized tables, beliefs, goals, group boundaries, and
//! snapshot/restore cuts; the `runtime` benchmark re-asserts it on every
//! run.

use crate::alert::ProbabilityMode;
use crate::config::{Candidate, ConfigTable, StagePoint};
use crate::goal::Goal;
use crate::select::{
    Estimates, SelectionAccumulator, ENERGY_GUARD_PERCENTILE, QUALITY_GUARD_FRACTION,
};
use crate::Selection;
use alert_stats::normal::{inv_phi, Normal};
use alert_stats::units::{Seconds, Watts};

/// One flattened execution target.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    cand: Candidate,
    /// Profiled completion time of the target stage (`t^prof · frac_k`).
    t_stage: Seconds,
    p_run: Watts,
    cap: Watts,
    is_anytime: bool,
    fail_quality: f64,
    /// Precomputed [`QUALITY_GUARD_FRACTION`] span margin.
    guard: f64,
    /// First probability-memo slot of this candidate's `(model, power)`
    /// block; the block holds one slot per staircase stage.
    slot_base: u32,
}

/// The static fast-lane tables. Built once per controller from a
/// [`ConfigTable`]; immutable afterwards (per-decision mutable state
/// lives in [`LaneScratch`]).
#[derive(Debug, Clone)]
pub struct CandidateLane {
    /// Every execution target, in exact table-enumeration order.
    entries: Vec<LaneEntry>,
    /// Stage-latency arena: per `(model, power)` block, the profiled
    /// completion time of every staircase stage (`t^prof_{i,j} · frac_s`,
    /// the exact product the reference path computes).
    stage_lat: Vec<Seconds>,
    /// Stage points aligned with `stage_lat`.
    stage_points: Vec<StagePoint>,
    /// Longest staircase (sizes the quality scratch buffer).
    max_stages: usize,
}

/// Reusable per-decision mutable state: the stage-probability memo and
/// the quality staging buffer. Owned by the controller so decisions
/// allocate nothing.
#[derive(Debug, Clone)]
pub struct LaneScratch {
    probs: Vec<f64>,
    stamp: Vec<u64>,
    generation: u64,
    quality_buf: Vec<f64>,
}

impl LaneScratch {
    /// Scratch sized for `lane`.
    pub fn for_lane(lane: &CandidateLane) -> Self {
        LaneScratch {
            probs: vec![0.0; lane.stage_lat.len()],
            stamp: vec![0; lane.stage_lat.len()],
            generation: 0,
            quality_buf: vec![0.0; lane.max_stages],
        }
    }
}

impl CandidateLane {
    /// Flattens a candidate table.
    pub fn build(table: &ConfigTable) -> Self {
        let models = table.models();

        // Arena layout: (device, model, power)-major blocks of staircase
        // slots — device-major like the enumeration, so single-device
        // tables keep the historical layout bit-for-bit.
        let mut stage_lat = Vec::new();
        let mut stage_points = Vec::new();
        let mut slot_base: Vec<Vec<Vec<u32>>> = (0..table.device_count())
            .map(|d| vec![vec![0u32; table.powers_on(d).len()]; models.len()])
            .collect();
        for (d, per_model) in slot_base.iter_mut().enumerate() {
            for (i, m) in models.iter().enumerate() {
                for (j, base) in per_model[i].iter_mut().enumerate() {
                    *base = stage_lat.len() as u32;
                    let t_full = table.t_prof_on(d, i, j);
                    for s in &m.stages {
                        // The exact product `t_prof_stage` computes.
                        stage_lat.push(t_full * s.frac);
                        stage_points.push(*s);
                    }
                }
            }
        }

        // Entries in exact enumeration order (device → model → stage →
        // power).
        let mut entries = Vec::with_capacity(table.candidate_count());
        for c in table.candidates() {
            let m = &models[c.model];
            let base = slot_base[c.device][c.model][c.power];
            entries.push(LaneEntry {
                cand: c,
                t_stage: stage_lat[base as usize + c.stage],
                p_run: table.p_run_on(c.device, c.model, c.power),
                cap: table.cap_on(c.device, c.power),
                is_anytime: m.is_anytime(),
                fail_quality: m.fail_quality,
                guard: QUALITY_GUARD_FRACTION * (m.final_quality() - m.fail_quality),
                slot_base: base,
            });
        }

        let max_stages = models.iter().map(|m| m.stages.len()).max().unwrap_or(1);
        CandidateLane {
            entries,
            stage_lat,
            stage_points,
            max_stages,
        }
    }

    /// Total execution targets.
    pub fn candidate_count(&self) -> usize {
        self.entries.len()
    }

    /// Targets scored per decision: every one of them, so this equals
    /// [`Self::candidate_count`]. Kept for callers that report the
    /// scored share.
    pub fn live_count(&self) -> usize {
        self.candidate_count()
    }

    /// Fast-lane counterpart of [`crate::select::select_with_period`]:
    /// same inputs, same output, bit for bit — enumeration runs over the
    /// flattened entries with memoized stage probabilities and a hoisted
    /// `Φ⁻¹`.
    ///
    /// # Errors
    ///
    /// Exactly the reference path's errors: goal-validation failure, or
    /// an empty candidate set.
    pub fn select_with_period(
        &self,
        scratch: &mut LaneScratch,
        xi: &Normal,
        idle_ratio: f64,
        goal: &Goal,
        period: Seconds,
        mode: ProbabilityMode,
    ) -> Result<Selection, String> {
        goal.validate().map_err(|e| format!("invalid goal: {e}"))?;

        // Hoist the Eq. 12 standard-normal quantile: constant across
        // candidates within one decision.
        let z_bound = match mode {
            ProbabilityMode::Full if xi.std_dev() > 0.0 => Some(inv_phi(
                goal.prob_threshold.unwrap_or(ENERGY_GUARD_PERCENTILE),
            )),
            _ => None,
        };

        scratch.generation = scratch.generation.wrapping_add(1);
        let LaneScratch {
            probs,
            stamp,
            generation,
            quality_buf,
        } = scratch;

        let mut acc = SelectionAccumulator::new();
        for e in &self.entries {
            let est = self.evaluate_entry(
                e,
                probs,
                stamp,
                *generation,
                quality_buf,
                xi,
                idle_ratio,
                goal,
                period,
                mode,
                z_bound,
            );
            acc.consider(e.cand, est, e.is_anytime, e.guard, goal);
        }
        acc.finish(goal)
    }

    /// Per-candidate estimates, arithmetically identical to
    /// [`crate::select::evaluate`] (same leaf functions, same operand
    /// order), with stage probabilities memoized across candidates.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_entry(
        &self,
        e: &LaneEntry,
        probs: &mut [f64],
        stamp: &mut [u64],
        generation: u64,
        quality_buf: &mut [f64],
        xi: &Normal,
        idle_ratio: f64,
        goal: &Goal,
        period: Seconds,
        mode: ProbabilityMode,
        z_bound: Option<f64>,
    ) -> Estimates {
        let deadline = goal.deadline;
        let base = e.slot_base as usize;
        let n_stages = e.cand.stage + 1;

        let mean_latency = crate::latency::predict_mean(xi, e.t_stage);
        let pr_deadline = match mode {
            ProbabilityMode::Full => slot_prob(
                &self.stage_lat,
                probs,
                stamp,
                generation,
                base + e.cand.stage,
                xi,
                deadline,
            ),
            ProbabilityMode::MeanOnly => {
                if mean_latency.get() <= deadline.get() {
                    1.0
                } else {
                    0.0
                }
            }
        };
        let expected_quality = match mode {
            ProbabilityMode::Full => {
                for (s, q) in quality_buf.iter_mut().enumerate().take(n_stages) {
                    *q = slot_prob(
                        &self.stage_lat,
                        probs,
                        stamp,
                        generation,
                        base + s,
                        xi,
                        deadline,
                    );
                }
                crate::quality::expected_quality_from_probs(
                    &self.stage_points[base..base + n_stages],
                    e.fail_quality,
                    &mut quality_buf[..n_stages],
                )
            }
            ProbabilityMode::MeanOnly => crate::quality::mean_only_quality_over(
                self.stage_lat[base..base + n_stages]
                    .iter()
                    .zip(&self.stage_points[base..base + n_stages])
                    .map(|(&t, s)| (t, s.quality)),
                e.fail_quality,
                xi.mean(),
                deadline,
            ),
        };
        let energy =
            crate::energy::estimate_energy(xi, e.t_stage, e.p_run, e.cap, idle_ratio, period);
        let energy_bound = match z_bound {
            Some(z) => {
                let t_pct = crate::latency::percentile_latency_with_z(xi, e.t_stage, z);
                crate::energy::estimate_energy_at(t_pct, e.p_run, e.cap, idle_ratio, period)
            }
            None => energy,
        };
        Estimates {
            mean_latency,
            pr_deadline,
            expected_quality,
            energy,
            energy_bound,
        }
    }
}

/// Lazily computed, per-decision-memoized stage-completion probability
/// (paper Eq. 6) for one arena slot.
fn slot_prob(
    stage_lat: &[Seconds],
    probs: &mut [f64],
    stamp: &mut [u64],
    generation: u64,
    slot: usize,
    xi: &Normal,
    deadline: Seconds,
) -> f64 {
    if stamp[slot] != generation {
        probs[slot] = crate::latency::deadline_probability(xi, stage_lat[slot], deadline);
        stamp[slot] = generation;
    }
    probs[slot]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CandidateModel;
    use crate::select::select_with_period;
    use alert_stats::units::Joules;

    /// A table with deliberate cap-response saturation: the two top caps
    /// share identical profiled latencies, so selection must break exact
    /// ties the way the reference enumeration does.
    fn saturated_table() -> ConfigTable {
        let models = vec![
            CandidateModel::traditional("small", 0.86, 0.005),
            CandidateModel::anytime(
                "any",
                vec![
                    StagePoint {
                        frac: 0.4,
                        quality: 0.84,
                    },
                    StagePoint {
                        frac: 1.0,
                        quality: 0.94,
                    },
                ],
                0.005,
            ),
        ];
        let powers = vec![Watts(20.0), Watts(40.0), Watts(45.0)];
        let t_prof = vec![
            vec![Seconds(0.040), Seconds(0.020), Seconds(0.020)],
            vec![Seconds(0.240), Seconds(0.120), Seconds(0.120)],
        ];
        let p_run = vec![
            vec![Watts(18.0), Watts(38.0), Watts(38.0)],
            vec![Watts(19.0), Watts(39.0), Watts(39.0)],
        ];
        ConfigTable::new(models, powers, t_prof, p_run).expect("valid table")
    }

    #[test]
    fn lane_matches_reference_on_saturated_table() {
        let t = saturated_table();
        let lane = CandidateLane::build(&t);
        // 3 stage-rows × 3 powers.
        assert_eq!(lane.candidate_count(), 9);
        let mut scratch = LaneScratch::for_lane(&lane);
        for (mean, std) in [(1.0, 0.02), (1.6, 0.3), (0.8, 0.0)] {
            let xi = Normal::new(mean, std);
            for goal in [
                Goal::minimize_energy(Seconds(0.15), 0.9),
                Goal::minimize_error(Seconds(0.15), Joules(2.0)),
                Goal::minimize_error(Seconds(0.01), Joules(1e-7)),
            ] {
                for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
                    let fast = lane
                        .select_with_period(&mut scratch, &xi, 0.25, &goal, goal.deadline, mode)
                        .unwrap();
                    let full =
                        select_with_period(&t, &xi, 0.25, &goal, goal.deadline, mode).unwrap();
                    assert_eq!(fast, full, "mean={mean} std={std} {goal:?} {mode:?}");
                }
            }
        }
    }

    #[test]
    fn low_prob_threshold_matches_reference() {
        let t = saturated_table();
        let lane = CandidateLane::build(&t);
        let mut scratch = LaneScratch::for_lane(&lane);
        let xi = Normal::new(1.0, 0.2);
        // Pr_th below ½ gives a negative Eq. 12 quantile; the hoisted
        // `Φ⁻¹` must still match the reference bit for bit.
        let goal = Goal::minimize_error(Seconds(0.15), Joules(2.0)).with_prob_threshold(0.2);
        let fast = lane
            .select_with_period(
                &mut scratch,
                &xi,
                0.25,
                &goal,
                goal.deadline,
                ProbabilityMode::Full,
            )
            .unwrap();
        let full =
            select_with_period(&t, &xi, 0.25, &goal, goal.deadline, ProbabilityMode::Full).unwrap();
        assert_eq!(fast, full);
    }

    /// The saturated table extended with a GPU-like device whose grid
    /// *repeats the CPU numbers bit-for-bit*, so every latency chain
    /// collides across devices and ties must resolve in enumeration
    /// order.
    fn two_device_table() -> ConfigTable {
        let mut t = saturated_table();
        let powers = vec![Watts(20.0), Watts(40.0), Watts(45.0)];
        let t_prof = vec![
            vec![Seconds(0.040), Seconds(0.020), Seconds(0.020)],
            vec![Seconds(0.240), Seconds(0.120), Seconds(0.120)],
        ];
        let p_run = vec![
            vec![Watts(18.0), Watts(38.0), Watts(38.0)],
            vec![Watts(19.0), Watts(39.0), Watts(39.0)],
        ];
        t.add_device("GPU", powers, t_prof, p_run)
            .expect("valid grid");
        t
    }

    #[test]
    fn two_device_lane_matches_reference() {
        let t = two_device_table();
        let lane = CandidateLane::build(&t);
        assert_eq!(lane.candidate_count(), 18);
        let mut scratch = LaneScratch::for_lane(&lane);
        for (mean, std) in [(1.0, 0.02), (1.6, 0.3), (0.8, 0.0)] {
            let xi = Normal::new(mean, std);
            for goal in [
                Goal::minimize_energy(Seconds(0.15), 0.9),
                Goal::minimize_error(Seconds(0.15), Joules(2.0)),
                Goal::minimize_error(Seconds(0.01), Joules(1e-7)),
            ] {
                for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
                    let fast = lane
                        .select_with_period(&mut scratch, &xi, 0.25, &goal, goal.deadline, mode)
                        .unwrap();
                    let full =
                        select_with_period(&t, &xi, 0.25, &goal, goal.deadline, mode).unwrap();
                    assert_eq!(fast, full, "mean={mean} std={std} {goal:?} {mode:?}");
                }
            }
        }
    }
}
