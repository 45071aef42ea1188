//! The selection fast lane: structure-of-arrays candidate precomputation,
//! a per-decision stage-probability memo, and a valid-first search.
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
//!   cap, staircase, quality guard and quality ceiling) are flattened at
//!   construction into a cache-friendly structure-of-arrays, so a
//!   decision does no nested-`Vec` chasing;
//! * stage-completion probabilities are *memoized per decision* across
//!   sibling candidates (the stage-`k` target probability of `(i, k, j)`
//!   is the same number as stage `k` of `(i, k+1, j)`'s staircase);
//! * the `Φ⁻¹(Pr_th)` of the Eq. 12 energy bound — constant across
//!   candidates — is hoisted out of the loop
//!   ([`crate::latency::percentile_latency_with_z`]), and its default
//!   (no explicit `Pr_th`) is computed once at build;
//! * the search is **valid-first**, following the §4 hierarchy: the
//!   fallbacks matter only when no target is valid. Phase 1 walks the
//!   entries in enumeration order, skips every target a Φ-free test
//!   proves invalid (`select::may_be_valid`), and offers the rest to the
//!   valid competition only. If nothing valid turned up, phase 2 offers
//!   every target to all three competitions — the reference loop,
//!   reusing the phase-1 memo.
//!
//! Phase 1 returns the reference winner because every valid target is
//! offered, in the same relative order, with estimates from the same
//! floating-point expressions; the skipped targets would have failed the
//! valid test, and `SelectionAccumulator::finish` ignores the fallbacks
//! whenever a valid target exists. `tests/fast_lane.rs` proves
//! bit-identity of the lane and the controller against the reference
//! enumeration over randomized tables, beliefs, goals, group boundaries,
//! and snapshot/restore cuts, with cases that force each phase; the
//! `runtime` benchmark re-asserts it on every run.

use crate::alert::ProbabilityMode;
use crate::config::{Candidate, ConfigTable, StagePoint};
use crate::goal::Goal;
use crate::select::{
    may_be_valid, Estimates, SelectionAccumulator, ENERGY_GUARD_PERCENTILE, QUALITY_GUARD_FRACTION,
};
use crate::Selection;
use alert_stats::normal::{inv_phi, Normal};
use alert_stats::units::{Joules, Seconds, Watts};

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
    /// Upper bound on any expected quality of stages `0..=stage`
    /// ([`crate::quality::quality_ceiling`]).
    quality_ceiling: f64,
    /// First probability-memo slot of this candidate's `(model, power)`
    /// block; the block holds one slot per staircase stage.
    slot_base: u32,
}

impl LaneEntry {
    /// The Eq. 9 energy and its Eq. 12 bound — Φ-free, arithmetically
    /// identical to [`crate::select::evaluate`].
    fn energies(
        &self,
        xi: &Normal,
        idle_ratio: f64,
        period: Seconds,
        z_bound: Option<f64>,
    ) -> (Joules, Joules) {
        let energy = crate::energy::estimate_energy(
            xi,
            self.t_stage,
            self.p_run,
            self.cap,
            idle_ratio,
            period,
        );
        let energy_bound = match z_bound {
            Some(z) => {
                let t_pct = crate::latency::percentile_latency_with_z(xi, self.t_stage, z);
                crate::energy::estimate_energy_at(t_pct, self.p_run, self.cap, idle_ratio, period)
            }
            None => energy,
        };
        (energy, energy_bound)
    }
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
    /// `Φ⁻¹(ENERGY_GUARD_PERCENTILE)`, the Eq. 12 quantile of goals with
    /// no explicit `Pr_th`.
    default_z: f64,
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
    scored: usize,
}

impl LaneScratch {
    /// Scratch sized for `lane`.
    pub fn for_lane(lane: &CandidateLane) -> Self {
        LaneScratch {
            probs: vec![0.0; lane.stage_lat.len()],
            stamp: vec![0; lane.stage_lat.len()],
            generation: 0,
            quality_buf: vec![0.0; lane.max_stages],
            scored: 0,
        }
    }

    /// Targets the last selection scored in full (deadline probability
    /// and expected quality): the valid-first survivors, or every target
    /// when the §4 fallback ran.
    pub fn scored(&self) -> usize {
        self.scored
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
                quality_ceiling: crate::quality::quality_ceiling(
                    &m.stages[..=c.stage],
                    m.fail_quality,
                ),
                slot_base: base,
            });
        }

        let max_stages = models.iter().map(|m| m.stages.len()).max().unwrap_or(1);
        CandidateLane {
            entries,
            stage_lat,
            stage_points,
            max_stages,
            default_z: inv_phi(ENERGY_GUARD_PERCENTILE),
        }
    }

    /// Total execution targets.
    pub fn candidate_count(&self) -> usize {
        self.entries.len()
    }

    /// Targets the lane holds for selection: all of them, so this equals
    /// [`Self::candidate_count`]. How many a decision actually scores is
    /// [`LaneScratch::scored`].
    pub fn live_count(&self) -> usize {
        self.candidate_count()
    }

    /// Fast-lane counterpart of [`crate::select::select_with_period`]:
    /// same inputs, same output, bit for bit — a valid-first walk over
    /// the flattened entries with memoized stage probabilities and a
    /// hoisted `Φ⁻¹`, falling back to the full walk only when no target
    /// is valid (module docs).
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
            ProbabilityMode::Full if xi.std_dev() > 0.0 => {
                Some(goal.prob_threshold.map_or(self.default_z, inv_phi))
            }
            _ => None,
        };

        scratch.generation = scratch.generation.wrapping_add(1);
        let LaneScratch {
            probs,
            stamp,
            generation,
            quality_buf,
            scored,
        } = scratch;
        let mut memo = Memo {
            stage_lat: &self.stage_lat,
            probs,
            stamp,
            generation: *generation,
            quality_buf,
            xi,
            deadline: goal.deadline,
        };

        // Phase 1: score only what may be valid, for the valid
        // competition only.
        let mut acc = SelectionAccumulator::new();
        *scored = 0;
        for e in &self.entries {
            let mean_latency = crate::latency::predict_mean(xi, e.t_stage);
            let energies = || e.energies(xi, idle_ratio, period, z_bound);
            if !may_be_valid(
                e.is_anytime,
                mean_latency,
                e.quality_ceiling,
                e.guard,
                || energies().1,
                goal,
            ) {
                continue;
            }
            *scored += 1;
            let est = self.estimates(e, &mut memo, mean_latency, energies(), mode);
            acc.consider_valid(e.cand, est, e.is_anytime, e.guard, goal);
        }

        // Phase 2, the §4 fallback: nothing is valid, so every target
        // competes for the fallbacks, exactly as in the reference loop.
        if !acc.has_valid() {
            *scored = self.entries.len();
            for e in &self.entries {
                let mean_latency = crate::latency::predict_mean(xi, e.t_stage);
                let energies = e.energies(xi, idle_ratio, period, z_bound);
                let est = self.estimates(e, &mut memo, mean_latency, energies, mode);
                acc.consider(e.cand, est, e.is_anytime, e.guard, goal);
            }
        }
        acc.finish(goal)
    }

    /// Completes an entry's estimates from its Φ-free part (mean latency
    /// and [`LaneEntry::energies`]) with its deadline probability and
    /// expected quality, arithmetically identical to
    /// [`crate::select::evaluate`] (same leaf functions, same operand
    /// order), with stage probabilities memoized across candidates.
    fn estimates(
        &self,
        e: &LaneEntry,
        memo: &mut Memo<'_>,
        mean_latency: Seconds,
        (energy, energy_bound): (Joules, Joules),
        mode: ProbabilityMode,
    ) -> Estimates {
        let deadline = memo.deadline;
        let base = e.slot_base as usize;
        let n_stages = e.cand.stage + 1;

        let pr_deadline = match mode {
            ProbabilityMode::Full => memo.prob(base + e.cand.stage),
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
                for s in 0..n_stages {
                    memo.quality_buf[s] = memo.prob(base + s);
                }
                crate::quality::expected_quality_from_probs(
                    &self.stage_points[base..base + n_stages],
                    e.fail_quality,
                    &mut memo.quality_buf[..n_stages],
                )
            }
            ProbabilityMode::MeanOnly => crate::quality::mean_only_quality_over(
                self.stage_lat[base..base + n_stages]
                    .iter()
                    .zip(&self.stage_points[base..base + n_stages])
                    .map(|(&t, s)| (t, s.quality)),
                e.fail_quality,
                memo.xi.mean(),
                deadline,
            ),
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

/// One decision's view of the [`LaneScratch`]: the stage-probability
/// memo and the quality staging buffer.
struct Memo<'a> {
    stage_lat: &'a [Seconds],
    probs: &'a mut [f64],
    stamp: &'a mut [u64],
    generation: u64,
    quality_buf: &'a mut [f64],
    xi: &'a Normal,
    deadline: Seconds,
}

impl Memo<'_> {
    /// Lazily computed, per-decision-memoized stage-completion
    /// probability (paper Eq. 6) for one arena slot.
    fn prob(&mut self, slot: usize) -> f64 {
        if self.stamp[slot] != self.generation {
            self.probs[slot] =
                crate::latency::deadline_probability(self.xi, self.stage_lat[slot], self.deadline);
            self.stamp[slot] = self.generation;
        }
        self.probs[slot]
    }
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
