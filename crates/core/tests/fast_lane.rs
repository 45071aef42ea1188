//! Soundness proofs-by-property for the selection fast lane: the SoA,
//! probability-memoized, valid-first decision path must be
//! **bit-identical** to the reference full enumeration for randomized
//! tables, beliefs, goals, probability modes, group boundaries, and
//! snapshot/restore cuts — in both of its phases (valid-first, and the
//! §4 fallback when nothing is valid).

use alert_core::alert::{AlertController, AlertParams, Observation, OverheadPolicy};
use alert_core::lane::{CandidateLane, LaneScratch};
use alert_core::select::{select_with_period, QUALITY_GUARD_FRACTION};
use alert_core::{CandidateModel, ConfigTable, Goal, ProbabilityMode, Selection, StagePoint};
use alert_stats::normal::Normal;
use alert_stats::units::{Joules, Seconds, Watts};
use proptest::prelude::*;

/// Deterministic value pool: every structural choice below is derived
/// from these uniform draws, so each proptest case is one table/belief
/// configuration.
struct Pool {
    vals: Vec<f64>,
    cursor: usize,
}

impl Pool {
    fn new(vals: Vec<f64>) -> Self {
        Pool { vals, cursor: 0 }
    }

    /// Next uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        let v = self.vals[self.cursor % self.vals.len()];
        self.cursor += 1;
        v
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn index(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// A randomized candidate table: 1–4 models (traditional and anytime),
/// 1–4 power settings, saturating cap responses with deliberate exact
/// latency ties (which enumeration order must break) and occasional
/// near-ties one ulp-ish apart.
fn random_table(pool: &mut Pool) -> ConfigTable {
    let n_models = 1 + pool.index(4);
    let n_powers = 1 + pool.index(4);
    let mut models = Vec::new();
    let mut t_prof = Vec::new();
    let mut p_run = Vec::new();
    // Ascending caps.
    let mut caps = Vec::new();
    let mut cap = pool.range(5.0, 20.0);
    for _ in 0..n_powers {
        caps.push(Watts(cap));
        cap += pool.range(2.0, 20.0);
    }
    for m in 0..n_models {
        let anytime = pool.chance(0.4);
        let fail = pool.range(0.0, 0.2);
        if anytime {
            let n_stages = 2 + pool.index(3);
            let mut stages = Vec::new();
            let mut frac = pool.range(0.2, 0.5);
            let mut q = fail + pool.range(0.05, 0.3);
            for s in 0..n_stages {
                let last = s == n_stages - 1;
                stages.push(StagePoint {
                    frac: if last { 1.0 } else { frac },
                    quality: q,
                });
                frac += pool.range(0.05, 0.4 / n_stages as f64);
                q += pool.range(0.01, 0.1);
            }
            models.push(CandidateModel::anytime(format!("any{m}"), stages, fail));
        } else {
            let q = fail + pool.range(0.1, 0.8);
            models.push(CandidateModel::traditional(format!("trad{m}"), q, fail));
        }
        // Latency row: decreasing in cap, but with a saturation point
        // after which extra cap buys *exactly* nothing (ties), and a
        // small chance of a near-tie one ulp-ish apart.
        let base = pool.range(0.01, 0.4);
        let saturate_from = pool.index(n_powers);
        let mut row_t = Vec::new();
        let mut row_p = Vec::new();
        let mut t = base;
        for j in 0..n_powers {
            if j > saturate_from {
                if pool.chance(0.2) {
                    t *= 1.0 - 1e-12; // near-tie
                } // else exact tie
            } else if j > 0 {
                t *= pool.range(0.5, 0.95);
            }
            row_t.push(Seconds(t));
            // Run power near the cap, sometimes saturated as well.
            let draw = caps[j]
                .get()
                .min(pool.range(0.6, 1.0) * caps[n_powers - 1].get());
            row_p.push(Watts(draw.max(1.0)));
        }
        t_prof.push(row_t);
        p_run.push(row_p);
    }
    ConfigTable::new(models, caps, t_prof, p_run).expect("generated table is valid")
}

fn random_goal(pool: &mut Pool) -> Goal {
    let deadline = Seconds(pool.range(0.005, 0.6));
    let mut goal = if pool.chance(0.5) {
        Goal::minimize_energy(deadline, pool.range(0.1, 0.98))
    } else {
        Goal::minimize_error(deadline, Joules(pool.range(1e-4, 30.0)))
    };
    if pool.chance(0.4) {
        // Include thresholds below ½: their negative Eq. 12 quantile must
        // not break identity.
        goal = goal.with_prob_threshold(pool.range(0.05, 0.999));
    }
    goal
}

fn random_belief(pool: &mut Pool) -> Normal {
    let mean = pool.range(0.2, 3.0);
    let sd = if pool.chance(0.2) {
        0.0 // degenerate zero-variance belief
    } else {
        pool.range(0.001, 0.6)
    };
    Normal::new(mean, sd)
}

/// Bit-level equality of two selections (plain `==` would call NaN
/// mismatches unequal and ±0 equal; the claim here is *bit* identity).
fn assert_bits_equal(fast: &Selection, full: &Selection, label: &str) {
    assert_eq!(fast.candidate, full.candidate, "{label}: candidate");
    assert_eq!(fast.feasible, full.feasible, "{label}: feasible");
    let pairs = [
        (fast.deadline.get(), full.deadline.get(), "deadline"),
        (
            fast.estimates.mean_latency.get(),
            full.estimates.mean_latency.get(),
            "mean_latency",
        ),
        (
            fast.estimates.pr_deadline,
            full.estimates.pr_deadline,
            "pr_deadline",
        ),
        (
            fast.estimates.expected_quality,
            full.estimates.expected_quality,
            "expected_quality",
        ),
        (
            fast.estimates.energy.get(),
            full.estimates.energy.get(),
            "energy",
        ),
        (
            fast.estimates.energy_bound.get(),
            full.estimates.energy_bound.get(),
            "energy_bound",
        ),
    ];
    for (a, b, what) in pairs {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: {what} {a} vs {b}");
    }
}

/// Runs one selection through the lane and the reference enumeration,
/// asserts them bit-identical, and reports which phase decided: `true`
/// when no target was valid and the §4 fallback walked every target.
#[allow(clippy::too_many_arguments)]
fn lane_vs_reference(
    table: &ConfigTable,
    lane: &CandidateLane,
    scratch: &mut LaneScratch,
    xi: &Normal,
    idle: f64,
    goal: &Goal,
    period: Seconds,
    mode: ProbabilityMode,
    label: &str,
) -> bool {
    let fast = lane
        .select_with_period(scratch, xi, idle, goal, period, mode)
        .expect("valid goal");
    let full = select_with_period(table, xi, idle, goal, period, mode).expect("valid goal");
    assert_bits_equal(&fast, &full, label);
    let fallback = !fast.feasible;
    if fallback {
        assert_eq!(
            scratch.scored(),
            lane.candidate_count(),
            "{label}: fallback scores all"
        );
    } else {
        assert!(
            (1..=lane.candidate_count()).contains(&scratch.scored()),
            "{label}: scored {}",
            scratch.scored()
        );
    }
    fallback
}

/// Phase counts over a batch of selections: (valid-first only,
/// fallback).
#[derive(Default)]
struct Phases {
    valid_first: usize,
    fallback: usize,
}

impl Phases {
    fn record(&mut self, fallback: bool) {
        if fallback {
            self.fallback += 1;
        } else {
            self.valid_first += 1;
        }
    }

    fn assert_both(&self, what: &str) {
        assert!(
            self.valid_first > 0 && self.fallback > 0,
            "{what}: both phases must be forced ({} valid-first, {} fallback)",
            self.valid_first,
            self.fallback
        );
    }
}

/// Two traditional models, one three-stage anytime, three caps.
fn mixed_table(fail: f64) -> ConfigTable {
    let models = vec![
        CandidateModel::traditional("small", 0.86, 0.005),
        CandidateModel::traditional("big", 0.95, fail),
        CandidateModel::anytime(
            "any",
            vec![
                StagePoint {
                    frac: 0.3,
                    quality: 0.84,
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
        ),
    ];
    let powers = vec![Watts(20.0), Watts(35.0), Watts(45.0)];
    let t_prof = vec![
        vec![Seconds(0.040), Seconds(0.025), Seconds(0.020)],
        vec![Seconds(0.200), Seconds(0.130), Seconds(0.100)],
        vec![Seconds(0.240), Seconds(0.150), Seconds(0.120)],
    ];
    let p_run = vec![
        vec![Watts(18.0), Watts(30.0), Watts(40.0)],
        vec![Watts(19.0), Watts(33.0), Watts(42.0)],
        vec![Watts(19.0), Watts(32.0), Watts(42.0)],
    ];
    ConfigTable::new(models, powers, t_prof, p_run).expect("valid table")
}

/// A goal grid that makes some decisions feasible and leaves others
/// with nothing valid: deadlines from hopeless to generous, floors from
/// easy to unreachable, budgets from empty to ample.
fn goal_grid() -> Vec<Goal> {
    let mut goals = Vec::new();
    for deadline in [0.005, 0.03, 0.11, 0.3] {
        let d = Seconds(deadline);
        for floor in [0.5, 0.9, 0.93, 0.99] {
            goals.push(Goal::minimize_energy(d, floor));
        }
        for budget in [1e-9, 0.5, 2.0, 20.0] {
            goals.push(Goal::minimize_error(d, Joules(budget)));
        }
    }
    goals
}

fn beliefs() -> [Normal; 4] {
    [
        Normal::new(1.0, 0.0),
        Normal::new(1.0, 0.03),
        Normal::new(1.4, 0.2),
        Normal::new(0.7, 0.5),
    ]
}

/// Runs `goals` × [`beliefs`] through [`lane_vs_reference`] on `table`.
fn sweep(table: &ConfigTable, goals: &[Goal], mode: ProbabilityMode, what: &str) -> Phases {
    let lane = CandidateLane::build(table);
    let mut scratch = LaneScratch::for_lane(&lane);
    let mut phases = Phases::default();
    for (g, goal) in goals.iter().enumerate() {
        for (b, xi) in beliefs().iter().enumerate() {
            let label = format!("{what} goal {g} belief {b}");
            phases.record(lane_vs_reference(
                table,
                &lane,
                &mut scratch,
                xi,
                0.25,
                goal,
                goal.deadline,
                mode,
                &label,
            ));
        }
    }
    phases
}

#[test]
fn nan_fail_quality_matches_reference_in_both_phases() {
    // A NaN fail quality makes every expected quality of its model NaN
    // (and its guard NaN), so no floor accepts it and its quality
    // ceiling proves nothing; the lane must still agree everywhere.
    let table = mixed_table(f64::NAN);
    for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
        sweep(&table, &goal_grid(), mode, &format!("NaN fail {mode:?}")).assert_both("NaN fail");
    }
}

#[test]
fn budgets_excluding_every_target_take_the_fallback() {
    let table = mixed_table(0.005);
    let lane = CandidateLane::build(&table);
    let mut scratch = LaneScratch::for_lane(&lane);
    for deadline in [0.005, 0.05, 0.3] {
        // No target's Eq. 12 bound fits a nanojoule: phase 1 rules out
        // everything without a single Φ call, and the fallback decides.
        let goal = Goal::minimize_error(Seconds(deadline), Joules(1e-9));
        for (b, xi) in beliefs().iter().enumerate() {
            for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
                let label = format!("deadline {deadline} belief {b} {mode:?}");
                let fallback = lane_vs_reference(
                    &table,
                    &lane,
                    &mut scratch,
                    xi,
                    0.25,
                    &goal,
                    goal.deadline,
                    mode,
                    &label,
                );
                assert!(fallback, "{label}: no target fits the budget");
            }
        }
    }
}

#[test]
fn prob_threshold_goals_match_reference_in_both_phases() {
    let table = mixed_table(0.005);
    let mut goals = Vec::new();
    for pr in [0.2, 0.5, 0.9, 0.999] {
        goals.extend(goal_grid().into_iter().map(|g| g.with_prob_threshold(pr)));
    }
    sweep(&table, &goals, ProbabilityMode::Full, "Pr_th").assert_both("Pr_th");
}

#[test]
fn mean_only_matches_reference_in_both_phases() {
    let table = mixed_table(0.005);
    sweep(&table, &goal_grid(), ProbabilityMode::MeanOnly, "MeanOnly").assert_both("MeanOnly");
    // The Full sweep over the same grid forces both phases too.
    sweep(&table, &goal_grid(), ProbabilityMode::Full, "Full").assert_both("Full");
}

/// `x` moved by `steps` units in the last place.
fn ulps(x: f64, steps: i64) -> f64 {
    let mut y = x;
    for _ in 0..steps.unsigned_abs() {
        y = if steps > 0 {
            y.next_up()
        } else {
            y.next_down()
        };
    }
    y
}

proptest! {
    /// The lane (SoA + probability memo + valid-first search): for
    /// arbitrary tables and decision inputs, it selects bit-identically
    /// to the reference enumeration.
    #[test]
    fn lane_is_bit_identical_to_full_enumeration(
        raw in proptest::collection::vec(0.0f64..1.0, 64..96),
        n_queries in 4usize..10,
    ) {
        let mut pool = Pool::new(raw);
        let table = random_table(&mut pool);
        let lane = CandidateLane::build(&table);
        let mut scratch = LaneScratch::for_lane(&lane);
        for q in 0..n_queries {
            let xi = random_belief(&mut pool);
            let idle = pool.range(0.0, 1.0);
            let goal = random_goal(&mut pool);
            let period = Seconds(pool.range(0.001, 1.0));
            let mode = if pool.chance(0.25) {
                ProbabilityMode::MeanOnly
            } else {
                ProbabilityMode::Full
            };
            let fast = lane
                .select_with_period(&mut scratch, &xi, idle, &goal, period, mode)
                .expect("valid goal");
            let full = select_with_period(&table, &xi, idle, &goal, period, mode)
                .expect("valid goal");
            assert_bits_equal(&fast, &full, &format!("query {q}"));
        }
    }

    /// The full controller path against the reference enumeration,
    /// across observation feedback, repeated decides, group boundaries,
    /// snapshot/restore migration, and resets. The emitted
    /// selection must always equal a fresh full enumeration at the
    /// controller's current belief and the decision's effective deadline.
    #[test]
    fn controller_decisions_replay_full_enumeration(
        raw in proptest::collection::vec(0.0f64..1.0, 96..128),
        n_steps in 20usize..40,
    ) {
        let mut pool = Pool::new(raw);
        let table = random_table(&mut pool);
        let params = AlertParams {
            overhead: OverheadPolicy::None,
            mode: if pool.chance(0.25) {
                ProbabilityMode::MeanOnly
            } else {
                ProbabilityMode::Full
            },
            ..Default::default()
        };
        let mut ctl = AlertController::new(table.clone(), params).expect("valid params");
        let goal = random_goal(&mut pool);
        let period = Seconds(pool.range(0.001, 1.0));

        for step in 0..n_steps {
            // Occasionally reshape the adjuster state.
            if pool.chance(0.15) {
                ctl.begin_group(Seconds(pool.range(0.05, 1.0)), 1 + pool.index(4));
            }
            if pool.chance(0.1) {
                // Checkpoint, migrate to a fresh controller, continue.
                let snap = ctl.snapshot();
                let mut fresh = AlertController::new(table.clone(), params).expect("valid params");
                fresh.restore(&snap);
                ctl = fresh;
            }
            if pool.chance(0.05) {
                ctl.reset();
            }

            let sel = ctl.decide_with_period(&goal, period).expect("valid goal");
            // The Selection records the effective deadline the decision
            // was judged against; replaying the reference enumeration at
            // that deadline and the controller's current belief must
            // reproduce it bit for bit.
            let reference = select_with_period(
                &table,
                &ctl.slowdown().distribution(),
                ctl.idle_ratio(),
                &goal.with_deadline(sel.deadline),
                period,
                params.mode,
            )
            .expect("valid goal");
            assert_bits_equal(&sel, &reference, &format!("step {step}"));

            // Repeat the decision without feedback (outside a group the
            // inputs are unchanged — the repeat must still match).
            if ctl.decisions() > 0 && pool.chance(0.5) {
                let again = ctl.decide_with_period(&goal, period).expect("valid goal");
                let reference2 = select_with_period(
                    &table,
                    &ctl.slowdown().distribution(),
                    ctl.idle_ratio(),
                    &goal.with_deadline(again.deadline),
                    period,
                    params.mode,
                )
                .expect("valid goal");
                assert_bits_equal(&again, &reference2, &format!("step {step} (repeat)"));
            }

            // Feed an observation so the belief moves.
            let profile = Seconds(pool.range(0.005, 0.3));
            ctl.observe(&Observation {
                latency: profile * pool.range(0.5, 2.5),
                profile_equivalent: profile,
                idle_power: pool.chance(0.7).then(|| Watts(pool.range(1.0, 10.0))),
                idle_cap: Watts(pool.range(10.0, 50.0)),
            });
        }
    }

    /// Saturated tables against a dense goal grid: every deadline ×
    /// objective cell selects what the reference enumeration selects.
    #[test]
    fn saturated_tables_survive_a_goal_grid(
        raw in proptest::collection::vec(0.0f64..1.0, 64..96),
    ) {
        let mut pool = Pool::new(raw);
        let table = random_table(&mut pool);
        let lane = CandidateLane::build(&table);
        let mut scratch = LaneScratch::for_lane(&lane);
        let xi = random_belief(&mut pool);
        let idle = pool.range(0.0, 1.0);
        for &deadline in &[0.004, 0.02, 0.08, 0.3] {
            for goal in [
                Goal::minimize_energy(Seconds(deadline), 0.5),
                Goal::minimize_energy(Seconds(deadline), 0.95),
                Goal::minimize_error(Seconds(deadline), Joules(1e-6)),
                Goal::minimize_error(Seconds(deadline), Joules(5.0)),
            ] {
                let fast = lane
                    .select_with_period(&mut scratch, &xi, idle, &goal, goal.deadline, ProbabilityMode::Full)
                    .expect("valid goal");
                let full = select_with_period(&table, &xi, idle, &goal, goal.deadline, ProbabilityMode::Full)
                    .expect("valid goal");
                assert_bits_equal(&fast, &full, &format!("deadline {deadline} {:?}", goal.objective));
            }
        }
    }
    /// Quality floors within a few ulps of a target's best reachable
    /// quality: where the valid-first phase's quality test sits on its
    /// boundary. Zero-variance beliefs with a generous deadline make
    /// expected quality land *exactly* on a stage quality, so a ceiling
    /// without its rounding slack, or a test off by one comparison,
    /// would drop the one valid target.
    #[test]
    fn floors_at_quality_ceilings_match_reference(
        raw in proptest::collection::vec(0.0f64..1.0, 64..96),
    ) {
        let mut pool = Pool::new(raw);
        let table = random_table(&mut pool);
        let lane = CandidateLane::build(&table);
        let mut scratch = LaneScratch::for_lane(&lane);
        let idle = pool.range(0.0, 1.0);
        let stochastic = random_belief(&mut pool);
        for (m, model) in table.models().iter().enumerate() {
            let guard = QUALITY_GUARD_FRACTION * (model.final_quality() - model.fail_quality);
            for k in 0..model.stages.len() {
                let q_cap = model.stages[..=k]
                    .iter()
                    .map(|s| s.quality)
                    .fold(model.fail_quality, f64::max);
                for step in -3..=3 {
                    let floor = ulps(q_cap - guard, step);
                    for deadline in [1e3, 0.05] {
                        let goal = Goal::minimize_energy(Seconds(deadline), floor);
                        for xi in [Normal::new(1.0, 0.0), stochastic] {
                            for mode in [ProbabilityMode::Full, ProbabilityMode::MeanOnly] {
                                lane_vs_reference(
                                    &table,
                                    &lane,
                                    &mut scratch,
                                    &xi,
                                    idle,
                                    &goal,
                                    goal.deadline,
                                    mode,
                                    &format!("model {m} stage {k} step {step} deadline {deadline} {mode:?}"),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
