//! ALERT wired to the simulator: table construction and the
//! [`Scheduler`] adapter, including the paper's variants.
//!
//! * **ALERT** — the standard candidate set (traditional + anytime).
//! * **ALERT-Any** — anytime network only (the fair-comparison variant
//!   against App-only/Sys-only/No-coord, which share that candidate set).
//! * **ALERT-Trad** — traditional models only.
//! * **ALERT\*** — the mean-only ablation of §5.3 (Fig. 10).

use crate::scheduler::{Decision, Feedback, InputContext, Scheduler};
use alert_core::alert::{AlertController, AlertParams, Observation};
use alert_core::config::{CandidateModel, ConfigTable, StagePoint};
use alert_models::family::CandidateSet;
use alert_models::inference::{self, StopPolicy};
use alert_models::ModelFamily;
use alert_platform::{split_budget, Backend, Platform};
use alert_stats::units::{Seconds, Watts};

/// Builds the controller's candidate table from a family on a platform.
///
/// Models that do not fit the platform's memory are excluded (the
/// embedded board cannot host the big CNNs — paper Fig. 4 footnote).
///
/// # Errors
///
/// Returns a description of the problem when no model of the family fits
/// the platform, or when the profiled table fails validation — both are
/// configuration conditions (family × platform come from user specs).
pub fn build_table(
    family: &ModelFamily,
    platform: &Platform,
) -> Result<(ConfigTable, Vec<usize>), String> {
    build_table_budgeted(family, platform, None)
}

/// The platform's power settings restricted to a shared-budget share;
/// without a share, the full setting table.
fn budgeted_settings(platform: &Platform, share: Option<Watts>) -> Vec<Watts> {
    let all = platform.power_settings();
    match share {
        None => all,
        Some(s) => {
            let kept: Vec<Watts> = all.iter().copied().filter(|p| *p <= s).collect();
            if kept.is_empty() {
                // split_budget floors each share at the backend's own
                // minimum power, so the lowest setting always qualifies;
                // keep it as a defensive floor regardless.
                all.into_iter().take(1).collect()
            } else {
                kept
            }
        }
    }
}

fn build_table_budgeted(
    family: &ModelFamily,
    platform: &Platform,
    share: Option<Watts>,
) -> Result<(ConfigTable, Vec<usize>), String> {
    let powers = budgeted_settings(platform, share);
    let mut models = Vec::new();
    let mut index_map = Vec::new();
    let mut t_prof = Vec::new();
    let mut p_run = Vec::new();
    for (i, m) in family.models().iter().enumerate() {
        if !platform.supports_footprint(m.footprint_gb) {
            continue;
        }
        let candidate = match &m.anytime {
            None => CandidateModel::traditional(m.name.clone(), m.quality, m.fail_quality),
            Some(spec) => CandidateModel::anytime(
                m.name.clone(),
                spec.stages()
                    .iter()
                    .map(|s| StagePoint {
                        frac: s.frac,
                        quality: s.quality,
                    })
                    .collect(),
                m.fail_quality,
            ),
        };
        models.push(candidate);
        index_map.push(i);
        t_prof.push(
            powers
                .iter()
                // lint:allow(no-panic): powers come from the platform's own setting table, so every cap is feasible
                .map(|&p| inference::profile_latency(m, platform, p).expect("feasible cap"))
                .collect(),
        );
        p_run.push(
            powers
                .iter()
                .map(|&p| inference::run_power(m, platform, p))
                .collect(),
        );
    }
    if models.is_empty() {
        return Err(format!(
            "no model of family {} fits platform {}",
            family.name(),
            platform.id()
        ));
    }
    Ok((ConfigTable::new(models, powers, t_prof, p_run)?, index_map))
}

/// Builds a heterogeneous candidate table: `platforms[0]` is device 0
/// (profiled exactly as [`build_table`] profiles it), each further
/// platform joins as an extra device with its own power settings and
/// per-device `t_prof`/`p_run` grids. With a `shared_budget`, the node's
/// power envelope is split across the backends by [`split_budget`]
/// (proportional to each backend's maximum draw, floored at its
/// minimum), and each device only offers the settings inside its share.
///
/// # Errors
///
/// Returns a description of the problem when no model fits the primary
/// platform, when a model of the table does not fit one of the extra
/// devices (restrict the family first — every candidate row must be
/// placeable on every device), or when a profiled grid fails validation.
pub fn build_table_multi(
    family: &ModelFamily,
    platforms: &[&Platform],
    shared_budget: Option<Watts>,
) -> Result<(ConfigTable, Vec<usize>), String> {
    let (primary, extras) = platforms
        .split_first()
        .ok_or_else(|| "heterogeneous table needs at least one platform".to_string())?;
    let shares = shared_budget.map(|total| {
        let backends: Vec<&dyn Backend> = platforms.iter().map(|p| *p as &dyn Backend).collect();
        split_budget(total, &backends)
    });
    let share_of = |d: usize| shares.as_ref().map(|s| s[d]);
    let (mut table, index_map) = build_table_budgeted(family, primary, share_of(0))?;
    for (k, platform) in extras.iter().enumerate() {
        for &fi in &index_map {
            let m = &family.models()[fi];
            if !platform.supports_footprint(m.footprint_gb) {
                return Err(format!(
                    "model {} does not fit platform {}; restrict the family \
                     before building a heterogeneous table",
                    m.name,
                    platform.id()
                ));
            }
        }
        let powers = budgeted_settings(platform, share_of(k + 1));
        let mut t_prof = Vec::new();
        let mut p_run = Vec::new();
        for &fi in &index_map {
            let m = &family.models()[fi];
            t_prof.push(
                powers
                    .iter()
                    // lint:allow(no-panic): powers come from the platform's own setting table, so every cap is feasible
                    .map(|&p| inference::profile_latency(m, platform, p).expect("feasible cap"))
                    .collect(),
            );
            p_run.push(
                powers
                    .iter()
                    .map(|&p| inference::run_power(m, platform, p))
                    .collect(),
            );
        }
        table.add_device(platform.id().to_string(), powers, t_prof, p_run)?;
    }
    Ok((table, index_map))
}

/// ALERT as a [`Scheduler`].
pub struct AlertScheduler {
    name: String,
    controller: AlertController,
    /// Maps table model indices back to family indices.
    index_map: Vec<usize>,
    /// Whether each table model is anytime (cached).
    is_anytime: Vec<bool>,
    base_goal: alert_core::Goal,
}

impl AlertScheduler {
    /// Creates an ALERT scheduler over a candidate subset.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the goal fails
    /// validation, no model of the restricted family fits the platform,
    /// or the controller parameters are invalid — all user-configuration
    /// conditions.
    pub fn new(
        name: impl Into<String>,
        family: &ModelFamily,
        set: CandidateSet,
        platform: &Platform,
        goal: alert_core::Goal,
        params: AlertParams,
    ) -> Result<Self, String> {
        Self::new_hetero(name, family, set, &[platform], None, goal, params)
    }

    /// Creates an ALERT scheduler whose candidate space spans several
    /// backends: each candidate is a (device, model variant, DVFS level)
    /// triple and the controller places every input jointly with its
    /// model and cap choice. `shared_budget` splits one node-level power
    /// envelope across the backends (see [`build_table_multi`]).
    ///
    /// With a single platform and no budget this is exactly
    /// [`AlertScheduler::new`].
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`] and [`build_table_multi`].
    pub fn new_hetero(
        name: impl Into<String>,
        family: &ModelFamily,
        set: CandidateSet,
        platforms: &[&Platform],
        shared_budget: Option<Watts>,
        goal: alert_core::Goal,
        params: AlertParams,
    ) -> Result<Self, String> {
        goal.validate().map_err(|e| format!("invalid goal: {e}"))?;
        let restricted = family.restrict(set);
        let (table, index_map) = build_table_multi(&restricted, platforms, shared_budget)?;
        let is_anytime = table.models().iter().map(|m| m.is_anytime()).collect();
        // Map restricted indices back to the *original* family indices.
        let family_map: Vec<usize> = index_map
            .iter()
            .map(|&ri| {
                let name = &restricted.models()[ri].name;
                family
                    .models()
                    .iter()
                    .position(|m| &m.name == name)
                    // lint:allow(no-panic): the restricted family is filtered out of this same family, so every member resolves
                    .expect("restricted model exists in family")
            })
            .collect();
        Ok(AlertScheduler {
            name: name.into(),
            controller: AlertController::new(table, params)?,
            index_map: family_map,
            is_anytime,
            base_goal: goal,
        })
    }

    /// The standard ALERT configuration (traditional + anytime).
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`].
    pub fn standard(
        family: &ModelFamily,
        platform: &Platform,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new(
            "ALERT",
            family,
            CandidateSet::Standard,
            platform,
            goal,
            AlertParams::default(),
        )
    }

    /// Standard ALERT across several backends under one shared power
    /// envelope.
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new_hetero`].
    pub fn standard_hetero(
        family: &ModelFamily,
        platforms: &[&Platform],
        shared_budget: Option<Watts>,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new_hetero(
            "ALERT",
            family,
            CandidateSet::Standard,
            platforms,
            shared_budget,
            goal,
            AlertParams::default(),
        )
    }

    /// ALERT-Any: anytime candidates only.
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`].
    pub fn anytime_only(
        family: &ModelFamily,
        platform: &Platform,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new(
            "ALERT-Any",
            family,
            CandidateSet::AnytimeOnly,
            platform,
            goal,
            AlertParams::default(),
        )
    }

    /// ALERT-Trad: traditional candidates only.
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`].
    pub fn traditional_only(
        family: &ModelFamily,
        platform: &Platform,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new(
            "ALERT-Trad",
            family,
            CandidateSet::TraditionalOnly,
            platform,
            goal,
            AlertParams::default(),
        )
    }

    /// ALERT\*: the mean-only ablation (§5.3).
    ///
    /// # Errors
    ///
    /// See [`AlertScheduler::new`].
    pub fn mean_only(
        family: &ModelFamily,
        platform: &Platform,
        goal: alert_core::Goal,
    ) -> Result<Self, String> {
        Self::new(
            "ALERT*",
            family,
            CandidateSet::Standard,
            platform,
            goal,
            AlertParams::mean_only(),
        )
    }

    /// Read access to the controller (diagnostics: ξ, φ, overhead).
    pub fn controller(&self) -> &AlertController {
        &self.controller
    }
}

impl Scheduler for AlertScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn sync_goal(&mut self, goal: &alert_core::Goal) {
        // Scripted goal changes (§5): the controller retargets the new
        // requirement on the next decision. Same-valued syncs are free.
        self.base_goal = *goal;
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let goal = self.base_goal.with_deadline(ctx.deadline);
        // `base_goal` was validated in `AlertScheduler::new` and the
        // harness guarantees positive effective deadlines, so the goal
        // handed to the controller is valid by construction.
        let sel = self
            .controller
            .decide_with_period(&goal, ctx.period)
            // lint:allow(no-panic): see comment above — base_goal is validated in new() and deadlines are positive
            .expect("goal validated at construction");
        let c = sel.candidate;
        let cap = self.controller.table().cap_on(c.device, c.power);
        let stop = if self.is_anytime[c.model] {
            // Run toward the chosen stage but never past the (overhead-
            // compensated) deadline — the §3.5 execution mode.
            StopPolicy::AtTimeOrStage(sel.deadline, c.stage)
        } else {
            StopPolicy::RunToCompletion
        };
        Decision {
            device: c.device,
            model: self.index_map[c.model],
            cap,
            stop,
        }
    }

    fn observe(&mut self, fb: &Feedback) {
        self.controller.observe(&Observation {
            latency: fb.result.latency,
            profile_equivalent: fb.result.profile_equivalent,
            idle_power: fb.idle_power,
            idle_cap: fb.decision.cap,
        });
    }

    fn last_decision_cost(&self) -> Seconds {
        self.controller.last_decision_cost()
    }

    fn controller_snapshot(&self) -> Option<alert_core::ControllerSnapshot> {
        Some(self.controller.snapshot())
    }

    fn restore_controller(&mut self, snapshot: &alert_core::ControllerSnapshot) {
        self.controller.restore(snapshot);
    }

    fn decision_trace(&self) -> Option<alert_core::DecisionTrace> {
        self.controller.last_trace()
    }

    fn belief(&self) -> Option<(f64, f64)> {
        let xi = self.controller.slowdown();
        Some((xi.mean(), xi.std_dev()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::{Joules, Watts};

    #[test]
    fn table_covers_family_times_powers() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let (table, map) = build_table(&family, &platform).unwrap();
        assert_eq!(table.models().len(), 6);
        assert_eq!(map.len(), 6);
        assert_eq!(table.powers().len(), 15);
        // Anytime model contributes 4 stages: 5×1 + 4 = 9 stage rows.
        assert_eq!(table.candidate_count(), 9 * 15);
    }

    #[test]
    fn embedded_filters_oversized_models() {
        let family = ModelFamily::sentence_prediction();
        let platform = Platform::embedded();
        let (table, _) = build_table(&family, &platform).unwrap();
        // Only models ≤ 0.4 GB fit: rnn_w128..w1024 (0.35) and the
        // width-nest (0.38): all six fit.
        assert_eq!(table.models().len(), 6);
        let family = ModelFamily::image_classification();
        // No image model fits 0.4 GB except sparse_resnet_8 (0.15),
        // sparse_resnet_14 (0.22) and sparse_resnet_26 (0.34).
        let (table, _) = build_table(&family, &platform).unwrap();
        assert_eq!(table.models().len(), 3);
    }

    #[test]
    fn alert_scheduler_runs_and_learns() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = alert_core::Goal::minimize_error(Seconds(0.5), Joules(25.0));
        let mut s = AlertScheduler::standard(&family, &platform, goal).unwrap();
        let ctx = InputContext {
            index: 0,
            deadline: Seconds(0.5),
            period: Seconds(0.5),
            group: None,
        };
        let d = s.decide(&ctx);
        assert!(d.model < family.len());
        assert!(platform.power_settings().contains(&d.cap));
        // Feed a slow observation; the slowdown estimate must move.
        let m = &family.models()[d.model];
        let result =
            alert_models::inference::execute(m, &platform, d.cap, 1.7, StopPolicy::RunToCompletion)
                .unwrap();
        let quality = result.quality_by(ctx.deadline, m.fail_quality);
        s.observe(&Feedback {
            index: 0,
            decision: d,
            result,
            quality,
            energy: Joules(1.0),
            idle_power: Some(Watts(5.0)),
            deadline: ctx.deadline,
        });
        assert!(s.controller().slowdown().mean() > 1.3);
    }

    #[test]
    fn variant_names() {
        let family = ModelFamily::image_classification();
        let platform = Platform::cpu1();
        let goal = alert_core::Goal::minimize_energy(Seconds(0.5), 0.9);
        assert_eq!(
            AlertScheduler::standard(&family, &platform, goal)
                .unwrap()
                .name(),
            "ALERT"
        );
        assert_eq!(
            AlertScheduler::anytime_only(&family, &platform, goal)
                .unwrap()
                .name(),
            "ALERT-Any"
        );
        assert_eq!(
            AlertScheduler::traditional_only(&family, &platform, goal)
                .unwrap()
                .name(),
            "ALERT-Trad"
        );
        assert_eq!(
            AlertScheduler::mean_only(&family, &platform, goal)
                .unwrap()
                .name(),
            "ALERT*"
        );
    }
}
