//! The ALERT controller — the paper's primary contribution.
//!
//! ALERT (Wan et al., USENIX ATC 2020) is a feedback scheduler that, for
//! every inference input, jointly picks a DNN (possibly an anytime stage)
//! and a power cap so that two of {latency, accuracy, energy} are met as
//! constraints while the third is optimized. Its pipeline per input
//! (paper §3.2):
//!
//! 1. **Measure** the previous input's latency, idle power, quality.
//! 2. **Adjust goals** — shared (sentence) deadlines shrink as earlier
//!    members consume budget; the controller's own worst-case overhead is
//!    subtracted so ALERT never causes a violation itself.
//! 3. **Estimate** — a single *global slowdown factor* ξ, tracked by an
//!    adaptive Kalman filter (Eq. 5), rescales every profiled latency;
//!    its variance feeds the probability each configuration meets the
//!    deadline (Eq. 6), the expected accuracy under the deadline
//!    (Eqs. 7/13), and the energy model (Eqs. 9/12) together with the
//!    idle-power ratio φ (Eq. 8).
//! 4. **Pick** the feasible configuration optimizing the objective
//!    (Eqs. 1/2, optionally 10/11 with a probability threshold), falling
//!    back along the latency > accuracy > power hierarchy when nothing is
//!    feasible (§4).
//!
//! Modules: [`config`] (candidate tables), [`goal`] (objectives and
//! adjustment), [`slowdown`] (ξ, Eq. 5), [`idle`] (φ, Eq. 8), [`latency`]
//! (Eq. 6), [`quality`] (Eqs. 7/13), [`energy`] (Eqs. 9/12), [`select`]
//! (Eqs. 1/2/10/11, the reference enumeration), [`lane`] (the
//! selection-identical fast lane: SoA precomputation and a per-decision
//! stage-probability memo), and [`alert`] (the feedback loop).

pub mod alert;
pub mod config;
pub mod energy;
pub mod idle;
pub mod lane;
pub mod latency;
pub mod quality;
pub mod select;
pub mod slowdown;

/// Goal vocabulary ([`Goal`], [`Objective`], [`GoalAdjuster`]) lives in
/// `alert-workload` — goals are workload statements, not controller
/// state — and is re-exported here so controller code keeps its
/// `crate::goal::…` paths.
pub use alert_workload::goal;

pub use alert::{
    AlertController, AlertParams, ControllerSnapshot, DecisionTrace, Observation, ProbabilityMode,
};
pub use config::{Candidate, CandidateModel, ConfigTable, StagePoint};
pub use goal::{Goal, GoalAdjuster, Objective};
pub use lane::{CandidateLane, LaneScratch};
pub use select::{Estimates, Selection};
pub use slowdown::SlowdownEstimator;
