//! The three workloads: their inputs, generated from the seed alone, and
//! one measured pass over them.
//!
//! A pass is a fixed amount of work: the same seed gives the same
//! sessions, storm and records on every pass, so the simulated outcome
//! of every pass must be bit-identical to the first one's. Host timings
//! are what varies between passes.

use crate::stats::Fingerprint;
use crate::trace;
use alert_sched::prelude::*;
use alert_sched::{EpisodeEvent, PolicyRegistry};
use alert_stats::rng::derive_seed;
use alert_stats::units::Seconds;
use alert_workload::EpisodeSummary;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Concurrent long-lived sessions in `steady-scenarios`.
pub const STEADY_SESSIONS: usize = 24;
/// Inputs in each of those sessions' streams.
pub const STEADY_INPUTS: usize = 2500;
/// Sessions opened, run and closed per `session-churn` pass.
pub const CHURN_SESSIONS: usize = 1200;
/// Inputs per churn session: the serving request size.
pub const CHURN_INPUTS: usize = 6;
/// Shards of the serving runtime.
pub const SERVING_SHARDS: usize = 2;
/// Requests in one `serving-overload` storm.
pub const SERVING_REQUESTS: usize = 6000;
/// Offered load as a multiple of the calibrated saturation point.
pub const SERVING_LOAD: f64 = 2.0;
/// Inputs of the unloaded episode that calibrates the saturation point.
const CALIBRATION_INPUTS: usize = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SteadyScenarios,
    SessionChurn,
    ServingOverload,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SteadyScenarios,
        Workload::SessionChurn,
        Workload::ServingOverload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyScenarios => "steady-scenarios",
            Workload::SessionChurn => "session-churn",
            Workload::ServingOverload => "serving-overload",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one caller operation is: the unit of `op_us_*`.
    pub fn op(self) -> &'static str {
        match self {
            Workload::SteadyScenarios => "one Runtime::submit",
            Workload::SessionChurn => "one session: open, run to completion, close",
            Workload::ServingOverload => {
                "one admitted storm request, from its admission call to the next request's"
            }
        }
    }
}

/// `count` ALERT session specs rotating through the scenario library,
/// each with its own seed and a deadline in [0.35, 0.40) s.
pub fn session_specs(seed: u64, count: usize, n_inputs: usize) -> Vec<SessionSpec> {
    let library = Scenario::library(seed);
    let rotation = (seed % library.len() as u64) as usize;
    (0..count)
        .map(|i| {
            let u =
                (derive_seed(seed, &format!("deadline-{i}")) >> 11) as f64 / (1u64 << 53) as f64;
            SessionSpec {
                goal: Goal::minimize_energy(Seconds(0.35 + 0.05 * u), 0.9),
                scenario: library[(i + rotation) % library.len()].clone(),
                n_inputs,
                seed: Some(derive_seed(seed, &format!("session-{i}"))),
                policy: None,
            }
        })
        .collect()
}

pub fn steady_specs(seed: u64) -> Vec<SessionSpec> {
    session_specs(seed, STEADY_SESSIONS, STEADY_INPUTS)
}

pub fn churn_specs(seed: u64) -> Vec<SessionSpec> {
    session_specs(seed, CHURN_SESSIONS, CHURN_INPUTS)
}

/// The per-request serving goal, as the serving saturation bench uses.
pub fn serving_goal() -> Goal {
    Goal::minimize_energy(Seconds(0.4), 0.9)
}

/// Mean per-input latency of one unloaded episode under the serving
/// goal: the anchor of the saturation point.
fn calibrate_mean_latency(seed: u64) -> Result<f64, Error> {
    let mut rt = Runtime::builder().seed(seed).build()?;
    let id = rt
        .session(SessionSpec {
            goal: serving_goal(),
            scenario: Scenario::default_env(),
            n_inputs: CALIBRATION_INPUTS,
            seed: Some(seed),
            policy: None,
        })
        .open()?;
    rt.run_to_completion(id)?;
    let episode = rt.close(id)?;
    let n = episode.records.len().max(1);
    Ok(episode.records.iter().map(|r| r.latency.get()).sum::<f64>() / n as f64)
}

/// The frozen Poisson storm at [`SERVING_LOAD`]× the saturating gap.
pub fn serving_storm(seed: u64) -> Result<Vec<RequestArrival>, Error> {
    let mean_latency = calibrate_mean_latency(seed)?;
    let inputs = ServingConfig::new(serving_goal()).inputs_per_request;
    let saturating_gap = inputs as f64 * mean_latency / SERVING_SHARDS as f64;
    let spec = StormSpec {
        arrival: ArrivalProcess::Poisson { rate_scale: 1.0 },
        n_requests: SERVING_REQUESTS,
        mean_gap: Seconds(saturating_gap / SERVING_LOAD),
        seed,
    };
    generate_storm(&spec, None).map_err(Error::InvalidSpec)
}

/// How a pass is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed, tracing off.
    Timed,
    /// Tracing on: decorated registry and admission policy, spans
    /// around every caller operation.
    Traced,
    /// Serving only: untimed, with a summary sink to read the decision
    /// overhead and energy that `serve` does not report.
    Metered,
}

fn builder(seed: u64, mode: Mode) -> RuntimeBuilder {
    let b = Runtime::builder().seed(seed);
    if mode == Mode::Traced {
        b.registry(trace::traced_registry())
    } else {
        b.registry(PolicyRegistry::builtin())
    }
}

/// The simulated outcome of a pass: deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sim {
    pub fingerprint: u64,
    pub sessions: u64,
    pub floor_met: u64,
    pub measured: u64,
    pub timely: u64,
    pub energy_j: f64,
    /// Serving only: `ServingReport::goodput`.
    pub goodput: Option<f64>,
    /// Serving only: requests offered, and shed or degraded at admission.
    pub requests: u64,
    pub shed: u64,
    pub degraded: u64,
}

impl Sim {
    pub fn energy_j_per_input(&self) -> f64 {
        self.energy_j / self.measured as f64
    }

    pub fn goodput(&self) -> f64 {
        self.goodput
            .unwrap_or(self.timely as f64 / self.measured as f64)
    }

    pub fn deadline_miss_rate(&self) -> f64 {
        1.0 - self.timely as f64 / self.measured as f64
    }

    pub fn floor_met_share(&self) -> f64 {
        self.floor_met as f64 / self.sessions as f64
    }

    fn add_summary(&mut self, s: &EpisodeSummary) {
        self.measured += s.measured as u64;
        self.energy_j += s.avg_energy.get() * s.measured as f64;
    }
}

/// Folds closed sessions into a [`Sim`], checking each ran its stream.
fn fold_episodes(episodes: &[(usize, Episode)], specs: &[SessionSpec]) -> Result<Sim, String> {
    let mut sim = Sim::default();
    let mut fp = Fingerprint::default();
    for (i, ep) in episodes {
        if ep.records.len() != specs[*i].n_inputs {
            return Err(format!(
                "session {i} finished {} of {} inputs",
                ep.records.len(),
                specs[*i].n_inputs
            ));
        }
        sim.sessions += 1;
        sim.floor_met += u64::from(ep.summary.quality_floor_met);
        for r in &ep.records {
            fp.record(r);
            if !r.warmup {
                sim.measured += 1;
                sim.timely += u64::from(r.latency.get() <= r.deadline.get() * (1.0 + 1e-9));
                sim.energy_j += r.energy.get();
            }
        }
    }
    sim.fingerprint = fp.0;
    Ok(sim)
}

/// One pass's measurements.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub measure_s: f64,
    /// Inputs executed in the measured phase.
    pub inputs: u64,
    /// Caller operations in the measured phase ([`Workload::op`]).
    pub ops: u64,
    /// Host µs per caller operation.
    pub op_us: Vec<f64>,
    /// Host µs per `session(spec).open()` (session-churn only).
    pub open_us: Vec<f64>,
    /// Host µs per shed storm request (serving-overload only; `op_us`
    /// holds the served ones).
    pub shed_us: Vec<f64>,
    /// Total metered decision CPU time, when the pass can read it.
    pub decision_cpu_s: Option<f64>,
    /// Runtime calls made: open, submit, close and serve.
    pub attempted: u64,
    pub sim: Sim,
}

/// A failed pass: the calls attempted before the failure and what failed.
#[derive(Debug)]
pub struct Failure {
    pub attempted: u64,
    pub failed: u64,
    pub reason: String,
}

/// Counts runtime calls (open, submit, close, serve) and turns the first
/// error into a [`Failure`].
#[derive(Debug, Default)]
struct Calls {
    attempted: u64,
}

impl Calls {
    fn check<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Result<T, Failure> {
        self.attempted += 1;
        r.map_err(|e| Failure {
            attempted: self.attempted,
            failed: 1,
            reason: e.to_string(),
        })
    }

    /// A failed output check (no call failed).
    fn wrong(&self, reason: String) -> Failure {
        Failure {
            attempted: self.attempted,
            failed: 0,
            reason,
        }
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs one pass of `workload` with `seed`.
pub fn run_pass(workload: Workload, seed: u64, mode: Mode) -> Result<Pass, Failure> {
    let mut calls = Calls::default();
    let mut pass = match workload {
        Workload::SteadyScenarios => steady_pass(seed, mode, &mut calls),
        Workload::SessionChurn => churn_pass(seed, mode, &mut calls),
        Workload::ServingOverload => serving_pass(seed, mode, &mut calls),
    }?;
    pass.attempted = calls.attempted;
    Ok(pass)
}

fn steady_pass(seed: u64, mode: Mode, calls: &mut Calls) -> Result<Pass, Failure> {
    let t0 = Instant::now();
    let specs = steady_specs(seed);
    let mut rt = calls.check(builder(seed, mode).build())?;
    let mut live = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        trace::set_current(i as u64);
        let opened = trace::span("runtime.open", i as u64, || rt.session(spec.clone()).open());
        live.push((i, calls.check(opened)?));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut op_us = Vec::with_capacity(specs.len() * STEADY_INPUTS);
    let mut done = Vec::with_capacity(specs.len());
    while !live.is_empty() {
        let mut next = Vec::with_capacity(live.len());
        for (i, id) in live {
            let t = Instant::now();
            let record = trace::span("runtime.submit", i as u64, || rt.submit(id));
            let dt = us_since(t);
            if calls.check(record)?.is_some() {
                op_us.push(dt);
                next.push((i, id));
            } else {
                done.push((i, id));
            }
        }
        live = next;
    }
    done.sort_unstable();
    let mut episodes = Vec::with_capacity(done.len());
    for (i, id) in done {
        let closed = trace::span("runtime.close", i as u64, || rt.close(id));
        episodes.push((i, calls.check(closed)?));
    }
    let measure_s = t1.elapsed().as_secs_f64();

    let sim = fold_episodes(&episodes, &specs).map_err(|e| calls.wrong(e))?;
    let decision_cpu_s = episodes.iter().map(|(_, e)| e.summary.overhead.get()).sum();
    Ok(Pass {
        setup_s,
        measure_s,
        inputs: op_us.len() as u64,
        ops: op_us.len() as u64,
        op_us,
        decision_cpu_s: Some(decision_cpu_s),
        sim,
        ..Pass::default()
    })
}

fn churn_pass(seed: u64, mode: Mode, calls: &mut Calls) -> Result<Pass, Failure> {
    let t0 = Instant::now();
    let specs = churn_specs(seed);
    let mut rt = calls.check(builder(seed, mode).build())?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut op_us = Vec::with_capacity(specs.len());
    let mut open_us = Vec::with_capacity(specs.len());
    let mut episodes = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let id = i as u64;
        trace::set_current(id);
        let t = Instant::now();
        let opened = trace::span("runtime.open", id, || rt.session(spec.clone()).open());
        let sid = calls.check(opened)?;
        open_us.push(us_since(t));
        let ran = trace::span("runtime.run", id, || rt.run_to_completion(sid));
        calls.check(ran)?;
        let closed = trace::span("runtime.close", id, || rt.close(sid));
        episodes.push((i, calls.check(closed)?));
        op_us.push(us_since(t));
    }
    let measure_s = t1.elapsed().as_secs_f64();

    let sim = fold_episodes(&episodes, &specs).map_err(|e| calls.wrong(e))?;
    let decision_cpu_s = episodes.iter().map(|(_, e)| e.summary.overhead.get()).sum();
    Ok(Pass {
        setup_s,
        measure_s,
        inputs: episodes.iter().map(|(_, e)| e.records.len() as u64).sum(),
        ops: specs.len() as u64,
        op_us,
        open_us,
        decision_cpu_s: Some(decision_cpu_s),
        sim,
        ..Pass::default()
    })
}

/// Stamps the host clock at every admission call, so each storm
/// request's host time is the gap to the next request's stamp.
struct OpClock<'a> {
    inner: &'a mut dyn AdmissionPolicy,
    stamps: Vec<Instant>,
}

impl AdmissionPolicy for OpClock<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn assess(&mut self, ctx: &RequestContext) -> AdmissionDecision {
        self.stamps.push(Instant::now());
        self.inner.assess(ctx)
    }

    fn observe(&mut self, record: &alert_workload::InputRecord) {
        self.inner.observe(record);
    }

    fn last_probe(&self) -> Option<alert_sched::AdmissionProbe> {
        self.inner.last_probe()
    }
}

fn serving_pass(seed: u64, mode: Mode, calls: &mut Calls) -> Result<Pass, Failure> {
    let t0 = Instant::now();
    let mut b = builder(seed, mode);
    let summaries: Arc<Mutex<Vec<EpisodeSummary>>> = Arc::default();
    if mode == Mode::Metered {
        let sink = Arc::clone(&summaries);
        b = b.sink(move |event: &EpisodeEvent| {
            if let EpisodeEvent::SessionClosed { summary, .. } = event {
                sink.lock()
                    .expect("the sink is the only writer and never panics")
                    .push(summary.clone());
            }
        });
    }
    let mut rt = calls.check(b.build_sharded(SERVING_SHARDS))?;
    let storm = serving_storm(seed).map_err(|e| calls.wrong(e.to_string()))?;
    let config = ServingConfig::new(serving_goal());
    let mut admission = admission_policy("ALERT", &rt).map_err(|e| calls.wrong(e.to_string()))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut gaps_us = Vec::new();
    let report = match mode {
        Mode::Timed => {
            let mut clock = OpClock {
                inner: admission.as_mut(),
                stamps: Vec::with_capacity(storm.len()),
            };
            let report = serve(&mut rt, &config, &storm, &mut clock);
            let end = Instant::now();
            clock.stamps.push(end);
            gaps_us = clock
                .stamps
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
                .collect();
            report
        }
        Mode::Traced => {
            let mut traced = trace::TracedAdmission {
                inner: admission.as_mut(),
            };
            trace::span("serve", 0, || serve(&mut rt, &config, &storm, &mut traced))
        }
        Mode::Metered => serve(&mut rt, &config, &storm, admission.as_mut()),
    };
    let report = calls.check(report)?;
    let measure_s = t1.elapsed().as_secs_f64();

    let mut sim = Sim {
        fingerprint: report.fingerprint(),
        goodput: Some(report.goodput()),
        requests: report.offered() as u64,
        shed: report.shed() as u64,
        degraded: report.degraded() as u64,
        ..Sim::default()
    };
    for o in &report.outcomes {
        let want = if o.verdict == AdmissionVerdict::Shed {
            0
        } else {
            config.inputs_per_request
        };
        if o.served_inputs != want {
            return Err(calls.wrong(format!(
                "request {} served {} of {want} inputs",
                o.index, o.served_inputs
            )));
        }
    }
    let inputs: u64 = report.outcomes.iter().map(|o| o.served_inputs as u64).sum();
    let (mut op_us, mut shed_us) = (Vec::new(), Vec::new());
    for (o, gap) in report.outcomes.iter().zip(gaps_us) {
        if o.verdict == AdmissionVerdict::Shed {
            shed_us.push(gap);
        } else {
            op_us.push(gap);
        }
    }
    for o in report
        .outcomes
        .iter()
        .filter(|o| o.verdict != AdmissionVerdict::Shed)
    {
        sim.sessions += 1;
        sim.floor_met += u64::from(o.quality_ok);
    }
    let mut decision_cpu_s = None;
    if mode == Mode::Metered {
        let summaries = summaries
            .lock()
            .expect("the sink is the only writer and never panics");
        for s in summaries.iter() {
            sim.add_summary(s);
        }
        decision_cpu_s = Some(summaries.iter().map(|s| s.overhead.get()).sum());
    }
    Ok(Pass {
        setup_s,
        measure_s,
        inputs,
        ops: storm.len() as u64,
        op_us,
        shed_us,
        decision_cpu_s,
        sim,
        ..Pass::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_specs_are_a_function_of_the_seed() {
        assert_eq!(session_specs(5, 30, 8), session_specs(5, 30, 8));
        assert_ne!(session_specs(5, 30, 8), session_specs(6, 30, 8));
        let specs = session_specs(5, 30, 8);
        for s in &specs {
            let d = s.goal.deadline.get();
            assert!((0.35..0.40).contains(&d), "deadline {d}");
        }
        // Every library scenario is used.
        let names: std::collections::BTreeSet<&str> =
            specs.iter().map(|s| s.scenario.name()).collect();
        assert_eq!(names.len(), Scenario::library(5).len());
    }

    #[test]
    fn serving_storm_is_a_function_of_the_seed() {
        let a = serving_storm(9).expect("storm");
        assert_eq!(a, serving_storm(9).expect("storm"));
        assert_ne!(a, serving_storm(10).expect("storm"));
        assert_eq!(a.len(), SERVING_REQUESTS);
    }

    fn run_small(registry: PolicyRegistry, specs: &[SessionSpec]) -> Vec<Episode> {
        let mut rt = Runtime::builder()
            .seed(3)
            .registry(registry)
            .build()
            .expect("runtime");
        specs
            .iter()
            .map(|spec| {
                let id = rt.session(spec.clone()).open().expect("open");
                rt.run_to_completion(id).expect("run");
                rt.close(id).expect("close")
            })
            .collect()
    }

    #[test]
    fn decorated_alert_sessions_equal_undecorated_ones() {
        let specs = session_specs(3, 12, 40);
        let plain = run_small(PolicyRegistry::builtin(), &specs);
        trace::start();
        let traced = run_small(trace::traced_registry(), &specs);
        let rec = trace::stop();
        for (p, t) in plain.iter().zip(&traced) {
            assert_eq!(p.scheme, t.scheme);
            assert_eq!(p.records, t.records);
        }
        assert_eq!(rec.builds.len(), specs.len());
        let decides = rec
            .spans
            .iter()
            .filter(|s| s.name == "controller.decide")
            .count();
        assert_eq!(decides, 12 * 40);
        assert_eq!(rec.counts["controller.decisions"], 12 * 40);
    }

    #[test]
    fn traced_serving_matches_untraced_serving() {
        let storm: Vec<RequestArrival> = serving_storm(4)
            .expect("storm")
            .into_iter()
            .take(300)
            .collect();
        let config = ServingConfig::new(serving_goal());
        let serve_with = |registry: PolicyRegistry, traced: bool| {
            let mut rt = Runtime::builder()
                .seed(4)
                .registry(registry)
                .build_sharded(SERVING_SHARDS)
                .expect("runtime");
            let mut policy = admission_policy("ALERT", &rt).expect("policy");
            if traced {
                let mut wrapped = trace::TracedAdmission {
                    inner: policy.as_mut(),
                };
                serve(&mut rt, &config, &storm, &mut wrapped).expect("serve")
            } else {
                serve(&mut rt, &config, &storm, policy.as_mut()).expect("serve")
            }
        };
        let plain = serve_with(PolicyRegistry::builtin(), false);
        trace::start();
        let traced = serve_with(trace::traced_registry(), true);
        let rec = trace::stop();
        assert_eq!(plain.fingerprint(), traced.fingerprint());
        assert_eq!(rec.counts["admission.requests"], 300);
        assert_eq!(
            rec.builds.len(),
            plain
                .outcomes
                .iter()
                .filter(|o| o.served_inputs > 0)
                .count()
        );
    }

    #[test]
    fn a_pass_reproduces_its_simulated_outcome() {
        let a = run_pass(Workload::SessionChurn, 8, Mode::Timed).expect("pass");
        let b = run_pass(Workload::SessionChurn, 8, Mode::Timed).expect("pass");
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.inputs, (CHURN_SESSIONS * CHURN_INPUTS) as u64);
        // open + run + close per session, plus the runtime build.
        assert_eq!(a.attempted, 1 + 3 * CHURN_SESSIONS as u64);
    }
}
