//! The per-layer split of a traced run.
//!
//! Spans give each layer's self time (its span minus its children).
//! Inside a session open, stream generation, environment build, table
//! build and lane build run without spans of their own, so after each
//! traced pass every logged scheduler build is replayed piecewise with
//! the session's own arguments, and those side-call times are carved
//! out of the span that contained them. What the parts do not cover is
//! reported as an explicit remainder, so the split always sums to the
//! traced wall time.

use crate::stats::{median, sorted, tail, Percentile};
use crate::trace::{by_name, BuildArgs, NameStats, Recording};
use crate::workloads::{churn_specs, steady_specs, Workload};
use alert_core::lane::CandidateLane;
use alert_models::family::CandidateSet;
use alert_sched::alert::build_table;
use alert_sched::{EpisodeEnv, Runtime};
use alert_workload::{quality_span, InputStream, Scenario};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Side-call durations (ns) of the open path's pieces, one per build.
#[derive(Debug, Default)]
pub struct SideCalls {
    pub stream_ns: Vec<f64>,
    pub env_ns: Vec<f64>,
    pub table_ns: Vec<f64>,
    pub lane_ns: Vec<f64>,
    pub env_inputs: u64,
    pub candidates: usize,
    pub live: usize,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Re-runs each logged build's open path piece by piece.
pub fn side_calls(
    workload: Workload,
    seed: u64,
    builds: &[BuildArgs],
) -> Result<SideCalls, String> {
    let rt = Runtime::builder()
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let specs = match workload {
        Workload::SteadyScenarios => steady_specs(seed),
        Workload::SessionChurn => churn_specs(seed),
        Workload::ServingOverload => Vec::new(),
    };
    let default_env = Scenario::default_env();
    let span = quality_span(rt.family(), rt.platform());
    let restricted = rt.family().restrict(CandidateSet::Standard);
    let mut out = SideCalls::default();
    for b in builds {
        let scenario = specs
            .get(b.id as usize)
            .map_or(&default_env, |s| &s.scenario);

        let t = Instant::now();
        let stream = InputStream::generate(b.task, b.n_inputs, b.seed);
        out.stream_ns.push(ns_since(t));

        let t = Instant::now();
        let env =
            EpisodeEnv::build_hetero(rt.node(), scenario, &stream, &b.goal, b.seed, Some(span))
                .map_err(|e| e.to_string())?;
        out.env_ns.push(ns_since(t));
        out.env_inputs += black_box(env).len() as u64;

        let t = Instant::now();
        let (table, _) = build_table(&restricted, rt.platform())?;
        out.table_ns.push(ns_since(t));

        let t = Instant::now();
        let lane = CandidateLane::build(&table);
        out.lane_ns.push(ns_since(t));
        out.candidates = table.candidate_count();
        out.live = black_box(lane).live_count();
    }
    Ok(out)
}

/// One reported number: value, unit, and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
    pub rank: Option<f64>,
}

impl Metric {
    pub fn plain(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
            rank: None,
        }
    }

    pub fn counted(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            samples: Some(samples),
            ..Metric::plain(name, value, unit)
        }
    }

    /// A percentile scaled by `scale` (e.g. ns → µs).
    pub fn percentile(name: &str, p: Percentile, scale: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value: p.value * scale,
            unit,
            samples: Some(p.samples),
            rank: Some(p.rank),
        }
    }
}

/// Traced passes folded together.
#[derive(Debug, Default)]
pub struct Layers {
    pub wall_ns: f64,
    /// Inputs the traced passes executed.
    pub inputs: u64,
    names: BTreeMap<&'static str, NameStats>,
    counts: BTreeMap<&'static str, u64>,
    side: SideCalls,
}

impl Layers {
    pub fn add(&mut self, rec: &Recording, wall_ns: f64, inputs: u64, side: SideCalls) {
        self.wall_ns += wall_ns;
        self.inputs += inputs;
        for (name, s) in by_name(&rec.spans) {
            let e = self.names.entry(name).or_default();
            e.durations_ns.extend(s.durations_ns);
            e.total_ns += s.total_ns;
            e.self_ns += s.self_ns;
        }
        for (name, n) in &rec.counts {
            *self.counts.entry(name).or_insert(0) += n;
        }
        self.side.stream_ns.extend(side.stream_ns);
        self.side.env_ns.extend(side.env_ns);
        self.side.table_ns.extend(side.table_ns);
        self.side.lane_ns.extend(side.lane_ns);
        self.side.env_inputs += side.env_inputs;
        self.side.candidates = side.candidates;
        self.side.live = side.live;
    }

    fn total(&self, name: &str) -> f64 {
        self.names.get(name).map_or(0.0, |s| s.total_ns as f64)
    }

    fn own(&self, name: &str) -> f64 {
        self.names.get(name).map_or(0.0, |s| s.self_ns as f64)
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn spans(&self, name: &str) -> usize {
        self.names.get(name).map_or(0, |s| s.durations_ns.len())
    }

    fn p50(&self, name: &str) -> Option<Percentile> {
        let s = self.names.get(name)?;
        median(&sorted(s.durations_ns.clone()))
    }

    /// The split of traced wall time into layer self times, in ns. The
    /// entries sum to the wall time exactly: `open_other`,
    /// `sched_build_other`, `serving_self` and `caller` are remainders.
    pub fn split_ns(&self) -> Vec<(&'static str, f64)> {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let stream = sum(&self.side.stream_ns);
        let env = sum(&self.side.env_ns);
        let table = sum(&self.side.table_ns);
        let lane = sum(&self.side.lane_ns);
        // Stream and env are carved out of whichever span held the
        // open: the caller's `runtime.open`, or `serve` on the serving
        // path, where the open happens inside the front-end.
        let opens_inside_serve = self.spans("runtime.open") == 0;
        let (open_carve, serve_carve) = if opens_inside_serve {
            (0.0, stream + env)
        } else {
            (stream + env, 0.0)
        };
        let top_level: f64 = [
            "runtime.open",
            "runtime.submit",
            "runtime.run",
            "runtime.close",
            "serve",
        ]
        .iter()
        .map(|n| self.total(n))
        .sum();
        vec![
            ("stream", stream),
            ("env", env),
            ("open_other", self.own("runtime.open") - open_carve),
            ("table", table),
            ("lane", lane),
            (
                "sched_build_other",
                self.total("sched.build") - table - lane,
            ),
            ("sync_goal", self.total("controller.sync_goal")),
            ("decide", self.total("controller.decide")),
            ("observe", self.total("controller.observe")),
            (
                "engine",
                self.own("runtime.submit") + self.own("runtime.run"),
            ),
            ("close", self.total("runtime.close")),
            (
                "admission",
                self.total("admission.assess") + self.total("admission.observe"),
            ),
            ("serving_self", self.own("serve") - serve_carve),
            ("caller", self.wall_ns - top_level),
        ]
    }

    /// The per-layer metrics every workload reports.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        let us = 1e-3;
        let side_p50 = |v: &[f64]| median(&sorted(v.to_vec()));
        let push_p50 = |m: &mut Vec<Metric>, name: &str, p: Option<Percentile>| {
            if let Some(p) = p {
                m.push(Metric::percentile(name, p, us, "us"));
            }
        };
        push_p50(&mut m, "sched.build_us", self.p50("sched.build"));
        push_p50(&mut m, "table.build_us", side_p50(&self.side.table_ns));
        push_p50(&mut m, "lane.build_us", side_p50(&self.side.lane_ns));
        push_p50(&mut m, "stream.generate_us", side_p50(&self.side.stream_ns));
        push_p50(&mut m, "env.build_us", side_p50(&self.side.env_ns));
        m.push(Metric::counted(
            "env.build_ns_per_input",
            self.side.env_ns.iter().sum::<f64>() / self.side.env_inputs as f64,
            "ns",
            self.side.env_ns.len(),
        ));
        m.push(Metric::plain(
            "table.candidates",
            self.side.candidates as f64,
            "count",
        ));
        m.push(Metric::counted(
            "lane.live_share",
            self.side.live as f64 / self.side.candidates as f64,
            "share",
            self.side.candidates,
        ));
        push_p50(
            &mut m,
            "controller.decide_us_p50",
            self.p50("controller.decide"),
        );
        if let Some(p) = self
            .names
            .get("controller.decide")
            .and_then(|s| tail(&sorted(s.durations_ns.clone()), 0.99))
        {
            m.push(Metric::percentile("controller.decide_us_p99", p, us, "us"));
        }
        push_p50(
            &mut m,
            "controller.observe_us",
            self.p50("controller.observe"),
        );
        push_p50(
            &mut m,
            "controller.sync_goal_us",
            self.p50("controller.sync_goal"),
        );
        let decisions = self.count("controller.decisions");
        m.push(Metric::counted(
            "controller.cache_hit_share",
            self.count("controller.cache_hits") as f64 / decisions as f64,
            "share",
            decisions as usize,
        ));
        for (name, ns) in self.split_ns() {
            m.push(Metric::plain(
                &format!("split.{name}"),
                ns / self.wall_ns,
                "share",
            ));
        }
        m
    }

    /// The layer numbers named per workload, beyond [`Layers::metrics`]:
    /// raw counts behind the shares, the caller-side spans, and the
    /// admission layer's own timings.
    pub fn report(&self, workload: Workload) -> Vec<Metric> {
        let us = 1e-3;
        let mut m = vec![
            Metric::plain(
                "controller.decisions",
                self.count("controller.decisions") as f64,
                "count",
            ),
            Metric::plain(
                "controller.cache_hits",
                self.count("controller.cache_hits") as f64,
                "count",
            ),
            Metric::plain("lane.live", self.side.live as f64, "count"),
            Metric::plain("lane.candidates", self.side.candidates as f64, "count"),
            Metric::plain("trace.wall_s", self.wall_ns * 1e-9, "s"),
        ];
        let mut p50 = |name: &str, span: &str| {
            if let Some(p) = self.p50(span) {
                m.push(Metric::percentile(name, p, us, "us"));
            }
        };
        match workload {
            Workload::SteadyScenarios | Workload::SessionChurn => {
                p50("runtime.open_us", "runtime.open");
                p50("runtime.submit_us", "runtime.submit");
                p50("runtime.run_us", "runtime.run");
                p50("runtime.close_us", "runtime.close");
                m.push(Metric::counted(
                    "engine.step_self_us",
                    (self.own("runtime.submit") + self.own("runtime.run")) * us
                        / self.inputs as f64,
                    "us",
                    self.inputs as usize,
                ));
            }
            Workload::ServingOverload => {
                p50("admission.assess_us", "admission.assess");
                p50("admission.observe_us", "admission.observe");
                let requests = self.count("admission.requests");
                let share = |n: &str| self.count(n) as f64 / requests as f64;
                m.push(Metric::counted(
                    "admission.shed_share",
                    share("admission.shed"),
                    "share",
                    requests as usize,
                ));
                m.push(Metric::counted(
                    "admission.degrade_share",
                    share("admission.degraded"),
                    "share",
                    requests as usize,
                ));
                let serving_self = self
                    .split_ns()
                    .into_iter()
                    .find(|(n, _)| *n == "serving_self")
                    .map_or(0.0, |(_, ns)| ns);
                m.push(Metric::counted(
                    "serving.self_us",
                    serving_self * us / requests as f64,
                    "us",
                    requests as usize,
                ));
            }
        }
        m
    }
}
