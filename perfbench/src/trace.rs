//! In-memory span tracing for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! layers' public functions: the caller wraps `open`/`submit`/`close`/
//! `serve`, and three decorators wrap what the runtime calls back into —
//! a [`Policy`] that builds the ALERT scheduler, a [`Scheduler`] around
//! it, and an [`AdmissionPolicy`]. Every decorator delegates every
//! method, so a traced run makes exactly the decisions of an untraced
//! one.
//!
//! The recorder is thread-local: the workloads drive the runtime from
//! one thread, and the runtime calls the decorators on that thread.

use alert_core::{ControllerSnapshot, DecisionTrace};
use alert_sched::serving::{AdmissionDecision, AdmissionPolicy, RequestContext};
use alert_sched::{
    Decision, Feedback, InputContext, Policy, PolicyContext, PolicyRegistry, Scheduler,
};
use alert_stats::units::Seconds;
use alert_workload::{Goal, InputRecord, TaskId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The arguments one ALERT scheduler build saw, kept so the open path
/// can be re-run piecewise with the session's own arguments.
#[derive(Debug, Clone, Copy)]
pub struct BuildArgs {
    pub id: u64,
    pub task: TaskId,
    pub n_inputs: usize,
    pub seed: u64,
    pub goal: Goal,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    current_id: u64,
    counts: BTreeMap<&'static str, u64>,
    builds: Vec<BuildArgs>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        current_id: 0,
        counts: BTreeMap::new(),
        builds: Vec::new(),
    });
}

/// Everything one traced stretch recorded.
#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
    pub builds: Vec<BuildArgs>,
}

/// Starts recording on this thread, discarding anything left over.
pub fn start() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
        r.counts.clear();
        r.builds.clear();
    });
}

/// Stops recording and hands back what was recorded.
pub fn stop() -> Recording {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        Recording {
            spans: std::mem::take(&mut r.spans),
            counts: std::mem::take(&mut r.counts),
            builds: std::mem::take(&mut r.builds),
        }
    })
}

/// Sets the id later decorator spans are filed under (the session or
/// request the caller is about to drive).
pub fn set_current(id: u64) {
    RECORDER.with(|r| r.borrow_mut().current_id = id);
}

fn current() -> u64 {
    RECORDER.with(|r| r.borrow().current_id)
}

/// Adds `n` to a named counter while recording.
pub fn count(name: &'static str, n: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            *r.counts.entry(name).or_insert(0) += n;
        }
    });
}

fn log_build(args: BuildArgs) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.builds.push(args);
        }
    });
}

/// Runs `f` inside a span named `name`; a plain call when not recording.
pub fn span<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    let slot = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let slot = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.open.push(slot);
        Some(slot)
    });
    let out = f();
    if let Some(slot) = slot {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.spans[slot as usize].end_ns = end_ns;
            r.open.pop();
        });
    }
    out
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals over a recording.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub durations_ns: Vec<f64>,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds spans into per-name totals (durations, total and self time).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.durations_ns.push(s.dur_ns() as f64);
        e.total_ns += s.dur_ns();
        e.self_ns += own;
    }
    out
}

/// Wraps every ALERT scheduler the runtime builds: times the builtin
/// build as `sched.build` and hands back a [`TracedScheduler`].
pub struct TracedPolicy {
    builtin: PolicyRegistry,
}

/// A registry whose `"ALERT"` is the traced wrapper around the builtin
/// one; every other scheme stays builtin.
pub fn traced_registry() -> PolicyRegistry {
    let mut registry = PolicyRegistry::builtin();
    registry.register(Arc::new(TracedPolicy {
        builtin: PolicyRegistry::builtin(),
    }));
    registry
}

impl Policy for TracedPolicy {
    fn name(&self) -> &str {
        "ALERT"
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<Box<dyn Scheduler>, String> {
        let id = current();
        let inner = span("sched.build", id, || self.builtin.build("ALERT", ctx))
            .map_err(|e| e.to_string())?;
        log_build(BuildArgs {
            id,
            task: ctx.stream.task(),
            n_inputs: ctx.stream.len(),
            seed: ctx.stream.seed(),
            goal: ctx.goal,
        });
        Ok(Box::new(TracedScheduler { inner, id }))
    }
}

/// Spans `sync_goal`/`decide`/`observe`; delegates every method.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    id: u64,
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sync_goal(&mut self, goal: &Goal) {
        span("controller.sync_goal", self.id, || {
            self.inner.sync_goal(goal)
        });
    }

    fn decide(&mut self, ctx: &InputContext) -> Decision {
        let decision = span("controller.decide", self.id, || self.inner.decide(ctx));
        if let Some(t) = self.inner.decision_trace() {
            count("controller.decisions", 1);
            count("controller.cache_hits", u64::from(t.cache_hit));
        }
        decision
    }

    fn observe(&mut self, feedback: &Feedback) {
        span("controller.observe", self.id, || {
            self.inner.observe(feedback)
        });
    }

    fn last_decision_cost(&self) -> Seconds {
        self.inner.last_decision_cost()
    }

    fn controller_snapshot(&self) -> Option<ControllerSnapshot> {
        self.inner.controller_snapshot()
    }

    fn restore_controller(&mut self, snapshot: &ControllerSnapshot) {
        self.inner.restore_controller(snapshot);
    }

    fn decision_trace(&self) -> Option<DecisionTrace> {
        self.inner.decision_trace()
    }

    fn belief(&self) -> Option<(f64, f64)> {
        self.inner.belief()
    }
}

/// Spans `assess`/`observe` and counts verdicts; delegates every method.
pub struct TracedAdmission<'a> {
    pub inner: &'a mut dyn AdmissionPolicy,
}

impl AdmissionPolicy for TracedAdmission<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn assess(&mut self, ctx: &RequestContext) -> AdmissionDecision {
        let id = ctx.index as u64;
        set_current(id);
        let verdict = span("admission.assess", id, || self.inner.assess(ctx));
        count("admission.requests", 1);
        match verdict {
            AdmissionDecision::Admit { .. } => count("admission.admitted", 1),
            AdmissionDecision::Degrade { .. } => count("admission.degraded", 1),
            AdmissionDecision::Shed { .. } => count("admission.shed", 1),
        }
        verdict
    }

    fn observe(&mut self, record: &InputRecord) {
        span("admission.observe", current(), || {
            self.inner.observe(record)
        });
    }

    fn last_probe(&self) -> Option<alert_sched::AdmissionProbe> {
        self.inner.last_probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            id: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            s("open", 0, 100, None),
            s("sched.build", 10, 70, Some(0)),
            s("inner", 20, 30, Some(1)),
            s("submit", 100, 150, None),
            s("decide", 110, 120, Some(3)),
            s("observe", 130, 145, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![40, 50, 10, 25, 10, 15]);
        let by = by_name(&spans);
        // Self times of every span add up to the top-level durations.
        let total_self: u64 = by.values().map(|n| n.self_ns).sum();
        assert_eq!(total_self, 150);
        assert_eq!(by["submit"].total_ns, 50);
        assert_eq!(by["submit"].self_ns, 25);
    }

    #[test]
    fn recorder_nests_spans_and_records_parents() {
        start();
        let v = span("outer", 7, || {
            span("inner", 7, || 3) + span("inner", 7, || 4)
        });
        count("hits", 2);
        let rec = stop();
        assert_eq!(v, 7);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert!(rec.spans[1].end_ns <= rec.spans[2].start_ns);
        assert!(rec.spans[0].end_ns >= rec.spans[2].end_ns);
        assert_eq!(rec.counts["hits"], 2);
        // Nothing is recorded once stopped.
        span("after", 0, || ());
        assert!(stop().spans.is_empty());
    }
}
