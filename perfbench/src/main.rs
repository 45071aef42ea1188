//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady-scenarios|session-churn|serving-overload> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs traced and untraced passes alternately and reports
//! the per-layer split. The last line of standard output is the result
//! object; the line before it carries the run context and every number
//! behind it, with units and sample counts. Span aggregates of the
//! traced run go to `perfbench-out/`. See `perfbench/METRICS.md`.

mod layers;
mod stats;
mod trace;
mod workloads;

use layers::{side_calls, Layers, Metric};
use stats::{median, median_of, sorted, tail};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_pass, Failure, Mode, Pass, Workload};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "inputs_per_s",
    "op_us_p50",
    "op_us_p99",
    "decision_cpu_us",
    "peak_rss_mb",
    "energy_j_per_input",
    "goodput",
    "floor_met_share",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: [&str; 28] = [
    "sched.build_us",
    "table.build_us",
    "table.candidates",
    "lane.build_us",
    "lane.live_share",
    "stream.generate_us",
    "env.build_us",
    "env.build_ns_per_input",
    "controller.decide_us_p50",
    "controller.decide_us_p99",
    "controller.observe_us",
    "controller.sync_goal_us",
    "controller.cache_hit_share",
    "trace.overhead_share",
    "split.stream",
    "split.env",
    "split.open_other",
    "split.table",
    "split.lane",
    "split.sched_build_other",
    "split.sync_goal",
    "split.decide",
    "split.observe",
    "split.engine",
    "split.close",
    "split.admission",
    "split.serving_self",
    "split.caller",
];

/// Passes of each kind a run makes at least, however short `--seconds`.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <steady-scenarios|session-churn|serving-overload> \
                     --seed <u64> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && s.is_finite())
                            .ok_or_else(|| bad(()))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(())),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a run prints.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The result metrics: [`END_TO_END`] or [`PER_LAYER`].
    metrics: Vec<Metric>,
    /// Everything else worth reading, with units and sample counts.
    report: Vec<Metric>,
    /// Correctness checks made, and the first failure if any.
    checks: Vec<String>,
    failure: Option<String>,
    passes: Vec<(String, usize)>,
}

impl Outcome {
    fn failed(f: Failure) -> Self {
        Outcome {
            correct: false,
            attempted: f.attempted.max(1),
            failed: f.failed,
            metrics: Vec::new(),
            report: Vec::new(),
            checks: Vec::new(),
            failure: Some(f.reason),
            passes: Vec::new(),
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_json(m: &Metric, detail: bool) -> String {
    let mut s = format!(
        "{}: {{\"value\": {}, \"unit\": {}",
        json_str(&m.name),
        json_num(m.value),
        json_str(m.unit)
    );
    if detail {
        if let Some(n) = m.samples {
            let _ = write!(s, ", \"samples\": {n}");
        }
        if let Some(r) = m.rank {
            let _ = write!(s, ", \"rank\": {}", json_num(r));
        }
    }
    s.push('}');
    s
}

fn metrics_json(ms: &[Metric], detail: bool) -> String {
    let items: Vec<String> = ms.iter().map(|m| metric_json(m, detail)).collect();
    format!("{{{}}}", items.join(", "))
}

/// Peak resident set (VmHWM) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn pass_checked(
    w: Workload,
    seed: u64,
    mode: Mode,
    reference: Option<&Pass>,
    attempted: &mut u64,
) -> Result<Pass, Failure> {
    let pass = run_pass(w, seed, mode).map_err(|mut f| {
        f.attempted += *attempted;
        f
    })?;
    *attempted += pass.attempted;
    if let Some(r) = reference {
        let same = if mode == Mode::Metered {
            pass.sim.fingerprint == r.sim.fingerprint
        } else {
            pass.sim == r.sim
        };
        if !same {
            return Err(Failure {
                attempted: *attempted,
                failed: 0,
                reason: format!(
                    "{mode:?} pass diverged from the first pass of seed {seed}: {:?} vs {:?}",
                    pass.sim, r.sim
                ),
            });
        }
    }
    Ok(pass)
}

fn timed_run(a: &Args) -> Result<Outcome, Failure> {
    let w = a.workload;
    let serving = w == Workload::ServingOverload;
    let mut attempted = 0;
    // The first pass warms caches and fixes the simulated outcome every
    // later pass must reproduce bit for bit; it is not timed.
    let reference = pass_checked(w, a.seed, Mode::Timed, None, &mut attempted)?;
    // Read before the timing samples of later passes pile up, so the
    // peak is the workload's own and not a function of the pass count.
    let rss = peak_rss_mb()
        .ok_or_else(|| wrong(attempted, "cannot read VmHWM from /proc/self/status"))?;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(a.seconds);
    let mut timed: Vec<Pass> = Vec::new();
    let mut metered: Vec<Pass> = Vec::new();
    loop {
        let mode = if serving && metered.len() < timed.len() {
            Mode::Metered
        } else {
            Mode::Timed
        };
        let pass = pass_checked(w, a.seed, mode, Some(&reference), &mut attempted)?;
        if mode == Mode::Metered {
            if let Some(first) = metered.first() {
                if first.sim != pass.sim {
                    return Err(Failure {
                        attempted,
                        failed: 0,
                        reason: "metered serving passes diverged".into(),
                    });
                }
            }
            metered.push(pass);
        } else {
            timed.push(pass);
        }
        let enough = timed.len() >= MIN_PASSES && (!serving || metered.len() >= MIN_PASSES);
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    // Rates are totals over every timed pass rather than medians of
    // per-pass rates: the host's speed drifts between a slow and a fast
    // state, and a total moves smoothly with the time spent in each
    // where a median jumps between them.
    let total = |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| ps.iter().map(f).sum::<f64>();
    let measure_s = total(&timed, &|p| p.measure_s);
    let setup_s = median_of(&timed.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let inputs_per_s = total(&timed, &|p| p.inputs as f64) / measure_s;
    let ops_per_s = total(&timed, &|p| p.ops as f64) / measure_s;
    let ops = sorted(timed.iter().flat_map(|p| p.op_us.iter().copied()).collect());
    let op_p50 = median(&ops).ok_or_else(|| wrong(attempted, "no operations timed"))?;
    let op_p99 =
        tail(&ops, 0.99).ok_or_else(|| wrong(attempted, "too few operations for a tail"))?;
    let cpu_passes = if serving { &metered } else { &timed };
    let decision_cpu_us = total(cpu_passes, &|p| p.decision_cpu_s.unwrap_or(f64::NAN)) * 1e6
        / total(cpu_passes, &|p| p.inputs as f64);
    let sim = reference.sim;
    let energy_sim = if serving { metered[0].sim } else { sim };

    let metrics = vec![
        Metric::counted("setup_s", setup_s, "s", timed.len()),
        Metric::counted("inputs_per_s", inputs_per_s, "1/s", timed.len()),
        Metric::percentile("op_us_p50", op_p50, 1.0, "us"),
        Metric::percentile("op_us_p99", op_p99, 1.0, "us"),
        Metric::counted("decision_cpu_us", decision_cpu_us, "us", cpu_passes.len()),
        Metric::plain("peak_rss_mb", rss, "MB"),
        Metric::counted(
            "energy_j_per_input",
            energy_sim.energy_j_per_input(),
            "J",
            energy_sim.measured as usize,
        ),
        Metric::counted(
            "goodput",
            sim.goodput(),
            "share",
            if serving {
                sim.requests as usize
            } else {
                sim.measured as usize
            },
        ),
        Metric::counted(
            "floor_met_share",
            sim.floor_met_share(),
            "share",
            sim.sessions as usize,
        ),
    ];

    // The same numbers under the names each workload is known by.
    let mut report = Vec::new();
    match w {
        Workload::SteadyScenarios => {
            report.push(Metric::percentile("submit_us_p50", op_p50, 1.0, "us"));
            report.push(Metric::percentile("submit_us_p99", op_p99, 1.0, "us"));
        }
        Workload::SessionChurn => {
            let opens = sorted(
                timed
                    .iter()
                    .flat_map(|p| p.open_us.iter().copied())
                    .collect(),
            );
            if let (Some(p50), Some(p99)) = (median(&opens), tail(&opens, 0.99)) {
                report.push(Metric::percentile("open_us_p50", p50, 1.0, "us"));
                report.push(Metric::percentile("open_us_p99", p99, 1.0, "us"));
            }
            report.push(Metric::counted(
                "sessions_per_s",
                ops_per_s,
                "1/s",
                timed.len(),
            ));
        }
        Workload::ServingOverload => {
            report.push(Metric::counted(
                "requests_per_s",
                ops_per_s,
                "1/s",
                timed.len(),
            ));
            let shed = sorted(
                timed
                    .iter()
                    .flat_map(|p| p.shed_us.iter().copied())
                    .collect(),
            );
            if let Some(p50) = median(&shed) {
                report.push(Metric::percentile("shed_op_us_p50", p50, 1.0, "us"));
            }
            let share = |n: u64| n as f64 / sim.requests as f64;
            report.push(Metric::counted(
                "shed_share",
                share(sim.shed),
                "share",
                sim.requests as usize,
            ));
            report.push(Metric::counted(
                "degrade_share",
                share(sim.degraded),
                "share",
                sim.requests as usize,
            ));
        }
    }
    if !serving {
        report.push(Metric::counted(
            "deadline_miss_rate",
            sim.deadline_miss_rate(),
            "share",
            sim.measured as usize,
        ));
        report.push(Metric::counted(
            "floor_miss_rate",
            1.0 - sim.floor_met_share(),
            "share",
            sim.sessions as usize,
        ));
    }
    report.push(Metric::counted(
        "inputs_per_pass",
        reference.inputs as f64,
        "count",
        1,
    ));
    report.push(Metric::counted(
        "ops_per_pass",
        reference.ops as f64,
        "count",
        1,
    ));
    let rates = sorted(
        timed
            .iter()
            .map(|p| p.inputs as f64 / p.measure_s)
            .collect(),
    );
    report.push(Metric::counted(
        "inputs_per_s.slowest_pass",
        rates[0],
        "1/s",
        rates.len(),
    ));
    report.push(Metric::counted(
        "inputs_per_s.median_pass",
        median_of(&rates),
        "1/s",
        rates.len(),
    ));
    report.push(Metric::counted(
        "inputs_per_s.fastest_pass",
        rates[rates.len() - 1],
        "1/s",
        rates.len(),
    ));

    let mut checks = vec![
        "every session ran its full stream".to_string(),
        format!(
            "{} passes bit-identical to the first",
            timed.len() + metered.len()
        ),
        "no runtime call failed".to_string(),
    ];
    if serving {
        checks.push(format!(
            "serving fingerprint {:#018x} stable",
            sim.fingerprint
        ));
    }
    let mut passes = vec![("timed".to_string(), timed.len())];
    if serving {
        passes.push(("metered".to_string(), metered.len()));
    }
    Ok(Outcome {
        correct: true,
        attempted,
        failed: 0,
        metrics,
        report,
        checks,
        failure: None,
        passes,
    })
}

fn wrong(attempted: u64, reason: &str) -> Failure {
    Failure {
        attempted,
        failed: 0,
        reason: reason.to_string(),
    }
}

/// Raw spans written out per run; the aggregates cover every span.
const RAW_SPANS_WRITTEN: usize = 20_000;

/// Writes the split, the span aggregates of the first traced pass and
/// its first [`RAW_SPANS_WRITTEN`] raw spans to `perfbench-out/`.
fn write_trace(a: &Args, first: &trace::Recording, layers: &Layers) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::Path::new("perfbench-out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-{}.jsonl", a.workload.name(), a.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (name, ns) in layers.split_ns() {
        writeln!(
            out,
            "{{\"split\": {}, \"ns\": {}}}",
            json_str(name),
            json_num(ns)
        )?;
    }
    for (name, s) in trace::by_name(&first.spans) {
        writeln!(
            out,
            "{{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            json_str(name),
            s.durations_ns.len(),
            s.total_ns,
            s.self_ns
        )?;
    }
    for s in first.spans.iter().take(RAW_SPANS_WRITTEN) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {}, \"id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            json_str(s.name),
            s.id,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

fn traced_run(a: &Args) -> Result<Outcome, Failure> {
    let w = a.workload;
    let mut attempted = 0;
    let reference = pass_checked(w, a.seed, Mode::Timed, None, &mut attempted)?;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(a.seconds);
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers = Layers::default();
    let mut first: Option<trace::Recording> = None;
    while traced_s.len() < MIN_PASSES || untraced_s.len() < MIN_PASSES || Instant::now() < deadline
    {
        let t = Instant::now();
        pass_checked(w, a.seed, Mode::Timed, Some(&reference), &mut attempted)?;
        untraced_s.push(t.elapsed().as_secs_f64());

        trace::start();
        let t = Instant::now();
        let pass = pass_checked(w, a.seed, Mode::Traced, Some(&reference), &mut attempted);
        let wall = t.elapsed();
        let rec = trace::stop();
        let pass = pass?;
        traced_s.push(wall.as_secs_f64());
        let side = side_calls(w, a.seed, &rec.builds).map_err(|e| wrong(attempted, &e))?;
        layers.add(&rec, wall.as_nanos() as f64, pass.inputs, side);
        if first.is_none() {
            first = Some(rec);
        }
    }

    let untraced = median_of(&untraced_s);
    let mut metrics = layers.metrics();
    metrics.push(Metric::counted(
        "trace.overhead_share",
        (median_of(&traced_s) - untraced) / untraced,
        "share",
        traced_s.len(),
    ));
    let mut report = layers.report(w);
    report.push(Metric::counted(
        "trace.overhead_s",
        median_of(&traced_s) - untraced,
        "s",
        traced_s.len(),
    ));

    let split_sum: f64 = layers.split_ns().iter().map(|(_, ns)| ns).sum();
    if (split_sum - layers.wall_ns).abs() > 1e-6 * layers.wall_ns {
        return Err(wrong(
            attempted,
            "layer split does not sum to the traced wall time",
        ));
    }
    if let Some(first) = &first {
        if let Err(e) = write_trace(a, first, &layers) {
            eprintln!("perfbench: could not write the trace: {e}");
        }
    }
    let checks = vec![
        format!(
            "{} traced passes bit-identical to the untraced run",
            traced_s.len()
        ),
        "layer self times plus remainders equal the traced wall time".to_string(),
        "no runtime call failed".to_string(),
    ];
    Ok(Outcome {
        correct: true,
        attempted,
        failed: 0,
        metrics,
        report,
        checks,
        failure: None,
        passes: vec![
            ("untraced".into(), untraced_s.len()),
            ("traced".into(), traced_s.len()),
        ],
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    let mut out = run.unwrap_or_else(Outcome::failed);

    // Every result metric must be present and finite.
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if out.correct {
        let mut ordered = Vec::with_capacity(expected.len());
        for name in expected {
            match out.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => ordered.push(m.clone()),
                _ => {
                    out.correct = false;
                    out.failure = Some(format!("metric {name} missing or not finite"));
                }
            }
        }
        out.metrics = ordered;
    }

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let passes: Vec<String> = out
        .passes
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_str(k)))
        .collect();
    let checks: Vec<String> = out.checks.iter().map(|c| json_str(c)).collect();
    println!(
        "{{\"context\": {{\"workload\": {}, \"op\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {parallelism}, \"profile\": {}, \"passes\": {{{}}}}}, \
         \"checks\": [{}], \"failure\": {}, \"metrics\": {}, \"report\": {}}}",
        json_str(args.workload.name()),
        json_str(args.workload.op()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_str(profile),
        passes.join(", "),
        checks.join(", "),
        out.failure.as_deref().map_or("null".to_string(), json_str),
        metrics_json(&out.metrics, true),
        metrics_json(&out.report, true),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics_json(&out.metrics, false)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv = "--workload session-churn --seed 7 --seconds 10 --trace 1";
        let a = Args::parse(argv.split(' ').map(String::from)).expect("valid");
        assert_eq!(a.workload, Workload::SessionChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(Args::parse(
            "--workload nope --seed 1 --seconds 1 --trace 0"
                .split(' ')
                .map(String::from)
        )
        .is_err());
        assert!(Args::parse(
            "--workload session-churn --seed 1"
                .split(' ')
                .map(String::from)
        )
        .is_err());
    }
}
