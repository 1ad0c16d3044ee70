//! perfbench: the end-to-end and per-layer benchmark of one FPISA
//! all-reduce round.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--rustc <version>] [--rustflags <flags>]
//!           [--commit <id>]
//! ```
//!
//! With `--trace 0` a run times closed-loop ops (one client, one thread,
//! one shard) and prints the end-to-end metrics; with `--trace 1` it
//! prints the per-layer metrics of a separate traced run. Every op's
//! output is checked against an oracle outside the timing, and every run
//! asserts that its deterministic counts repeat for its seed and differ
//! for another. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod chaos;
mod common;
mod host;
mod inproc;
mod layers;
mod replay;
mod trace;

use common::{json_num, json_str, Metric, Outcome};
use fpisa_core::FpFormat;
use fpisa_pipeline::{PipelineSpec, PipelineVariant};
use inproc::{BackendKind, InProcess, Stress};
use std::path::PathBuf;
use std::sync::Mutex;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, no tracing.
    Timed,
    /// Per-layer metrics from spans and replays.
    Traced,
}

pub const WORKLOADS: [&str; 4] = [
    "allreduce_fp16",
    "allreduce_switchml",
    "chaos_fp16",
    "readout_fp32x",
];

/// Where traced runs write their spans (`<dir>/<workload>-<kind>.csv`).
static TRACE_OUT: Mutex<Option<(PathBuf, String)>> = Mutex::new(None);

/// Write a tracer's spans next to the run's other outputs. A write error
/// is reported but does not fail the run: the metrics are already taken.
pub fn write_trace(tr: &trace::Tracer, kind: &str) {
    let guard = TRACE_OUT.lock().expect("trace output lock poisoned");
    let Some((dir, workload)) = guard.as_ref() else {
        return;
    };
    let path = dir.join(format!("{workload}-{kind}.csv"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| tr.write_csv(&path)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn spec(variant: PipelineVariant, format: FpFormat, slots: usize) -> PipelineSpec {
    PipelineSpec::new(variant)
        .format(format)
        .slots(slots)
        .shards(1)
}

fn run_workload(name: &str, seed: u64, seconds: f64, mode: Mode) -> Outcome {
    match name {
        "allreduce_fp16" => InProcess {
            workers: 8,
            elements: 2048,
            dynamic_range_bits: 16,
            backend: BackendKind::Fpisa {
                spec: spec(PipelineVariant::TofinoA, FpFormat::FP16, 2048),
                shadow: false,
            },
        }
        .run(seed, seconds, mode, Stress::AddDominates),
        "allreduce_switchml" => InProcess {
            workers: 8,
            elements: 2048,
            dynamic_range_bits: 16,
            backend: BackendKind::SwitchMl,
        }
        .run(seed, seconds, mode, Stress::HostShareAtLeast(1.0 / 3.0)),
        "readout_fp32x" => InProcess {
            workers: 2,
            elements: 2048,
            dynamic_range_bits: 2,
            backend: BackendKind::Fpisa {
                spec: spec(PipelineVariant::ExtendedFull, FpFormat::FP32, 2048),
                shadow: true,
            },
        }
        .run(seed, seconds, mode, Stress::ReadoutShareAtLeast(0.25)),
        "chaos_fp16" => chaos::run(seed, seconds, mode),
        other => unreachable!("workload {other} was validated"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out_dir: Option<PathBuf>,
    rustc: String,
    rustflags: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        mode: Mode::Timed,
        out_dir: None,
        rustc: "unknown".into(),
        rustflags: String::new(),
        commit: "unknown".into(),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value),
            "--out-dir" => a.out_dir = Some(PathBuf::from(value)),
            "--rustc" => a.rustc = value,
            "--rustflags" => a.rustflags = value,
            "--commit" => a.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    a.seed = seed.ok_or("--seed is required")?;
    a.seconds = seconds.ok_or("--seconds is required")?;
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    a.mode = match trace.as_deref() {
        Some("0") | None => Mode::Timed,
        Some("1") => Mode::Traced,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(a)
}

fn metrics_json(ms: &[Metric], with_samples: bool) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| {
            let samples = match (with_samples, m.samples) {
                (true, Some(n)) => format!(", \"samples\": {n}"),
                _ => String::new(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn print_human(workload: &str, o: &Outcome) {
    println!(
        "== {workload}: {} ops attempted, {} failed",
        o.attempted, o.failed
    );
    for m in o.metrics.iter().chain(&o.extra) {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!(
            "  {:<40} {:>16} {}{n}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for (name, ok) in &o.checks {
        println!("  check {name}: {}", if *ok { "pass" } else { "FAIL" });
    }
    for e in &o.errors {
        println!("  error: {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let effective = host::effective_parallelism();
    let host_json = format!(
        "{{\"available_parallelism\": {cores}, \"effective_parallelism\": {}, \
         \"profile\": {}, \"target_features\": {}, \"rustflags\": {}, \"rustc\": {}, \
         \"commit\": {}}}",
        json_num(effective),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&host::target_features()),
        json_str(&args.rustflags),
        json_str(&args.rustc),
        json_str(&args.commit),
    );
    println!("host {host_json}");

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for name in &names {
        if let Some(dir) = &args.out_dir {
            *TRACE_OUT.lock().expect("trace output lock poisoned") =
                Some((dir.clone(), name.to_string()));
        }
        let o = run_workload(name, args.seed, args.seconds, args.mode);
        print_human(name, &o);
        let checks: Vec<String> = o
            .checks
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let errors: Vec<String> = o.errors.iter().map(|e| json_str(e)).collect();
        println!(
            "report {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"host\": {host_json}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failed_frac\": {}, \"metrics\": {}, \"extra\": {}, \"checks\": {{{}}}, \
             \"errors\": [{}]}}",
            json_str(name),
            args.seed,
            json_num(args.seconds),
            u8::from(args.mode == Mode::Traced),
            o.correct,
            o.attempted,
            o.failed,
            json_num(o.failed as f64 / o.attempted.max(1) as f64),
            metrics_json(&o.metrics, true),
            metrics_json(&o.extra, true),
            checks.join(", "),
            errors.join(", "),
        );
        all.correct &= o.correct && o.attempted > 0;
        all.attempted += o.attempted;
        all.failed += o.failed;
        let prefix = if names.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        all.metrics.extend(o.metrics.into_iter().map(|mut m| {
            m.name = format!("{prefix}{}", m.name);
            m
        }));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        all.correct,
        all.attempted,
        all.failed,
        metrics_json(&all.metrics, false)
    );
}
