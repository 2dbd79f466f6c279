//! `utps-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-read|uniform-rw|durable-rw> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the mix's untraced system runs for about `--seconds`
//! host seconds, each in a fresh child process, and reports the end-to-end
//! metrics (host medians across repetitions, simulated medians across three
//! sub-seeds). `--trace 1` runs each system three ways in this process —
//! the library's runner, the benchmark's untraced path and the traced path
//! — checks that all three `stats_json` documents are byte-identical, and
//! reports the per-layer metrics. Both modes run the correctness gate and
//! the mix's oracle-checked cell. The last stdout line is one JSON object;
//! the exit code is nonzero when the gate fails. See
//! `perfbench/NOTES.md`.

mod gate;
mod layers;
mod mixes;
mod systems;
mod timed;
mod trace;

use std::time::Instant;

use utps_core::experiment::{stats_json, RunConfig, RunResult, SystemKind};
use utps_sim::time::SECS;

use crate::layers::{key, LayerMetrics};
use crate::mixes::TrafficMix;
use crate::systems::SysRun;
use crate::trace::Tracer;

/// Where the traced run writes its spans (relative to the working directory).
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes of a timed run: the repetition and the
    /// system to run.
    rep: Option<(usize, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut rep = None;
    let mut system = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rep" => rep = Some(value()?.parse().map_err(|e| format!("--rep: {e}"))?),
            "--system" => system = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rep: match (rep, system) {
            (Some(r), Some(s)) => Some((r, s)),
            (None, None) => None,
            _ => return Err("--rep and --system go together".into()),
        },
    })
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` for the result line, in order.
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Counts `r` against the gate and the attempted/failed totals.
    fn account(&mut self, system: SystemKind, cfg: &RunConfig, r: &RunResult) {
        self.errors.extend(gate::check_run(system, cfg, r));
        // RaceHash's verb clients count completions, not issues.
        self.attempted += r.issued.max(r.completed_total);
        self.failed += r.failed + r.not_found;
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// FNV-1a over `stats_json`: one number that moves iff a simulated
/// statistic moved.
fn sim_digest(stats: &str) -> u64 {
    stats.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Prints the simulated results of one system run with the steady-state
/// evidence: the 1 ms throughput timeline, the last interval before the
/// measured window against the window's mean, and the window against p99.
fn print_sim(system: SystemKind, cfg: &RunConfig, run: &SysRun) {
    let r = &run.result;
    let window_us = cfg.duration as f64 / 1e6;
    let warmup_s = cfg.warmup as f64 / SECS as f64;
    let timeline: Vec<f64> = r
        .timeline
        .iter()
        .map(|&(_, m)| (m * 100.0).round() / 100.0)
        .collect();
    let steady = match r.timeline.iter().rfind(|(t, _)| *t <= warmup_s + 1e-12) {
        Some(&(_, before)) if before > 0.0 => format!(
            "last 1 ms before the window {before:.2} Mops vs window {:.2} Mops ({:+.1}%)",
            r.mops,
            (r.mops / before - 1.0) * 100.0
        ),
        _ => "no timeline".to_string(),
    };
    println!(
        "sim {} seed {}: {:.3} Mops, p50 {:.2} us, p99 {:.2} us over {} ops, {:.2} engine steps/op; \
         window {window_us:.0} us = {:.0} x p99; 1 ms timeline {timeline:?} Mops, {steady}; \
         sim_digest {:016x}",
        key(system),
        cfg.seed,
        r.mops,
        r.p50_ns as f64 / 1e3,
        r.p99_ns as f64 / 1e3,
        r.completed,
        r.engine_steps as f64 / r.completed_total.max(1) as f64,
        window_us * 1e3 / r.p99_ns.max(1) as f64,
        sim_digest(&run.stats),
    );
}

/// The traced run: per-layer metrics and the transparency check.
fn traced_run(mix: &TrafficMix, args: &Args, out: &mut Outcome) {
    let cfg = (mix.config)(args.seed);
    let mut lm = LayerMetrics::new();
    let mut spans_json = String::from("{");
    for (i, &system) in mix.systems.iter().enumerate() {
        let lib_start = Instant::now();
        let lib = stats_json(&utps_baselines::run(system, &cfg));
        let lib_s = lib_start.elapsed().as_secs_f64();
        let plain = systems::run(system, &cfg, None);
        let tracer = Tracer::new(args.seed ^ i as u64);
        let traced = systems::run(system, &cfg, Some(&tracer));
        out.account(system, &cfg, &plain.result);
        if lib != plain.stats || plain.stats != traced.stats {
            out.errors.push(format!(
                "{}: stats_json differs between the library run, the untraced and the traced run",
                system.name()
            ));
        }
        print_sim(system, &cfg, &plain);
        println!(
            "trace {}: library run {lib_s:.2} s, untraced run {:.2} s, traced run {:.2} s (overhead x{:.2})",
            key(system),
            plain.run_s(),
            traced.run_s(),
            traced.run_s() / plain.run_s()
        );
        lm.add_system(system, &plain, &traced, &tracer);
        if i > 0 {
            spans_json.push(',');
        }
        spans_json.push_str(&format!("\"{}\":[", key(system)));
        for (j, s) in tracer.spans().iter().enumerate() {
            if j > 0 {
                spans_json.push(',');
            }
            spans_json.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"idle\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                s.idle
            ));
        }
        spans_json.push(']');
    }
    spans_json.push('}');
    let (host_s, point_ops, budget) = oracle_cell(mix, &cfg, out);
    lm.set_oracle(host_s, point_ops, budget);

    let path = format!("{TRACE_DIR}/{}-seed{}.json", mix.name, args.seed);
    match std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, &spans_json)) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    for (name, unit, v) in lm.values() {
        out.metrics.push((name.clone(), *v, unit));
    }
}

/// Runs the mix's short oracle-checked cell for every system that records
/// a history (RaceHash's verb clients record none). Returns the checker's
/// host seconds, point ops and budget-exceeded keys, summed.
fn oracle_cell(mix: &TrafficMix, cfg: &RunConfig, out: &mut Outcome) -> (f64, usize, usize) {
    let cell = mixes::oracle_cell(cfg);
    let (mut host_s, mut point_ops, mut budget) = (0.0, 0, 0);
    for &system in mix.systems.iter().filter(|s| **s != SystemKind::RaceHash) {
        let run = systems::run(system, &cell, None);
        out.account(system, &cell, &run.result);
        let history = run
            .history
            .as_ref()
            .expect("the oracle cell records a history");
        let v = gate::check_history(&cell, history);
        println!(
            "oracle {}: {} point ops, {} budget-exceeded keys, {} violations, {:.2} s",
            key(system),
            v.point_ops,
            v.budget_exceeded,
            v.violations.len(),
            v.host_s
        );
        if v.budget_exceeded > 0 {
            out.errors.push(format!(
                "{}: oracle search budget exceeded on {} keys: the cell is too large to decide",
                system.name(),
                v.budget_exceeded
            ));
        }
        out.errors.extend(
            v.violations
                .iter()
                .map(|e| format!("{}: oracle: {e}", system.name())),
        );
        host_s += v.host_s;
        point_ops += v.point_ops;
        budget += v.budget_exceeded;
    }
    (host_s, point_ops, budget)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                mixes::MIXES.map(|m| m.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(mix) = mixes::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };

    if let Some((rep, name)) = &args.rep {
        let Some(&system) = mix.systems.iter().find(|s| key(**s) == name) else {
            eprintln!("perfbench: {} does not run {name}", mix.name);
            std::process::exit(2);
        };
        timed::run_rep(mix, args.seed, *rep, system);
        return;
    }
    let mut out = Outcome::default();
    if args.trace {
        traced_run(mix, &args, &mut out);
    } else {
        timed::timed_run(mix, args.seed, args.seconds, &mut out);
    }

    for (name, value, _) in &mut out.metrics {
        if !value.is_finite() {
            out.errors.push(format!("{name} is not a number: {value}"));
            *value = 0.0;
        }
    }
    let correct = out.errors.is_empty();
    for e in &out.errors {
        eprintln!("perfbench: correctness gate: {e}");
    }
    println!(
        "metric failed_frac {} ({} failed of {} issued)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.attempted, out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        if !args.trace {
            println!("metric {name} {value} {unit}");
        }
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
