//! The untraced, timed run: end-to-end metrics.
//!
//! Every system run is a fresh child process — this executable with
//! `--rep K --system S` — started one at a time, on one host thread.
//! Repeated in one long-lived process, the same simulated work spread two
//! to three times wider in host time than in fresh processes (NOTES.md,
//! "Host-time noise").
//!
//! Round `k` runs sub-seed `k mod SUB_SEEDS`. Host metrics are medians over
//! a system's runs, simulated metrics medians over the sub-seeds; a run that
//! repeats a sub-seed must be byte-identical to its first.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use utps_core::experiment::SystemKind;

use crate::layers::key;
use crate::mixes::TrafficMix;
use crate::{median, oracle_cell, print_sim, sim_digest, systems, Outcome};

/// Sub-seeds a timed run cycles through; its simulated metrics are medians
/// over them, which damps the seed-to-seed swing of one simulated run.
const SUB_SEEDS: usize = 3;
/// Rounds in which every system runs, whatever `--seconds` says: one per
/// sub-seed.
const MIN_REPS: usize = SUB_SEEDS;
/// Most rounds a timed run makes.
const MAX_REPS: usize = 50;

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sub-seed `k` of `seed`: the seed itself, then a splitmix64 stream.
fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One system's figures from one repetition.
struct SysRep {
    host_us: f64,
    mops: f64,
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
    ops: u64,
    digest: String,
}

/// What one child process reports.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    rss_mib: f64,
    attempted: u64,
    failed: u64,
    errors: u64,
    /// `None` when the child only set the system up.
    run: Option<SysRep>,
}

/// The child side: runs `system` in repetition `rep` of `mix` and prints
/// its figures as a `rep-sys` line (when it ran) and a closing `rep-total`
/// line. Gate failures go to stderr and are counted in `rep-total`.
pub fn run_rep(mix: &TrafficMix, seed: u64, rep: usize, system: SystemKind) {
    let cfg = (mix.config)(sub_seed(seed, rep % SUB_SEEDS));
    let mut out = Outcome::default();
    // RaceHash costs more host time than the other systems together and is
    // reported, not gated: it runs once, and later repetitions only set it
    // up.
    let setup_s = if system == SystemKind::RaceHash && rep > 0 {
        systems::racehash_setup_s(&cfg)
    } else {
        let run = systems::run(system, &cfg, None);
        out.account(system, &cfg, &run.result);
        if rep < SUB_SEEDS {
            print_sim(system, &cfg, &run);
        }
        let r = &run.result;
        println!(
            "rep-sys {} {} {} {} {} {} {:016x}",
            run.host_us_per_op(),
            r.mops,
            r.mean_ns / 1e3,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.completed,
            sim_digest(&run.stats)
        );
        run.setup_s()
    };
    for e in &out.errors {
        eprintln!("perfbench: correctness gate: repetition {rep}: {e}");
    }
    println!(
        "rep-total {setup_s} {} {} {} {}",
        peak_rss_mib(),
        out.attempted,
        out.failed,
        out.errors.len()
    );
}

/// Parses a child's stdout, echoing every line that is not a figure.
fn parse_rep(stdout: &str) -> Result<Rep, String> {
    fn num<T: std::str::FromStr>(field: Option<&str>, line: &str) -> Result<T, String> {
        field
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed repetition line: {line}"))
    }
    let mut rep = Rep::default();
    let mut closed = false;
    for line in stdout.lines() {
        let mut f = line.split(' ');
        match f.next() {
            Some("rep-sys") => {
                rep.run = Some(SysRep {
                    host_us: num(f.next(), line)?,
                    mops: num(f.next(), line)?,
                    mean_us: num(f.next(), line)?,
                    p50_us: num(f.next(), line)?,
                    p99_us: num(f.next(), line)?,
                    ops: num(f.next(), line)?,
                    digest: num(f.next(), line)?,
                });
            }
            Some("rep-total") => {
                rep.setup_s = num(f.next(), line)?;
                rep.rss_mib = num(f.next(), line)?;
                rep.attempted = num(f.next(), line)?;
                rep.failed = num(f.next(), line)?;
                rep.errors = num(f.next(), line)?;
                closed = true;
            }
            _ => println!("{line}"),
        }
    }
    if closed {
        Ok(rep)
    } else {
        Err("a repetition ended without its rep-total line".into())
    }
}

/// Runs `system` in repetition `rep` in a child process and collects its
/// figures.
fn spawn_rep(mix: &TrafficMix, seed: u64, rep: usize, system: SystemKind) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", mix.name])
        .args(["--seed", &seed.to_string()])
        .args(["--rep", &rep.to_string()])
        .args(["--system", key(system)])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("repetition {rep} did not start: {e}"))?;
    if !child.status.success() {
        return Err(format!("repetition {rep} exited with {}", child.status));
    }
    parse_rep(&String::from_utf8_lossy(&child.stdout))
}

/// One system's samples over a timed run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    rss_mib: Vec<f64>,
    host_us: Vec<f64>,
    /// Host seconds of this system's child processes, and of the last one.
    spent_s: f64,
    last_s: f64,
}

/// The parent side: runs the mix's systems in child processes for about
/// `seconds`, then reports the end-to-end metrics.
///
/// Every system runs in the first `MIN_REPS` rounds, once per sub-seed.
/// After that a system runs again while its children have used less than
/// its even share of `seconds` and the run as a whole has time left, so a
/// cheap system collects more host samples than a costly one. RaceHash
/// runs once and is only set up in later rounds.
pub fn timed_run(mix: &TrafficMix, seed: u64, seconds: f64, out: &mut Outcome) {
    let start = Instant::now();
    let share = seconds / mix.systems.len() as f64;
    let mut samples: BTreeMap<&str, Samples> = BTreeMap::new();
    // first[(system, k)]: the first run of system at sub-seed k.
    let mut first: BTreeMap<(&str, usize), SysRep> = BTreeMap::new();
    for round in 0..MAX_REPS {
        let mut ran = false;
        for &system in mix.systems {
            let k = key(system);
            let sys = samples.entry(k).or_default();
            if round >= MIN_REPS
                && (system == SystemKind::RaceHash
                    || sys.spent_s + sys.last_s > share
                    || start.elapsed().as_secs_f64() + sys.last_s > seconds)
            {
                continue;
            }
            let child_start = Instant::now();
            let rep = match spawn_rep(mix, seed, round, system) {
                Ok(r) => r,
                Err(e) => {
                    out.errors.push(e);
                    return;
                }
            };
            sys.last_s = child_start.elapsed().as_secs_f64();
            sys.spent_s += sys.last_s;
            ran = true;
            out.attempted += rep.attempted;
            out.failed += rep.failed;
            if rep.errors > 0 {
                out.errors.push(format!(
                    "{}: repetition {round}: {} gate failures (reported above)",
                    system.name(),
                    rep.errors
                ));
            }
            sys.setup_s.push(rep.setup_s);
            sys.rss_mib.push(rep.rss_mib);
            let Some(s) = rep.run else { continue };
            sys.host_us.push(s.host_us);
            match first.get(&(k, round % SUB_SEEDS)) {
                None => {
                    first.insert((k, round % SUB_SEEDS), s);
                }
                Some(f) if f.digest != s.digest => out.errors.push(format!(
                    "{}: repetition {round} is not byte-identical to its sub-seed's first",
                    system.name()
                )),
                Some(_) => {}
            }
        }
        if !ran {
            break;
        }
    }
    println!(
        "timed {} in {:.2} s",
        mix.name,
        start.elapsed().as_secs_f64()
    );
    for (k, sys) in &samples {
        println!(
            "timed {k}: {} children in {:.2} s; set-up s {:.3?}; peak RSS MiB {:.1?}; host us/op {:.3?}",
            sys.setup_s.len(),
            sys.spent_s,
            sys.setup_s,
            sys.rss_mib,
            sys.host_us
        );
    }

    oracle_cell(mix, &(mix.config)(seed), out);

    // Set-up time of the whole mix, and the largest process of it.
    let setup_s = samples.values_mut().map(|s| median(&mut s.setup_s)).sum();
    let rss_mib = samples
        .values_mut()
        .map(|s| median(&mut s.rss_mib))
        .fold(0.0, f64::max);
    out.metrics.push(("setup_s".into(), setup_s, "s"));
    out.metrics.push(("peak_rss_mib".into(), rss_mib, "MiB"));
    for &system in mix.systems {
        let k = key(system);
        let runs: Vec<&SysRep> = first
            .iter()
            .filter(|((name, _), _)| *name == k)
            .map(|(_, s)| s)
            .collect();
        let sim =
            |f: fn(&SysRep) -> f64| median(&mut runs.iter().map(|s| f(s)).collect::<Vec<_>>());
        let host_us = median(&mut samples.get_mut(k).expect("every system ran").host_us);
        println!(
            "metric {k}.sim_ops {} ops",
            runs.iter().map(|s| s.ops).sum::<u64>()
        );
        // Reported, not gated: on a shared VM the median host time of a
        // run moves by up to a third between runs of the same code, more
        // than any bound allows (NOTES.md, "Host-time noise"). The traced
        // run reports it as a per-layer metric.
        println!("metric {k}.host_us_per_op {host_us} us");
        if system == SystemKind::RaceHash {
            // Reported, not gated: RaceHash runs on one mix only.
            println!("metric {k}.sim_mops {} Mops", sim(|s| s.mops));
            continue;
        }
        // Percentiles are reported, not gated: across seeds they spread far
        // beyond any bound (the seed-spread record in NOTES.md).
        println!("metric {k}.sim_p50_us {} us", sim(|s| s.p50_us));
        println!("metric {k}.sim_p99_us {} us", sim(|s| s.p99_us));
        out.metrics
            .push((format!("{k}.sim_mops"), sim(|s| s.mops), "Mops"));
        out.metrics
            .push((format!("{k}.sim_mean_us"), sim(|s| s.mean_us), "us"));
    }
}
