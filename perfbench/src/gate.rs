//! The correctness gate every run must pass.

use std::time::Instant;

use utps_core::experiment::{RunConfig, RunResult, SystemKind};
use utps_oracle::{check, fill_digest, History, InitialState};

/// Checks one system run's counters; returns what is wrong, if anything.
///
/// * ledger: `issued == completed_total + failed + in-flight`, with the
///   in-flight count between 0 and the closed loop's window;
/// * no `not_found`: no mix deletes, and every key is populated;
/// * no `failed`: no mix sets a fault plan;
/// * the measured window completed work.
pub fn check_run(system: SystemKind, cfg: &RunConfig, r: &RunResult) -> Vec<String> {
    let mut errs = Vec::new();
    let window = (cfg.clients * cfg.pipeline) as u64;
    if system == SystemKind::RaceHash {
        // Passive verb clients count completions only (one op in flight
        // each, no retries): the ledger reduces to the window's bound.
        if r.completed > r.completed_total || r.issued != 0 || r.failed != 0 {
            errs.push(format!(
                "{}: ledger: completed {} of {} total, {} issued, {} failed",
                system.name(),
                r.completed,
                r.completed_total,
                r.issued,
                r.failed
            ));
        }
    } else {
        match r.issued.checked_sub(r.completed_total + r.failed) {
            None => errs.push(format!(
                "{}: ledger: issued {} < completed {} + failed {}",
                system.name(),
                r.issued,
                r.completed_total,
                r.failed
            )),
            Some(in_flight) if in_flight > window => errs.push(format!(
                "{}: ledger: {in_flight} in flight exceeds the {window}-request window",
                system.name()
            )),
            Some(_) => {}
        }
    }
    if r.not_found != 0 {
        errs.push(format!(
            "{}: {} ops found no key",
            system.name(),
            r.not_found
        ));
    }
    if r.failed != 0 {
        errs.push(format!(
            "{}: {} ops failed without a fault plan",
            system.name(),
            r.failed
        ));
    }
    if r.completed == 0 {
        errs.push(format!(
            "{}: the measured window completed nothing",
            system.name()
        ));
    }
    errs
}

/// The linearizability check of one recorded history.
pub struct OracleVerdict {
    /// Point operations checked.
    pub point_ops: usize,
    /// Keys whose search ran out of budget (inconclusive, not violations).
    pub budget_exceeded: usize,
    /// Real violations.
    pub violations: Vec<String>,
    /// Host seconds the check took.
    pub host_s: f64,
}

/// Checks `history` against the sequential model seeded with the run's
/// initial population, as `experiment::oracle_results` does.
pub fn check_history(cfg: &RunConfig, history: &History) -> OracleVerdict {
    let init = InitialState {
        keys: cfg.keys,
        value_digest: fill_digest(0xab, cfg.workload.populate_value_len()),
    };
    let start = Instant::now();
    let report = check(history, &init);
    let host_s = start.elapsed().as_secs_f64();
    let (budget, real): (Vec<_>, Vec<_>) = report
        .violations
        .iter()
        .partition(|v| v.detail.contains("search budget exceeded"));
    OracleVerdict {
        point_ops: report.point_ops,
        budget_exceeded: budget.len(),
        violations: real
            .iter()
            .map(|v| format!("key {:?}: {}", v.key, v.detail))
            .collect(),
        host_s,
    }
}
