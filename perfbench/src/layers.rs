//! Per-layer metrics of the traced run.
//!
//! Every mix reports the whole list; a layer the mix does not exercise
//! (RaceHash off the hash mix, the WAL off the durable mix) reads 0.
//! Simulated counts come from the untraced run; host times come from the
//! traced run's wrappers.

use utps_core::experiment::SystemKind;

use crate::systems::SysRun;
use crate::trace::{layer, LayerTally, Tracer};

/// Metrics every system reports, prefixed `<sys>.`.
const PER_SYSTEM: [(&str, &str); 12] = [
    ("host_us_per_op", "us"),
    ("engine.steps_per_op", "steps/op"),
    ("engine.burst_frac", "ratio"),
    ("engine.cascades_per_kstep", "count"),
    ("engine.self_ns_per_step", "ns"),
    ("cache.accesses_per_op", "accesses/op"),
    ("cache.dram_per_op", "accesses/op"),
    ("workload.host_ns_per_draw", "ns"),
    ("setup.populate_s", "s"),
    ("setup.clients_s", "s"),
    ("extract.host_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Metrics of the request/response systems, prefixed `<sys>.`.
const PER_SERVER: [(&str, &str); 5] = [
    ("client.host_ns_per_op", "ns"),
    ("wal.records_per_group", "records/group"),
    ("wal.bytes_per_op", "B/op"),
    ("device.writes_per_op", "writes/op"),
    ("device.reads", "count"),
];

/// Metrics of one system's own layers.
const OWN: [(&str, &str); 24] = [
    ("cache.llc_miss.cr", "ratio"),
    ("cache.llc_miss.mr", "ratio"),
    ("ring.poll_hit_ratio", "ratio"),
    ("ring.dma_per_op", "dma/op"),
    ("cr.host_ns_per_step", "ns"),
    ("cr.idle_step_frac", "ratio"),
    ("cr.hot_hit_ratio", "ratio"),
    ("cr.local_frac", "ratio"),
    ("cr.hit_path_ns.p50", "ns"),
    ("crmr.pushed_per_op", "pushes/op"),
    ("crmr.lane_hwm", "count"),
    ("mr.host_ns_per_step", "ns"),
    ("mr.idle_step_frac", "ratio"),
    ("mr.batch_size.mean", "count"),
    ("mr.interleave_depth.mean", "count"),
    ("mr.traversal_ns.p99", "ns"),
    ("manager.host_ms", "ms"),
    ("manager.steps", "count"),
    ("basekv.worker_host_ns_per_step", "ns"),
    ("basekv.idle_step_frac", "ratio"),
    ("racehash.client_idle_frac", "ratio"),
    ("racehash.client_host_s", "s"),
    ("racehash.verb_engine_steps", "count"),
    ("racehash.sim_mops", "Mops"),
];

/// The oracle cell's metrics.
const ORACLE: [(&str, &str); 3] = [
    ("oracle.host_s", "s"),
    ("oracle.point_ops", "count"),
    ("oracle.budget_exceeded", "count"),
];

/// Systems with a per-system block, in report order.
const SYSTEMS: [SystemKind; 3] = [SystemKind::Utps, SystemKind::BaseKv, SystemKind::RaceHash];

/// The metric-name prefix of a system.
pub fn key(system: SystemKind) -> &'static str {
    match system {
        SystemKind::Utps => "utps",
        SystemKind::BaseKv => "basekv",
        SystemKind::RaceHash => "racehash",
        SystemKind::ErpcKv => "erpckv",
        SystemKind::Sherman => "sherman",
    }
}

/// The full per-layer metric list: `(name, unit)`, in report order.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for sys in SYSTEMS {
        for (name, unit) in PER_SYSTEM {
            out.push((format!("{}.{name}", key(sys)), unit));
        }
        if sys != SystemKind::RaceHash {
            for (name, unit) in PER_SERVER {
                out.push((format!("{}.{name}", key(sys)), unit));
            }
        }
    }
    for (name, unit) in OWN.into_iter().chain(ORACLE) {
        out.push((name.to_string(), unit));
    }
    out
}

/// Per-layer values, filled in by system.
pub struct LayerMetrics {
    values: Vec<(String, &'static str, f64)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl LayerMetrics {
    /// Every catalogue metric at 0.
    pub fn new() -> Self {
        LayerMetrics {
            values: catalogue().into_iter().map(|(n, u)| (n, u, 0.0)).collect(),
        }
    }

    fn set(&mut self, name: &str, v: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"));
        slot.2 = v;
    }

    /// The values, in catalogue order.
    pub fn values(&self) -> &[(String, &'static str, f64)] {
        &self.values
    }

    /// Fills `system`'s metrics from its untraced run `plain` and its
    /// traced run `traced`, recorded by `tr`.
    pub fn add_system(&mut self, system: SystemKind, plain: &SysRun, traced: &SysRun, tr: &Tracer) {
        let p = key(system);
        let r = &plain.result;
        let ops = r.completed as f64;
        let all_ops = r.completed_total as f64;
        let steps = r.engine_steps as f64;
        let tallies = tr.tallies();
        let stepped_ns: u64 = tallies.iter().map(|t| t.ns).sum();
        let engine_ns = (traced.run_s() * 1e9 - stepped_ns as f64).max(0.0);
        let (draws, draw_ns) = tr.draw_tally();
        let per_step = |t: &LayerTally| ratio(t.ns as f64, t.steps as f64);
        let idle_frac = |t: &LayerTally| ratio(t.idle as f64, t.steps as f64);

        self.set(&format!("{p}.host_us_per_op"), plain.host_us_per_op());
        self.set(&format!("{p}.engine.steps_per_op"), ratio(steps, all_ops));
        self.set(
            &format!("{p}.engine.burst_frac"),
            ratio(r.engine_bursts as f64, steps),
        );
        self.set(
            &format!("{p}.engine.cascades_per_kstep"),
            ratio(r.engine_wheel_cascades as f64 * 1e3, steps),
        );
        self.set(
            &format!("{p}.engine.self_ns_per_step"),
            ratio(engine_ns, steps),
        );
        self.set(
            &format!("{p}.cache.accesses_per_op"),
            ratio(plain.cache.total() as f64, ops),
        );
        self.set(
            &format!("{p}.cache.dram_per_op"),
            ratio(plain.cache.dram as f64, ops),
        );
        self.set(
            &format!("{p}.workload.host_ns_per_draw"),
            ratio(draw_ns as f64, draws as f64),
        );
        self.set(&format!("{p}.setup.populate_s"), plain.populate_s);
        self.set(&format!("{p}.setup.clients_s"), plain.clients_s);
        self.set(&format!("{p}.extract.host_ms"), plain.extract_s * 1e3);
        self.set(
            &format!("{p}.trace.overhead"),
            ratio(traced.run_s(), plain.run_s()),
        );

        if system != SystemKind::RaceHash {
            let client = &tallies[layer("client")];
            self.set(
                &format!("{p}.client.host_ns_per_op"),
                ratio(client.ns as f64, all_ops),
            );
            if let Some(t) = &r.tier {
                self.set(
                    &format!("{p}.wal.records_per_group"),
                    ratio(t.wal_records as f64, t.wal_groups as f64),
                );
                self.set(
                    &format!("{p}.wal.bytes_per_op"),
                    ratio(t.wal_bytes as f64, ops),
                );
                self.set(
                    &format!("{p}.device.writes_per_op"),
                    ratio(t.device_writes as f64, ops),
                );
                self.set(&format!("{p}.device.reads"), t.device_reads as f64);
            }
        }

        match system {
            SystemKind::Utps => self.add_utps(plain, &tallies),
            SystemKind::BaseKv => {
                let w = &tallies[layer("basekv.worker")];
                self.set("basekv.worker_host_ns_per_step", per_step(w));
                self.set("basekv.idle_step_frac", idle_frac(w));
            }
            SystemKind::RaceHash => {
                let c = &tallies[layer("racehash.client")];
                self.set("racehash.client_idle_frac", idle_frac(c));
                self.set("racehash.client_host_s", c.ns as f64 / 1e9);
                self.set(
                    "racehash.verb_engine_steps",
                    tallies[layer("racehash.verb_engine")].steps as f64,
                );
                self.set("racehash.sim_mops", r.mops);
            }
            _ => {}
        }
    }

    fn add_utps(&mut self, plain: &SysRun, tallies: &[LayerTally]) {
        let r = &plain.result;
        let ops = r.completed as f64;
        let snap = r
            .stage_metrics
            .as_ref()
            .expect("μTPS runs carry a metrics snapshot");
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        self.set("cache.llc_miss.cr", r.llc_miss_cr);
        self.set("cache.llc_miss.mr", r.llc_miss_mr);
        self.set(
            "ring.poll_hit_ratio",
            ratio(counter("ring.poll_hits"), counter("ring.polls")),
        );
        self.set("ring.dma_per_op", ratio(counter("ring.dma"), ops));
        let cr = &tallies[layer("cr")];
        let mr = &tallies[layer("mr")];
        self.set("cr.host_ns_per_step", ratio(cr.ns as f64, cr.steps as f64));
        self.set("cr.idle_step_frac", ratio(cr.idle as f64, cr.steps as f64));
        self.set(
            "cr.hot_hit_ratio",
            ratio(
                counter("hot.hits"),
                counter("hot.hits") + counter("hot.misses"),
            ),
        );
        self.set("cr.local_frac", r.cr_local_frac);
        if let Some(h) = snap.hist("cr.hit_path_ns") {
            self.set("cr.hit_path_ns.p50", h.p50 as f64);
        }
        self.set("crmr.pushed_per_op", ratio(counter("crmr.pushed"), ops));
        self.set(
            "crmr.lane_hwm",
            snap.gauge("crmr.lane_hwm").unwrap_or(0) as f64,
        );
        self.set("mr.host_ns_per_step", ratio(mr.ns as f64, mr.steps as f64));
        self.set("mr.idle_step_frac", ratio(mr.idle as f64, mr.steps as f64));
        if let Some(h) = snap.hist("mr.batch_size") {
            self.set("mr.batch_size.mean", h.mean);
        }
        if let Some(h) = snap.hist("mr.interleave_depth") {
            self.set("mr.interleave_depth.mean", h.mean);
        }
        if let Some(h) = snap.hist("mr.traversal_ns") {
            self.set("mr.traversal_ns.p99", h.p99 as f64);
        }
        let m = &tallies[layer("manager")];
        self.set("manager.host_ms", m.ns as f64 / 1e6);
        self.set("manager.steps", m.steps as f64);
    }

    /// Fills the oracle cell's metrics.
    pub fn set_oracle(&mut self, host_s: f64, point_ops: usize, budget_exceeded: usize) {
        self.set("oracle.host_s", host_s);
        self.set("oracle.point_ops", point_ops as f64);
        self.set("oracle.budget_exceeded", budget_exceeded as f64);
    }
}
