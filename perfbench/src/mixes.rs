//! The benchmark's three traffic mixes.
//!
//! Every mix is a closed loop in simulated time: 48 clients × 16 pipelined
//! requests (768 outstanding; RaceHash runs 768 sequential verb clients
//! instead). μTPS runs untuned at the fixed `--quick` split (tuner off,
//! `n_cr` 6 of 16 workers), so a seed fixes every simulated statistic.

use utps_bench::{base_config, Scale};
use utps_core::experiment::{RunConfig, SystemKind, WorkloadSpec};
use utps_core::tier::TierConfig;
use utps_index::IndexKind;
use utps_sim::time::{MICROS, MILLIS};
use utps_workload::Mix;

/// One named traffic mix.
pub struct TrafficMix {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Systems run on it, in report order.
    pub systems: &'static [SystemKind],
    /// Builds the run configuration for a seed.
    pub config: fn(u64) -> RunConfig,
}

/// All mixes, in report order.
pub const MIXES: [TrafficMix; 3] = [
    TrafficMix {
        name: "hot-read",
        systems: &[SystemKind::Utps, SystemKind::BaseKv, SystemKind::RaceHash],
        config: hot_read,
    },
    TrafficMix {
        name: "uniform-rw",
        systems: &[SystemKind::Utps, SystemKind::BaseKv],
        config: uniform_rw,
    },
    TrafficMix {
        name: "durable-rw",
        systems: &[SystemKind::Utps, SystemKind::BaseKv],
        config: durable_rw,
    },
];

/// The mix named `name`.
pub fn find(name: &str) -> Option<&'static TrafficMix> {
    MIXES.iter().find(|m| m.name == name)
}

/// The shared closed loop with a 1 ms throughput timeline.
fn base(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        timeline_interval: MILLIS,
        ..base_config(Scale::Quick)
    }
}

/// Cuckoo hash, YCSB-B, zipf 0.99, 64 B, 800k keys, hot cache on: the
/// paper's headline traffic. The CR hit path does most of the work.
fn hot_read(seed: u64) -> RunConfig {
    RunConfig {
        index: IndexKind::Hash,
        cache_enabled: true,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::B,
            theta: 0.99,
            value_len: 64,
            scan_len: 50,
        },
        ..base(seed)
    }
}

/// Tree, YCSB-A, uniform keys, 256 B, 800k keys, hot cache off: every op
/// is forwarded CR→MR, so the index walk and the cache model's DRAM misses
/// do the work.
fn uniform_rw(seed: u64) -> RunConfig {
    RunConfig {
        index: IndexKind::Tree,
        cache_enabled: false,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.0,
            value_len: 256,
            scan_len: 50,
        },
        ..base(seed)
    }
}

/// Keys of the durable mix: the DRAM cap sits at this count, so the tier
/// never evicts.
const DURABLE_KEYS: u64 = 200_000;

/// Tree, YCSB-A, zipf 0.99, 64 B, 200k keys, durable tier on: the WAL's
/// group commit on the simulated device and the durability barrier.
fn durable_rw(seed: u64) -> RunConfig {
    RunConfig {
        index: IndexKind::Tree,
        keys: DURABLE_KEYS,
        cache_enabled: true,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 50,
        },
        tier: Some(TierConfig {
            dram_items_max: DURABLE_KEYS as usize,
            compact_every_ps: 100 * MICROS,
            ..TierConfig::default()
        }),
        ..base(seed)
    }
}

/// The oracle-checked cell of a mix: the same traffic from a narrower
/// closed loop (32 outstanding) over a short run, so that no key's history
/// outgrows the checker's search budget.
pub fn oracle_cell(cfg: &RunConfig) -> RunConfig {
    RunConfig {
        clients: 8,
        pipeline: 4,
        warmup: 200 * MICROS,
        duration: 800 * MICROS,
        record_history: true,
        ..cfg.clone()
    }
}
