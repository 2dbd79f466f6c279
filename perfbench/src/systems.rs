//! Runs one system on one workload configuration, timing set-up, run and
//! extraction on the host.
//!
//! Untraced runs build the world and spawn processes through the library's
//! own functions, in the order its runners use. Traced runs spawn the same
//! processes in the same order from here, each wrapped by the [`Tracer`], so
//! process ids, tie-breaks and every simulated statistic stay identical.

use std::time::Instant;

use utps_baselines::basekv::{
    build_base_world, spawn_base_procs, BaseCompactor, BaseWorker, BaseWorld,
};
use utps_baselines::passive::{PassiveClient, PassiveProtocol, PassiveWorld, VerbEngine};
use utps_core::client::{ClientProc, DriverState, KvWorld, SamplerProc};
use utps_core::experiment::{
    build_utps_world, extract_result, reset_utps_counters, spawn_utps_procs, stats_json, RunConfig,
    RunResult, SystemKind,
};
use utps_core::server::{UtpsWorker, UtpsWorld};
use utps_core::stage::{PipelineRuntime, StageProc};
use utps_core::store::KvStore;
use utps_core::tier::{TierCompactorProc, TierRunStats};
use utps_core::tuner::{ManagerProc, Tuner};
use utps_oracle::History;
use utps_sim::metrics::ClassCounters;
use utps_sim::time::{SimTime, MICROS};
use utps_sim::{Engine, Fabric, StatClass};

use crate::trace::Tracer;

/// Everything one system run yields.
pub struct SysRun {
    /// The library's result for the run.
    pub result: RunResult,
    /// `stats_json` of the result.
    pub stats: String,
    /// Host seconds building the world (store population included).
    pub populate_s: f64,
    /// Host seconds building the runtime, client streams and processes.
    pub clients_s: f64,
    /// Host seconds of the warmup window.
    pub warmup_s: f64,
    /// Host seconds of the measured window.
    pub measure_s: f64,
    /// Host seconds of result extraction and `stats_json`.
    pub extract_s: f64,
    /// Cache-model access counters of the measured window, all classes.
    pub cache: ClassCounters,
    /// Recorded op history, when the config asked for one.
    pub history: Option<History>,
}

impl SysRun {
    /// Host seconds of set-up: world plus client streams.
    pub fn setup_s(&self) -> f64 {
        self.populate_s + self.clients_s
    }

    /// Host seconds of both simulated windows.
    pub fn run_s(&self) -> f64 {
        self.warmup_s + self.measure_s
    }

    /// Host µs per simulated op over the whole simulated run: both windows'
    /// host time over every op completed in them. Sampling the warmup too
    /// gives the figure 2.5× more host time to average over.
    pub fn host_us_per_op(&self) -> f64 {
        self.run_s() * 1e6 / self.result.completed_total.max(1) as f64
    }
}

/// Runs `f`, as a phase span when tracing, and returns its host seconds.
fn timed<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tr.map(|t| t.begin_phase(name));
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tr, span) {
        t.end_phase(id);
    }
    (out, secs)
}

/// Runs `system` under `cfg`, traced when `tr` is given.
pub fn run(system: SystemKind, cfg: &RunConfig, tr: Option<&Tracer>) -> SysRun {
    match system {
        SystemKind::Utps => run_utps(cfg, tr),
        SystemKind::BaseKv => run_basekv(cfg, tr),
        SystemKind::RaceHash => run_racehash(cfg, tr),
        other => panic!("{} is not part of this benchmark", other.name()),
    }
}

/// The shared tail of every runner: run, extract, collect.
fn finish<W: 'static>(
    mut rt: PipelineRuntime<W>,
    (populate_s, clients_s): (f64, f64),
    tr: Option<&Tracer>,
    reset: impl FnOnce(&mut Engine<W>),
    extract: impl FnOnce(&mut Engine<W>) -> RunResult,
    driver: impl Fn(&mut W) -> &mut DriverState,
) -> SysRun {
    // The warmup-boundary reset splits the run into its two windows.
    let span = tr.map(|t| t.begin_phase("warmup"));
    let start = Instant::now();
    let mut measure_start = start;
    let mut measure_span = None;
    rt.run(|eng| {
        measure_start = Instant::now();
        if let (Some(t), Some(id)) = (tr, span) {
            t.end_phase(id);
            measure_span = Some(t.begin_phase("measure"));
        }
        reset(eng);
    });
    let measure_s = measure_start.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tr, measure_span) {
        t.end_phase(id);
    }
    let warmup_s = measure_start.duration_since(start).as_secs_f64();
    let mut eng = rt.into_engine();
    let ((result, stats), extract_s) = timed(tr, "extract", || {
        let r = extract(&mut eng);
        let s = stats_json(&r);
        (r, s)
    });
    let cache = eng.machine().cache.metrics.combined();
    let history = driver(&mut eng.world).history.take();
    SysRun {
        result,
        stats,
        populate_s,
        clients_s,
        warmup_s,
        measure_s,
        extract_s,
        cache,
        history,
    }
}

/// Spawns the closed-loop client fleet and the timeline sampler, as
/// `PipelineRuntime::spawn_clients` does, with each piece wrapped.
fn spawn_traced_clients<W: KvWorld + 'static>(
    rt: &mut PipelineRuntime<W>,
    cfg: &RunConfig,
    tr: &Tracer,
) {
    if cfg.record_history || cfg.oracle {
        rt.engine().world.driver_mut().enable_history();
    }
    for c in 0..cfg.clients {
        let wl = tr.wrap_workload(cfg.workload.build(cfg.keys, cfg.seed, c as u64));
        let client = ClientProc::with_retry(c as u32, wl, cfg.pipeline, cfg.retry.clone());
        rt.spawn_process(None, StatClass::Other, tr.wrap("client", Box::new(client)));
    }
    if cfg.timeline_interval > 0 {
        let sampler = SamplerProc::new(cfg.timeline_interval);
        rt.spawn_process(
            None,
            StatClass::Other,
            tr.wrap("sampler", Box::new(sampler)),
        );
    }
}

fn run_utps(cfg: &RunConfig, tr: Option<&Tracer>) -> SysRun {
    let (world, populate_s) = timed(tr, "setup.populate", || build_utps_world(cfg));
    let (rt, clients_s) = timed(tr, "setup.clients", || {
        // Cores: one per worker plus one for the manager.
        let mut rt = PipelineRuntime::new(cfg, cfg.workers + 1, world);
        match tr {
            None => {
                spawn_utps_procs(&mut rt, cfg);
                rt.spawn_clients(cfg);
            }
            Some(t) => {
                spawn_traced_utps_procs(&mut rt, cfg, t);
                spawn_traced_clients(&mut rt, cfg, t);
            }
        }
        rt
    });
    finish(
        rt,
        (populate_s, clients_s),
        tr,
        reset_utps_counters,
        |eng| extract_result(cfg, eng),
        |w: &mut UtpsWorld| &mut w.driver,
    )
}

/// `experiment::spawn_utps_procs` with each process wrapped. Only the
/// untuned fixed split is supported: static CLOS masks (`mr_ways > 0`) are
/// not part of any workload.
fn spawn_traced_utps_procs(rt: &mut PipelineRuntime<UtpsWorld>, cfg: &RunConfig, tr: &Tracer) {
    assert_eq!(cfg.mr_ways, 0, "traced runs do not set static CLOS masks");
    let server_cfg = rt.engine().world.cfg.clone();
    for id in 0..cfg.workers {
        let (class, layer) = if id < cfg.n_cr {
            (StatClass::Cr, "cr")
        } else {
            (StatClass::Mr, "mr")
        };
        let worker = UtpsWorker::new(id, &server_cfg);
        rt.spawn_process(Some(id), class, tr.wrap(layer, Box::new(worker)));
    }
    let mut params = cfg.tuner_params.clone();
    params.cache_max = cfg.hot_capacity;
    let tuner = Tuner::new(cfg.tuner, params);
    let refresh = (cfg.warmup / 2).max(500 * MICROS);
    let manager = ManagerProc::new(tuner, refresh, cfg.hot_capacity);
    rt.spawn_process(
        Some(cfg.workers),
        StatClass::Other,
        tr.wrap("manager", Box::new(manager)),
    );
    if let Some(tc) = &cfg.tier {
        let compactor = TierCompactorProc::new(cfg.keys, SimTime(tc.compact_every_ps));
        rt.spawn_process(
            Some(cfg.workers),
            StatClass::Other,
            tr.wrap("tier.compactor", Box::new(compactor)),
        );
    }
}

fn run_basekv(cfg: &RunConfig, tr: Option<&Tracer>) -> SysRun {
    let (world, populate_s) = timed(tr, "setup.populate", || build_base_world(cfg));
    let (rt, clients_s) = timed(tr, "setup.clients", || {
        // One core per worker, plus one for the compactor when the tier is on.
        let cores = cfg.workers + usize::from(cfg.tier.is_some());
        let mut rt = PipelineRuntime::new(cfg, cores, world);
        match tr {
            None => {
                spawn_base_procs(&mut rt, cfg, false);
                rt.spawn_clients(cfg);
            }
            Some(t) => {
                for id in 0..cfg.workers {
                    let worker = StageProc::new(BaseWorker::new(id, cfg.batch));
                    rt.spawn_process(
                        Some(id),
                        StatClass::Other,
                        t.wrap("basekv.worker", Box::new(worker)),
                    );
                }
                if let Some(tc) = &cfg.tier {
                    let compactor =
                        StageProc::new(BaseCompactor::new(cfg.keys, SimTime(tc.compact_every_ps)));
                    rt.spawn_process(
                        Some(cfg.workers),
                        StatClass::Other,
                        t.wrap("tier.compactor", Box::new(compactor)),
                    );
                }
                spawn_traced_clients(&mut rt, cfg, t);
            }
        }
        rt
    });
    finish(
        rt,
        (populate_s, clients_s),
        tr,
        |eng| {
            if let Some(t) = eng.world.tier.as_mut() {
                t.stats = Default::default();
                t.device.stats = Default::default();
            }
        },
        |eng| basekv_result(cfg, eng),
        |w: &mut BaseWorld| &mut w.driver,
    )
}

/// The result assembly of `basekv::run_basekv_with_world`.
fn basekv_result(cfg: &RunConfig, eng: &mut Engine<BaseWorld>) -> RunResult {
    let tier_folds: Option<[(&'static str, u64); 11]> = eng.world.tier.as_ref().map(|t| {
        [
            ("wal.records", t.stats.wal_records),
            ("wal.groups", t.stats.wal_groups),
            ("wal.bytes", t.stats.wal_bytes),
            ("device.reads", t.device.stats.reads),
            ("device.writes", t.device.stats.writes),
            ("tier.cold_hit", t.stats.cold_hits),
            ("tier.cold_miss", t.stats.cold_misses),
            ("tier.compactions", t.stats.compactions),
            ("tier.evicted", t.stats.evicted),
            ("tier.run_items", t.run_items()),
            ("tier.tombstones", t.tombstone_count()),
        ]
    });
    if let Some(tf) = tier_folds {
        let reg = &mut eng.machine().registry;
        for (name, v) in tf {
            reg.counter_add(name, v);
        }
    }
    let mut r = utps_baselines::run::result_from_driver(cfg, eng, |w: &BaseWorld| &w.driver);
    r.tier = eng.world.tier.as_ref().map(TierRunStats::from_tier);
    r
}

/// Host seconds to set up RaceHash under `cfg` (world and verb clients),
/// without running it.
pub fn racehash_setup_s(cfg: &RunConfig) -> f64 {
    let (_rt, populate_s, clients_s) = racehash_setup(cfg, None);
    populate_s + clients_s
}

fn racehash_setup(
    cfg: &RunConfig,
    tr: Option<&Tracer>,
) -> (PipelineRuntime<PassiveWorld>, f64, f64) {
    // Passive clients cannot pipeline the verbs of one op: the closed loop
    // is clients × pipeline sequential clients.
    let nclients = cfg.clients * cfg.pipeline;
    let (world, populate_s) = timed(tr, "setup.populate", || PassiveWorld {
        fabric: Fabric::new(cfg.machine.net.clone(), nclients),
        store: KvStore::populate(cfg.index, cfg.keys, cfg.workload.populate_value_len()),
        driver: DriverState::new(nclients, SimTime(cfg.warmup)),
    });
    let (rt, clients_s) = timed(tr, "setup.clients", || {
        let mut rt = PipelineRuntime::new(cfg, 1, world);
        let verbs: Box<dyn utps_sim::Process<PassiveWorld>> = Box::new(VerbEngine);
        let verbs = match tr {
            Some(t) => t.wrap("racehash.verb_engine", verbs),
            None => verbs,
        };
        rt.spawn_process(None, StatClass::Other, verbs);
        for c in 0..nclients {
            let wl = cfg.workload.build(cfg.keys, cfg.seed, c as u64);
            let client: Box<dyn utps_sim::Process<PassiveWorld>> = match tr {
                Some(t) => t.wrap(
                    "racehash.client",
                    Box::new(PassiveClient::new(
                        c as u32,
                        PassiveProtocol::RaceHash,
                        t.wrap_workload(wl),
                    )),
                ),
                None => Box::new(PassiveClient::new(c as u32, PassiveProtocol::RaceHash, wl)),
            };
            rt.spawn_process(None, StatClass::Other, client);
        }
        rt
    });
    (rt, populate_s, clients_s)
}

fn run_racehash(cfg: &RunConfig, tr: Option<&Tracer>) -> SysRun {
    let (rt, populate_s, clients_s) = racehash_setup(cfg, tr);
    finish(
        rt,
        (populate_s, clients_s),
        tr,
        |_| {},
        |eng| utps_baselines::run::result_from_driver(cfg, eng, |w: &PassiveWorld| &w.driver),
        |w: &mut PassiveWorld| &mut w.driver,
    )
}
