//! The traced run's instruments: timing wrappers around the processes and
//! workload streams the benchmark spawns, and the spans they record.
//!
//! Every wrapper only delegates and reads the host clock, so the simulation
//! underneath stays byte-identical (the traced run checks that on each
//! system's `stats_json`). Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use utps_sim::{Ctx, Process, StepOutcome};
use utps_workload::{Op, Workload};

/// Host-time tally of one layer's processes.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTally {
    /// `step` calls.
    pub steps: u64,
    /// Steps that reported [`StepOutcome::Idle`].
    pub idle: u64,
    /// Host nanoseconds spent inside `step`.
    pub ns: u64,
}

/// One recorded span: a layer's step or a phase of the run, in host ns
/// since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (index into the tracer's span list).
    pub id: usize,
    /// The span that caused this one (`None` for a phase).
    pub parent: Option<usize>,
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, host ns since the tracer was created.
    pub start_ns: u64,
    /// End, host ns since the tracer was created.
    pub end_ns: u64,
    /// Whether the step found nothing to do.
    pub idle: bool,
}

/// Layers whose steps the tracer tells apart.
pub const LAYERS: [&str; 9] = [
    "cr",
    "mr",
    "manager",
    "tier.compactor",
    "client",
    "sampler",
    "basekv.worker",
    "racehash.client",
    "racehash.verb_engine",
];

/// About one step span in `1 << SPAN_SAMPLE_LOG2` is kept.
const SPAN_SAMPLE_LOG2: u32 = 12;

/// Index of `name` in [`LAYERS`].
pub fn layer(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == name)
        .expect("layer is listed in LAYERS")
}

struct State {
    epoch: Instant,
    tallies: [LayerTally; LAYERS.len()],
    spans: Vec<Span>,
    phase: Option<usize>,
    sample_state: u64,
    sample_mask: u64,
}

/// Shared recorder for one traced system run.
pub struct Tracer {
    state: Rc<RefCell<State>>,
    draws: Arc<DrawTally>,
}

/// Host-time tally of workload draws (shared with `Send` workload wrappers).
#[derive(Debug, Default)]
pub struct DrawTally {
    draws: AtomicU64,
    ns: AtomicU64,
}

impl Tracer {
    /// A tracer that keeps a sample of step spans chosen by a stream
    /// seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Tracer {
            state: Rc::new(RefCell::new(State {
                epoch: Instant::now(),
                tallies: [LayerTally::default(); LAYERS.len()],
                spans: Vec::new(),
                phase: None,
                sample_state: seed ^ 0x5eed_5a3b_1e57_ace5,
                sample_mask: (1u64 << SPAN_SAMPLE_LOG2) - 1,
            })),
            draws: Arc::new(DrawTally::default()),
        }
    }

    /// Wraps a process so its steps are timed under `layer_name`.
    pub fn wrap<W: 'static>(
        &self,
        layer_name: &str,
        inner: Box<dyn Process<W>>,
    ) -> Box<dyn Process<W>> {
        Box::new(TimedProc {
            inner,
            layer: layer(layer_name),
            state: Rc::clone(&self.state),
        })
    }

    /// Wraps a workload stream so each draw is timed.
    pub fn wrap_workload(&self, inner: Box<dyn Workload + Send>) -> Box<dyn Workload + Send> {
        Box::new(TimedWorkload {
            inner,
            tally: Arc::clone(&self.draws),
        })
    }

    /// Opens the named phase span; steps sampled until [`Tracer::end_phase`]
    /// are its children.
    pub fn begin_phase(&self, name: &'static str) -> usize {
        let mut s = self.state.borrow_mut();
        let id = s.spans.len();
        let start_ns = ns_since(s.epoch, Instant::now());
        s.spans.push(Span {
            id,
            parent: None,
            name,
            start_ns,
            end_ns: start_ns,
            idle: false,
        });
        s.phase = Some(id);
        id
    }

    /// Closes phase span `id`.
    pub fn end_phase(&self, id: usize) {
        let mut s = self.state.borrow_mut();
        s.spans[id].end_ns = ns_since(s.epoch, Instant::now());
        s.phase = None;
    }

    /// Per-layer step tallies so far.
    pub fn tallies(&self) -> [LayerTally; LAYERS.len()] {
        self.state.borrow().tallies
    }

    /// Workload draws and their host ns so far.
    pub fn draw_tally(&self) -> (u64, u64) {
        (
            self.draws.draws.load(Ordering::Relaxed),
            self.draws.ns.load(Ordering::Relaxed),
        )
    }

    /// The recorded spans (phases and sampled steps), in record order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// splitmix64 step: the span sampler's seeded stream.
fn next_sample(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A process that delegates to `inner` and times each step.
struct TimedProc<W> {
    inner: Box<dyn Process<W>>,
    layer: usize,
    state: Rc<RefCell<State>>,
}

impl<W> Process<W> for TimedProc<W> {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome {
        let start = Instant::now();
        let outcome = self.inner.step(ctx, world);
        let end = Instant::now();
        let ns = ns_since(start, end);
        let idle = outcome == StepOutcome::Idle;
        let mut s = self.state.borrow_mut();
        let tally = &mut s.tallies[self.layer];
        tally.steps += 1;
        tally.ns += ns;
        tally.idle += u64::from(idle);
        if next_sample(&mut s.sample_state) & s.sample_mask == 0 {
            let id = s.spans.len();
            let parent = s.phase;
            let start_ns = ns_since(s.epoch, start);
            s.spans.push(Span {
                id,
                parent,
                name: LAYERS[self.layer],
                start_ns,
                end_ns: start_ns + ns,
                idle,
            });
        }
        outcome
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A workload stream that delegates to `inner` and times each draw.
struct TimedWorkload {
    inner: Box<dyn Workload + Send>,
    tally: Arc<DrawTally>,
}

impl Workload for TimedWorkload {
    fn next_op(&mut self) -> Op {
        let start = Instant::now();
        let op = self.inner.next_op();
        let ns = ns_since(start, Instant::now());
        self.tally.draws.fetch_add(1, Ordering::Relaxed);
        self.tally.ns.fetch_add(ns, Ordering::Relaxed);
        op
    }

    fn keyspace(&self) -> u64 {
        self.inner.keyspace()
    }

    fn set_time_ns(&mut self, now_ns: u64) {
        self.inner.set_time_ns(now_ns);
    }
}
