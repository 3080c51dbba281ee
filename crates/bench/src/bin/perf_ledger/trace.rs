//! The traced pass: the serial engine driven by hand with an observer
//! that prices every event from the outside.
//!
//! The engine calls the observer just before it hands an event to the
//! model, so the wall time between two observer calls is the time the
//! model spent handling the *previous* event plus one queue pop. The
//! observer stamps `Instant::now()`, charges that gap to the previous
//! event's kind through a `match` into fixed arrays, and records it in a
//! `TailSketch`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dqa_core::experiment::RunConfig;
use dqa_core::model::{DbSystem, Event};
use dqa_sim::stats::TailSketch;
use dqa_sim::{Engine, SimTime};

/// Number of [`Event`] kinds.
pub const KINDS: usize = 15;

/// Kind names, indexed by [`kind`].
pub const KIND_NAMES: [&str; KINDS] = [
    "submit",
    "disk_done",
    "cpu_done",
    "net_done",
    "status_exchange",
    "status_send",
    "site_down",
    "site_up",
    "msg_lost",
    "resubmit",
    "retransmit",
    "deadline_expire",
    "partition_start",
    "partition_heal",
    "script",
];

pub const SUBMIT: usize = 0;
pub const DISK_DONE: usize = 1;
pub const CPU_DONE: usize = 2;
pub const NET_DONE: usize = 3;
pub const STATUS_SEND: usize = 5;
pub const RESUBMIT: usize = 9;
pub const DEADLINE_EXPIRE: usize = 11;

/// The index of an event's kind.
#[inline]
pub fn kind(event: &Event) -> usize {
    match event {
        Event::Submit { .. } => 0,
        Event::DiskDone { .. } => 1,
        Event::CpuDone { .. } => 2,
        Event::NetDone => 3,
        Event::StatusExchange => 4,
        Event::StatusSend { .. } => 5,
        Event::SiteDown { .. } => 6,
        Event::SiteUp { .. } => 7,
        Event::MsgLost { .. } => 8,
        Event::Resubmit { .. } => 9,
        Event::Retransmit { .. } => 10,
        Event::DeadlineExpire { .. } => 11,
        Event::PartitionStart => 12,
        Event::PartitionHeal => 13,
        Event::Script { .. } => 14,
    }
}

/// What the observer accumulates.
#[derive(Debug)]
pub struct Gaps {
    last: Option<(Instant, usize)>,
    /// Events seen, per kind.
    pub count: [u64; KINDS],
    /// Gaps charged to each kind: how many, and their total in ns.
    pub charged: [u64; KINDS],
    pub charged_ns: [u64; KINDS],
    /// Every gap, in ns.
    pub sketch: TailSketch,
}

impl Gaps {
    pub fn new() -> Self {
        Gaps {
            last: None,
            count: [0; KINDS],
            charged: [0; KINDS],
            charged_ns: [0; KINDS],
            sketch: TailSketch::new(),
        }
    }

    /// Forgets the previous stamp, so the next event starts a new chain
    /// (between runs, where the gap would include building a system).
    pub fn break_chain(&mut self) {
        self.last = None;
    }

    /// The observer's body.
    #[inline]
    pub fn observe(&mut self, event: &Event) {
        let now = Instant::now();
        let k = kind(event);
        self.count[k] += 1;
        if let Some((then, prev)) = self.last {
            let gap = now.duration_since(then).as_nanos() as u64;
            self.charged[prev] += 1;
            self.charged_ns[prev] += gap;
            self.sketch.record(gap as f64);
        }
        self.last = Some((now, k));
    }

    /// Adds another pass's gaps to these.
    pub fn merge(&mut self, other: &Gaps) {
        for k in 0..KINDS {
            self.count[k] += other.count[k];
            self.charged[k] += other.charged[k];
            self.charged_ns[k] += other.charged_ns[k];
        }
        self.sketch.merge(&other.sketch);
    }

    /// Mean gap charged to kind `k`, in ns (0 if none was charged).
    pub fn mean_gap_ns(&self, k: usize) -> f64 {
        if self.charged[k] == 0 {
            0.0
        } else {
            self.charged_ns[k] as f64 / self.charged[k] as f64
        }
    }

    /// The sketch's quantile function averaged over `[q - w, q + w]`. The
    /// sketch resolves values to 0.8% buckets; averaging a narrow band of
    /// quantiles around `q` smooths that step without leaving the band.
    pub fn smoothed_quantile(&self, q: f64, w: f64) -> f64 {
        const STEPS: u32 = 20;
        let sum: f64 = (0..=STEPS)
            .map(|i| {
                self.sketch
                    .quantile(q - w + 2.0 * w * f64::from(i) / f64::from(STEPS))
            })
            .sum();
        sum / f64::from(STEPS + 1)
    }
}

/// Per-run counts from a traced pass.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Events per kind over the whole run (warmup included).
    pub count: [u64; KINDS],
    /// Events per kind inside the measurement window.
    pub measured: [u64; KINDS],
    /// Queries completed inside the measurement window.
    pub completed: u64,
    /// CPU bursts the PS servers completed inside the window.
    pub cpu_completions: u64,
    /// Time-averaged CPU residents per site over the window.
    pub mean_cpu_queue: f64,
    /// `engine.steps()` at the end of the run.
    pub steps: u64,
    /// Peak active users (0 without a user population).
    pub peak_active_users: u64,
}

/// Result of one traced pass over a workload's runs.
#[derive(Debug)]
pub struct TracedPass {
    pub wall_s: f64,
    pub runs: Vec<TracedRun>,
    pub gaps: Gaps,
}

/// Runs every config with the observer installed:
/// `DbSystem::new` → `Engine::new` → `prime` → `set_observer` →
/// `run_until(warmup)` → `reset_stats` → `run_until(end)` →
/// `check_invariants()`.
///
/// # Panics
///
/// Panics if a config is invalid or a model invariant fails; the caller
/// catches it and counts the pass as failed.
pub fn traced_pass(configs: &[RunConfig]) -> TracedPass {
    let gaps = Rc::new(RefCell::new(Gaps::new()));
    let mut runs = Vec::with_capacity(configs.len());
    let started = Instant::now();
    for cfg in configs {
        let system =
            DbSystem::new(cfg.params.clone(), cfg.policy, cfg.seed).expect("valid workload");
        let mut engine = Engine::new(system);
        DbSystem::prime(&mut engine);
        gaps.borrow_mut().break_chain();
        let before = gaps.borrow().count;
        let sink = Rc::clone(&gaps);
        engine.set_observer(move |_, event| sink.borrow_mut().observe(event));

        engine.run_until(SimTime::new(cfg.warmup));
        let now = engine.now();
        engine.model_mut().reset_stats(now);
        let at_reset = gaps.borrow().count;
        let end = SimTime::new(cfg.warmup + cfg.measure);
        engine.run_until(end);
        engine.clear_observer();

        let model = engine.model();
        model.check_invariants();
        let after = gaps.borrow().count;
        let sites = model.sites().count() as f64;
        runs.push(TracedRun {
            count: std::array::from_fn(|k| after[k] - before[k]),
            measured: std::array::from_fn(|k| after[k] - at_reset[k]),
            completed: model.metrics().completed(),
            cpu_completions: model.sites().map(|s| s.cpu.completions()).sum(),
            mean_cpu_queue: model
                .sites()
                .map(|s| s.cpu.mean_population(end))
                .sum::<f64>()
                / sites,
            steps: engine.steps(),
            peak_active_users: model.user_arena_stats().1,
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    let gaps = Rc::try_unwrap(gaps)
        .expect("observers were cleared")
        .into_inner();
    TracedPass { wall_s, runs, gaps }
}

/// The observer's own cost in ns per event: the same body the engine
/// calls, timed alone on a fixed event sequence.
pub fn observer_ns() -> f64 {
    let events = [
        Event::Submit { site: 0 },
        Event::DiskDone {
            site: 1,
            disk: 0,
            epoch: 0,
        },
        Event::NetDone,
        Event::StatusSend { site: 2 },
    ];
    let gaps = Rc::new(RefCell::new(Gaps::new()));
    let sink = Rc::clone(&gaps);
    let observer = move |_: SimTime, event: &Event| sink.borrow_mut().observe(event);
    let mut i = 0usize;
    crate::measure::ns_per_call(|| {
        i = (i + 1) % events.len();
        observer(SimTime::ZERO, &events[i]);
        i as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqa_core::experiment::run;
    use dqa_core::params::SystemParams;
    use dqa_core::policy::PolicyKind;

    #[test]
    fn traced_steps_equal_untraced_events() {
        let params = SystemParams::builder()
            .num_sites(2)
            .mpl(3)
            .think_time(100.0)
            .status_period(30.0)
            .status_msg_length(0.5)
            .build()
            .unwrap();
        let cfg = RunConfig::new(params, PolicyKind::Lert)
            .seed(3)
            .windows(100.0, 500.0);
        let untraced = run(&cfg).unwrap();
        let traced = traced_pass(std::slice::from_ref(&cfg));
        let r = &traced.runs[0];
        assert_eq!(r.steps, untraced.events);
        assert_eq!(r.count.iter().sum::<u64>(), untraced.events);
        assert_eq!(r.completed, untraced.completed);
        assert!(r.count[STATUS_SEND] > 0 && r.count[SUBMIT] > 0);
        // Every event but the last of the run had its gap charged.
        assert_eq!(traced.gaps.charged.iter().sum::<u64>(), untraced.events - 1);
        assert_eq!(traced.gaps.sketch.count(), untraced.events - 1);
    }
}
