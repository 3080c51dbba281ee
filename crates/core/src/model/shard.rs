//! Conservative parallel-in-time execution of the model (DESIGN.md §12).
//!
//! The model's logical-process split (see [`super`]) makes the token-ring
//! subnet the *only* channel between sites, and every ring frame costs at
//! least the minimum transfer time of its frame class. That minimum is a
//! classic conservative-synchronization *lookahead* Δ: an LP event at time
//! `t` can influence another site no earlier than `t + Δ`, because the
//! influence must ride a frame enqueued at `t` whose transmission alone
//! takes at least Δ (ring queueing only adds delay).
//!
//! The executor exploits this with barrier-synchronized windows. Every
//! queued event is keyed by `(fire time, scheduling instant)`:
//!
//! 1. Let `g` be the key of the earliest pending *global* event (ring
//!    delivery, crash, partition edge, …) and `l` that of the earliest
//!    pending LP event, with `tl` its fire time.
//! 2. If `g ≤ l`, run the global event with full access — exactly like
//!    the serial executor.
//! 3. Otherwise open a window ending at `E = min((tl + Δ, 0), g)`: every
//!    LP drains its own events with keys below `E` *in parallel*,
//!    touching only its own state, reading the frozen board, and logging
//!    observations and outgoing frames.
//! 4. At the barrier, merge all observation logs and outboxes across LPs
//!    in `(time, site, log order)` order and apply them: observations
//!    update the board/metrics, frames enter the ring (deliveries land at
//!    `≥ send + Δ`, so none can have been needed inside the window).
//!
//! Because each LP owns disjoint RNG streams ([`crate::substreams`]), the
//! parallel schedule draws exactly the serial schedule's random numbers,
//! and the barrier merge replays side effects in serial timestamp order —
//! the resulting [`RunReport`](crate::experiment::RunReport) is
//! byte-identical to the serial executor's. `tests/shard_determinism.rs`
//! checks the bitwise guarantee end to end.
//!
//! # Ties
//!
//! At one instant the serial engine runs events in the order they were
//! scheduled. Exact ties are not rare: costed status broadcasts fire on
//! a fixed grid and frames cost fixed amounts, so a ring delivery can
//! land on the very instant of another site's `StatusSend`. The key
//! reproduces that order between the global queue and the LP queues: the
//! side scheduled earlier runs first, and the global event when both
//! were scheduled at the same instant. Within one LP's queue, insertion
//! order is the serial order by construction. The one order the key does
//! not decide is between two different sites' LP events at the same
//! instant: their side effects merge by site index at the barrier.
//!
//! # What is shardable
//!
//! The gate ([`shardable`]) refuses configurations whose handlers reach
//! across sites *between* barriers:
//!
//! * an active deadline lifecycle (expiry cancellation unwinds a remote
//!   execution off-barrier and LP handlers defer global scheduling),
//! * active admission control (live occupancy checks read other sites'
//!   stations at decision time),
//! * an active redundancy spec (hedged dispatch spawns duplicates and
//!   reaps losers through the global hedge registry between barriers),
//! * a perfect-information board (`status_period == 0` mirrors every
//!   load change to all sites instantly), and
//! * a zero lookahead (some frame class with zero transfer time).
//!
//! Fault injection — crashes, message loss, partitions, scripted
//! environments — is fully shardable: every fault transition is already a
//! barrier-time global event.

use std::fmt;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use dqa_queueing::NextCompletion;
use dqa_sim::random::{Dist, RngStream};
use dqa_sim::{EventQueue, SimTime};

use crate::load::LoadTable;
use crate::params::{ParamsError, SiteId, SystemParams};
use crate::policy::PolicyKind;
use crate::replication::Catalog;

use super::obs::Obs;
use super::{cpu_done, event_site, obs, DbSystem, Event, EventSink, Lp, RingMsg, Shared};

// ----------------------------------------------------------------------
// Shardability gate and lookahead
// ----------------------------------------------------------------------

/// Why a configuration cannot run under the parallel executor. See the
/// module docs for the reasoning behind each clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardGate {
    /// The deadline lifecycle is active.
    Deadlines,
    /// Admission control is active.
    Admission,
    /// An active [`RedundancySpec`](crate::params::RedundancySpec):
    /// hedged dispatch spawns duplicates and reaps losers through
    /// off-barrier global state (the hedge registry).
    Redundancy,
    /// `status_period == 0`: the board is perfect-information.
    PerfectBoard,
    /// Some frame class has a zero minimum transfer time.
    ZeroLookahead,
}

impl fmt::Display for ShardGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self {
            ShardGate::Deadlines => "the deadline lifecycle cancels remote executions off-barrier",
            ShardGate::Admission => {
                "admission control reads other sites' live occupancy at decision time"
            }
            ShardGate::Redundancy => {
                "redundancy-aware dispatch spawns and cancels hedged duplicates off-barrier"
            }
            ShardGate::PerfectBoard => {
                "status_period = 0 mirrors every load change to all sites instantly"
            }
            ShardGate::ZeroLookahead => {
                "a frame class has zero minimum transfer time, so the lookahead is zero"
            }
        };
        write!(f, "configuration is not shardable: {why}")
    }
}

/// Checks that `params` can run under the parallel executor.
///
/// # Errors
///
/// Returns the first [`ShardGate`] clause the configuration violates.
// `!(x > 0.0)` rather than `x <= 0.0`: a NaN-valued parameter must also
// refuse the gate, not slip past it.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn shardable(params: &SystemParams) -> Result<(), ShardGate> {
    if params.deadlines.is_some_and(|d| d.is_active()) {
        return Err(ShardGate::Deadlines);
    }
    if params.admission.is_some_and(|a| a.is_active()) {
        return Err(ShardGate::Admission);
    }
    if params.redundancy.is_some_and(|r| r.is_active()) {
        return Err(ShardGate::Redundancy);
    }
    if !(params.status_period > 0.0) {
        return Err(ShardGate::PerfectBoard);
    }
    if !(lookahead(params) > 0.0) {
        return Err(ShardGate::ZeroLookahead);
    }
    Ok(())
}

/// The conservative lookahead Δ: a strict lower bound on the transfer
/// time of *every* frame the model can put on the ring.
///
/// Frame classes and their minimum costs:
///
/// * dispatch frames — [`SystemParams::dispatch_cost`] per class;
/// * result frames — [`SystemParams::result_cost`] at the one-read floor
///   ([`Dist::sample_count`] never returns less than one read);
/// * propagation-apply dispatches (updates with replication) and
///   migration transfers — at least `msg_length` (migration state growth
///   only adds cost);
/// * costed status broadcasts — `status_msg_length` (§4.4; free
///   exchanges are barrier-time global events and need no bound).
///
/// Ring queueing and partition drops only *delay* or suppress delivery,
/// so the per-frame transmission time remains a lower bound on every
/// cross-site influence delay.
#[must_use]
pub fn lookahead(params: &SystemParams) -> f64 {
    let mut delta = f64::INFINITY;
    for class in 0..params.classes.len() {
        delta = delta.min(params.dispatch_cost(class));
        delta = delta.min(params.result_cost(class, 1.0));
    }
    if params.update_fraction > 0.0 || params.migration.is_some() {
        delta = delta.min(params.msg_length);
    }
    if params.status_period > 0.0 && params.status_msg_length > 0.0 {
        delta = delta.min(params.status_msg_length);
    }
    delta
}

/// An error from [`crate::experiment::run_sharded`]: either the
/// parameters are invalid or the configuration is not shardable.
#[derive(Debug)]
pub enum ShardError {
    /// Parameter validation failed.
    Params(ParamsError),
    /// The shardability gate refused the configuration.
    Unsupported(ShardGate),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Params(e) => e.fmt(f),
            ShardError::Unsupported(g) => g.fmt(f),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ParamsError> for ShardError {
    fn from(e: ParamsError) -> Self {
        ShardError::Params(e)
    }
}

impl From<ShardGate> for ShardError {
    fn from(g: ShardGate) -> Self {
        ShardError::Unsupported(g)
    }
}

// ----------------------------------------------------------------------
// Event sinks
// ----------------------------------------------------------------------

/// A queued event and the instant it was scheduled. Each queue is stable
/// on its own; across the global queue and the LP queues, the scheduling
/// instant stands in for the serial engine's insertion order.
struct Stamped {
    scheduled: SimTime,
    event: Event,
}

/// The `(fire time, scheduling instant)` key of a queue's next event.
/// Events run in key order across queues; see [`ShardEngine::run_until`].
fn head(queue: &EventQueue<Stamped>) -> Option<(SimTime, SimTime)> {
    queue.peek().map(|(t, s)| (t, s.scheduled))
}

/// Re-announces the LP's CPU departure in timer slot 0 of its own queue,
/// stamped with the scheduling instant like every other entry.
fn cpu_next_in(queue: &mut EventQueue<Stamped>, now: SimTime, site: SiteId, next: NextCompletion) {
    match cpu_done(site, next) {
        Some((t, event)) => queue.arm(
            0,
            t,
            Stamped {
                scheduled: now,
                event,
            },
        ),
        None => queue.disarm(0),
    }
}

/// The window-time sink: accepts only the owning LP's events.
struct LocalSink<'a> {
    site: SiteId,
    now: SimTime,
    queue: &'a mut EventQueue<Stamped>,
}

impl EventSink for LocalSink<'_> {
    fn schedule(&mut self, t: SimTime, event: Event) {
        debug_assert_eq!(
            event_site(&event),
            Some(self.site),
            "LP handler scheduled an event it does not own: {event:?}"
        );
        let scheduled = self.now;
        self.queue.push(t, Stamped { scheduled, event });
    }

    fn cpu_next(&mut self, site: SiteId, next: NextCompletion) {
        debug_assert_eq!(site, self.site, "LP handler re-armed another site's CPU");
        cpu_next_in(self.queue, self.now, site, next);
    }
}

/// The barrier-time sink: routes each event to its owning LP's local
/// queue, or to the global queue.
struct RouterSink<'a> {
    now: SimTime,
    global: &'a mut EventQueue<Stamped>,
    locals: &'a mut [EventQueue<Stamped>],
}

impl EventSink for RouterSink<'_> {
    fn schedule(&mut self, t: SimTime, event: Event) {
        let stamped = Stamped {
            scheduled: self.now,
            event,
        };
        match event_site(&event) {
            Some(site) => self.locals[site].push(t, stamped),
            None => self.global.push(t, stamped),
        }
    }

    fn cpu_next(&mut self, site: SiteId, next: NextCompletion) {
        cpu_next_in(&mut self.locals[site], self.now, site, next);
    }
}

// ----------------------------------------------------------------------
// Window draining (shared by the inline and worker paths)
// ----------------------------------------------------------------------

/// Drains one LP's local queue of every event whose key (see [`head`])
/// is below `bound`, capped at the inclusive run `deadline`. Returns the
/// number of events executed.
fn drain_window(
    lp: &mut Lp,
    queue: &mut EventQueue<Stamped>,
    sh: &Shared<'_>,
    bound: (SimTime, SimTime),
    deadline: SimTime,
) -> u64 {
    let mut steps = 0;
    while let Some(key) = head(queue) {
        if key >= bound || key.0 > deadline {
            break;
        }
        let Some((now, stamped)) = queue.pop() else {
            break;
        };
        let mut sink = LocalSink {
            site: lp.index,
            now,
            queue,
        };
        lp.handle(now, stamped.event, sh, &mut sink);
        steps += 1;
    }
    steps
}

// ----------------------------------------------------------------------
// Worker pool
// ----------------------------------------------------------------------

/// One window assignment shipped to a worker: the LP and its local queue
/// move out of the engine for the window's duration and come back in the
/// reply.
struct Task {
    idx: usize,
    lp: Lp,
    queue: EventQueue<Stamped>,
    board: Arc<LoadTable>,
    bound: (SimTime, SimTime),
    deadline: SimTime,
}

/// A worker's reply for one task.
struct Done {
    idx: usize,
    lp: Lp,
    queue: EventQueue<Stamped>,
    steps: u64,
}

// `Done` dwarfs `Panicked`, but it is also the only variant the hot path
// ever builds — boxing it would buy nothing except an allocation per
// window per LP.
#[allow(clippy::large_enum_variant)]
enum Reply {
    Done(Done),
    /// A model handler panicked inside the worker; the message is
    /// re-raised on the coordinating thread.
    Panicked(String),
}

/// A persistent pool of window workers. Spawned once per engine — windows
/// are far too frequent to pay a thread spawn each — and shut down by
/// dropping the task senders.
struct Pool {
    txs: Vec<Sender<Task>>,
    rx: Receiver<Reply>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    fn spawn(jobs: usize, sys: &DbSystem) -> Pool {
        let params = Arc::new(sys.params.clone());
        let catalog = Arc::new(sys.catalog.clone());
        let disk_dist = sys.disk_dist;
        let (reply_tx, reply_rx) = channel();
        let mut txs = Vec::with_capacity(jobs);
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let (task_tx, task_rx) = channel::<Task>();
            txs.push(task_tx);
            let replies = reply_tx.clone();
            let params = Arc::clone(&params);
            let catalog = Arc::clone(&catalog);
            handles.push(std::thread::spawn(move || {
                while let Ok(task) = task_rx.recv() {
                    let reply = run_task(&params, &catalog, disk_dist, task);
                    let crashed = matches!(reply, Reply::Panicked(_));
                    if replies.send(reply).is_err() || crashed {
                        break;
                    }
                }
            }));
        }
        Pool {
            txs,
            rx: reply_rx,
            handles,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.txs.clear();
        for handle in self.handles.drain(..) {
            // A worker that panicked already reported through the reply
            // channel; joining here must not double-panic during drop.
            let _ = handle.join();
        }
    }
}

/// Executes one window task on a worker thread, catching handler panics
/// so the coordinator can re-raise them instead of deadlocking.
fn run_task(params: &SystemParams, catalog: &Catalog, disk_dist: Dist, task: Task) -> Reply {
    let Task {
        idx,
        mut lp,
        mut queue,
        board,
        bound,
        deadline,
    } = task;
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let sh = Shared {
            params,
            catalog,
            board: &board,
            disk_dist,
            cross: None,
        };
        drain_window(&mut lp, &mut queue, &sh, bound, deadline)
    }));
    match outcome {
        Ok(steps) => Reply::Done(Done {
            idx,
            lp,
            queue,
            steps,
        }),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "window worker panicked".to_string());
            Reply::Panicked(format!("LP {idx} window worker panicked: {msg}"))
        }
    }
}

// ----------------------------------------------------------------------
// The engine
// ----------------------------------------------------------------------

/// The windowed parallel executor: a drop-in replacement for
/// `Engine<DbSystem>` that runs LP windows across a worker pool and
/// produces bit-identical trajectories (see the module docs).
pub struct ShardEngine {
    sys: DbSystem,
    /// Barrier-time events (ring deliveries, faults, free status
    /// exchanges, scripted actions).
    global: EventQueue<Stamped>,
    /// One local queue per LP, holding only that site's own events.
    locals: Vec<EventQueue<Stamped>>,
    /// The conservative lookahead Δ.
    delta: f64,
    now: SimTime,
    steps: u64,
    /// `None` when `jobs == 1`: windows drain inline on this thread.
    pool: Option<Pool>,
    /// Hollow LPs swapped into `sys` while the real ones are out on
    /// worker threads; recycled window to window.
    spares: Vec<Lp>,
    /// Scratch for barrier merges (reused allocation).
    merged_obs: Vec<(SimTime, usize, usize, Obs)>,
    merged_out: Vec<(SimTime, usize, usize, RingMsg, f64)>,
    active: Vec<usize>,
}

impl ShardEngine {
    /// Builds the parallel executor around a freshly created system,
    /// seeding its initial events. `jobs` is clamped to `[1, num_sites]`.
    ///
    /// # Errors
    ///
    /// Returns the [`ShardGate`] clause that makes the configuration
    /// unshardable, if any.
    pub fn new(mut sys: DbSystem, jobs: usize) -> Result<ShardEngine, ShardGate> {
        shardable(&sys.params)?;
        let delta = lookahead(&sys.params);
        let n = sys.params.num_sites;
        let mut global = EventQueue::new();
        let mut locals: Vec<EventQueue<Stamped>> = (0..n).map(|_| EventQueue::new()).collect();
        for (t, event) in sys.initial_events() {
            let mut router = RouterSink {
                now: SimTime::ZERO,
                global: &mut global,
                locals: &mut locals,
            };
            router.schedule(t, event);
        }
        let jobs = jobs.clamp(1, n);
        let pool = (jobs > 1).then(|| Pool::spawn(jobs, &sys));
        Ok(ShardEngine {
            sys,
            global,
            locals,
            delta,
            now: SimTime::ZERO,
            steps: 0,
            pool,
            spares: Vec::new(),
            merged_obs: Vec::new(),
            merged_out: Vec::new(),
            active: Vec::new(),
        })
    }

    /// The model.
    #[must_use]
    pub fn model(&self) -> &DbSystem {
        &self.sys
    }

    /// The model, mutably (statistics resets between warmup and
    /// measurement).
    pub fn model_mut(&mut self) -> &mut DbSystem {
        &mut self.sys
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events executed so far — identical to the serial engine's count on
    /// the same configuration.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs every event with `t ≤ deadline`, then advances the clock to
    /// `deadline` — the same contract as `Engine::run_until`.
    ///
    /// Events run in `(time, scheduling instant)` order across the global
    /// queue and the LP queues, which is the serial engine's order: at
    /// one instant it runs events in the order they were scheduled. On a
    /// full tie the global event runs first.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            let g = head(&self.global);
            let l = self.locals.iter().filter_map(head).min();
            let global_next = match (g, l) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(g), Some(l)) => g <= l,
            };
            if global_next {
                let Some((t, _)) = g else { break };
                if t > deadline {
                    break;
                }
                let Some((now, stamped)) = self.global.pop() else {
                    break;
                };
                self.now = now;
                {
                    let mut router = RouterSink {
                        now,
                        global: &mut self.global,
                        locals: &mut self.locals,
                    };
                    self.sys.handle_global(now, stamped.event, &mut router);
                }
                self.steps += 1;
            } else {
                let Some((start, _)) = l else { break };
                if start > deadline {
                    break;
                }
                // The window ends Δ after its first event, or just before
                // the next global event: LP events at that event's instant
                // run in the window only if they were scheduled earlier.
                let mut bound = (start + self.delta, SimTime::ZERO);
                if let Some(g) = g {
                    bound = bound.min(g);
                }
                self.run_window(bound, deadline);
                self.now = bound.0.min(deadline);
            }
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Opens one window: drains every LP's events with keys below
    /// `bound` (capped at `deadline`) in parallel, then merges side
    /// effects at the barrier.
    fn run_window(&mut self, bound: (SimTime, SimTime), deadline: SimTime) {
        self.active.clear();
        for (i, q) in self.locals.iter().enumerate() {
            if let Some(key) = head(q) {
                if key < bound && key.0 <= deadline {
                    self.active.push(i);
                }
            }
        }
        let parallel = self.pool.is_some() && self.active.len() > 1;
        if parallel {
            self.run_window_pooled(bound, deadline);
        } else {
            let DbSystem {
                params,
                catalog,
                board,
                disk_dist,
                lps,
                ..
            } = &mut self.sys;
            let sh = Shared {
                params,
                catalog,
                board,
                disk_dist: *disk_dist,
                cross: None,
            };
            for &i in &self.active {
                self.steps += drain_window(&mut lps[i], &mut self.locals[i], &sh, bound, deadline);
            }
        }
        self.barrier_flush();
    }

    /// Ships each active LP (and its queue) to a pool worker and swaps
    /// the results back in as they land.
    fn run_window_pooled(&mut self, bound: (SimTime, SimTime), deadline: SimTime) {
        let board = Arc::new(self.sys.board.clone());
        let Some(pool) = &self.pool else {
            unreachable!("pooled window without a pool");
        };
        for (k, &i) in self.active.iter().enumerate() {
            let spare = match self.spares.pop() {
                Some(s) => s,
                None => hollow_lp(&self.sys.params, i),
            };
            let lp = mem::replace(&mut self.sys.lps[i], spare);
            let queue = mem::replace(&mut self.locals[i], EventQueue::new());
            let task = Task {
                idx: i,
                lp,
                queue,
                board: Arc::clone(&board),
                bound,
                deadline,
            };
            if pool.txs[k % pool.txs.len()].send(task).is_err() {
                panic!("window worker pool shut down mid-run");
            }
        }
        let mut failure = None;
        for _ in 0..self.active.len() {
            match pool.rx.recv() {
                Ok(Reply::Done(done)) => {
                    let spare = mem::replace(&mut self.sys.lps[done.idx], done.lp);
                    self.spares.push(spare);
                    self.locals[done.idx] = done.queue;
                    self.steps += done.steps;
                }
                Ok(Reply::Panicked(msg)) => {
                    failure = Some(msg);
                    break;
                }
                Err(_) => {
                    failure = Some("window worker pool disconnected".to_string());
                    break;
                }
            }
        }
        if let Some(msg) = failure {
            panic!("{msg}");
        }
    }

    /// The barrier: merges every active LP's observation log and outbox
    /// across sites in `(time, site, log order)` order — the serial
    /// executor's flush order except between two sites' events at the
    /// same instant (see the module docs) — and applies them to the
    /// board, metrics, and ring.
    fn barrier_flush(&mut self) {
        self.merged_obs.clear();
        self.merged_out.clear();
        for &i in &self.active {
            let lp = &mut self.sys.lps[i];
            for (k, &(t, o)) in lp.obs.iter().enumerate() {
                self.merged_obs.push((t, i, k, o));
            }
            lp.obs.clear();
            for (k, &(t, msg, cost)) in lp.outbox.iter().enumerate() {
                self.merged_out.push((t, i, k, msg, cost));
            }
            lp.outbox.clear();
            assert!(
                lp.deferred.is_empty(),
                "LP {i} deferred a classic-only side effect in a sharded run"
            );
        }
        self.merged_obs.sort_by(|a, b| {
            (a.0, a.1, a.2)
                .partial_cmp(&(b.0, b.1, b.2))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &(t, _, _, o) in &self.merged_obs {
            obs::apply(t, o, &mut self.sys.board, &mut self.sys.metrics);
        }
        self.merged_out.sort_by(|a, b| {
            (a.0, a.1, a.2)
                .partial_cmp(&(b.0, b.1, b.2))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &(t, from, _, msg, cost) in &self.merged_out {
            if let Some(done) = self.sys.ring.send(t, from, msg, cost) {
                let stamped = Stamped {
                    scheduled: t,
                    event: Event::NetDone,
                };
                self.global.push(done, stamped);
            }
        }
    }
}

/// A placeholder LP swapped into the system while the real one is out on
/// a worker thread. Never executes an event; its streams and policy are
/// arbitrary.
fn hollow_lp(params: &SystemParams, index: SiteId) -> Lp {
    Lp::new(params, PolicyKind::Local, &RngStream::new(0), index)
}
