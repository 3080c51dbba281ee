//! Event vocabulary of the distributed-database simulation.

use dqa_queueing::PsToken;

use crate::load::SiteLoad;
use crate::params::SiteId;
use crate::query::QueryId;

/// An event in the distributed-database model.
///
/// The lifecycle of a query (Figure 2) reads directly off these events:
/// `Submit` (a terminal's think time expires) → possibly `NetDone` (query
/// shipped to a remote site) → alternating `DiskDone`/`CpuDone` for each
/// page read → possibly `NetDone` (results shipped home) → the next
/// `Submit` for that terminal is scheduled after a think time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A terminal at `site` submits a new query.
    Submit {
        /// The terminal's site (the query's home).
        site: SiteId,
    },
    /// The disk `disk` at `site` finished a page transfer. `epoch` is the
    /// site's crash epoch at schedule time: a crash drains the stations and
    /// bumps the epoch, so completions scheduled before the crash arrive
    /// stale and are ignored (FCFS has no per-job token like the PS server).
    DiskDone {
        /// Executing site.
        site: SiteId,
        /// Disk index within the site.
        disk: usize,
        /// Site crash epoch when the completion was scheduled.
        epoch: u64,
    },
    /// The CPU at `site` reached its next departure. Processor sharing
    /// moves that departure on every arrival, departure and eviction, so
    /// the event lives in `site`'s CPU timer slot and each change re-arms
    /// (or, once the server empties or the site crashes, disarms) it: the
    /// one `CpuDone` pending per site is always the current announcement.
    CpuDone {
        /// Executing site.
        site: SiteId,
        /// The PS server's token for this announcement, checked on
        /// delivery as a guard.
        token: PsToken,
    },
    /// The token ring finished transmitting a message.
    NetDone,
    /// Periodic free load-status snapshot (only with `status_period > 0`
    /// and `status_msg_length == 0`): all sites' rows publish at once, at
    /// no network cost.
    StatusExchange,
    /// Site `site` broadcasts its own load row as a *real* ring message
    /// (only with `status_period > 0` and `status_msg_length > 0`).
    StatusSend {
        /// The broadcasting site.
        site: SiteId,
    },
    /// Site `site` fail-stops (fault injection only): its stations drain,
    /// resident queries enter backoff, and the site is marked unavailable.
    SiteDown {
        /// The crashing site.
        site: SiteId,
    },
    /// Site `site` finishes repair and rejoins the system.
    SiteUp {
        /// The recovering site.
        site: SiteId,
    },
    /// A ring message was dropped in flight (fault injection only). The
    /// ring still spent transmission time; this event performs the
    /// recovery bookkeeping for the lost payload.
    MsgLost {
        /// The dropped payload.
        msg: RingMsg,
        /// The sender — the logical process whose query table still holds
        /// the in-flight query (queries move tables only at delivery).
        from: SiteId,
    },
    /// A backed-off query retries after its delay expires (fault
    /// injection or resilience layer). Routed to the logical process of
    /// `site` — the home site, where every backed-off query parks — so
    /// the retry re-allocates with the home terminal's own streams.
    Resubmit {
        /// The retrying query.
        query: QueryId,
        /// The site whose query table holds the backed-off query.
        site: SiteId,
    },
    /// A completed query's lost result set is retransmitted from its
    /// execution site after a backoff (fault injection only). Unlike
    /// [`Event::Resubmit`] this is a *global* event: losing the query on
    /// retry exhaustion frees a terminal at the home site, which crosses
    /// logical-process boundaries and therefore must run at a barrier.
    Retransmit {
        /// The completed query awaiting result delivery.
        query: QueryId,
        /// The execution site whose query table holds it.
        site: SiteId,
    },
    /// A query's deadline expired (deadline lifecycle only). Honored only
    /// if `epoch` still matches the query's `deadline_epoch` — every
    /// re-arm, crash recovery, or cancellation bumps the epoch, so stale
    /// expiries are ignored on delivery (lazy cancellation).
    DeadlineExpire {
        /// The expiring query.
        query: QueryId,
        /// The query's deadline epoch when the expiry was armed.
        epoch: u32,
        /// The site whose query table held the query when armed; a query
        /// that has since moved tables carries a fresh id there, so the
        /// stale expiry misses by construction.
        site: SiteId,
    },
    /// The injected ring partition begins: the sites split into disjoint
    /// contiguous groups and query/result frames crossing a group
    /// boundary are dropped at delivery (fault injection only).
    PartitionStart,
    /// The injected ring partition heals: full connectivity returns.
    PartitionHeal,
    /// Entry `index` of the deterministic fault-environment script fires
    /// (trace replay only): a scripted crash, repair, or partition
    /// toggle that draws no random numbers and schedules no stochastic
    /// follow-up. See [`crate::params::ScriptEntry`].
    Script {
        /// Index into `SystemParams::script`.
        index: usize,
    },
}

/// What a ring message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A query descriptor traveling to its execution site.
    Dispatch,
    /// Query results returning to the home site.
    Result,
    /// A first-win cancel frame for a losing hedge attempt (redundancy
    /// layer only). Fire-and-forget: it is never retried on loss — a
    /// loser whose cancel never arrives is discarded at completion time
    /// by the hedge group's winner guard instead.
    Cancel,
}

/// A message on the token ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingMsg {
    /// A query descriptor or result set.
    Query {
        /// The query the message belongs to.
        query: QueryId,
        /// Payload kind.
        kind: MsgKind,
        /// Delivery site.
        dest: SiteId,
    },
    /// A load-status broadcast: `site`'s row as of the moment the message
    /// was enqueued. Every site updates its table when the frame passes.
    Status {
        /// The broadcasting site.
        site: SiteId,
        /// The broadcast row (snapshotted at enqueue time).
        load: SiteLoad,
        /// Backpressure bit: the site was at an admission cap when it
        /// broadcast (always `false` without admission control).
        /// Demand-aware allocation treats a full site as "do not route
        /// here".
        full: bool,
    },
}
