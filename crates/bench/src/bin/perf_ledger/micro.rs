//! Microcosts: each layer's hot operation timed alone through its public
//! API, in ns per operation (median of 7 samples, see
//! [`crate::measure::ns_per_call`]).
//!
//! Inputs are drawn up front into a ring of [`RING`] values, so the timed
//! loop pays for the operation and not for generating its input.

use dqa_core::load::{LoadTable, SiteLoad};
use dqa_core::metrics::Metrics;
use dqa_core::model::Event;
use dqa_core::params::SystemParams;
use dqa_core::policy::{AllocationContext, Allocator, PolicyKind};
use dqa_core::query::{ActiveQuery, QueryId, QueryKind, QueryPhase, QueryProfile, QueryTable};
use dqa_core::users::{zipf_pick, UserArena};
use dqa_queueing::{FcfsQueue, PsServer, TokenRing};
use dqa_sim::random::RngStream;
use dqa_sim::{EventQueue, SimTime};

use crate::json::Metric;
use crate::measure::ns_per_call;
use crate::workloads::POLICIES;

/// Length of the pre-drawn input rings (a power of two).
const RING: usize = 1 << 16;

/// Seed of every microcost's inputs.
const SEED: u64 = 0x1ed6e5;

/// `RING` draws of `Exp(1)`.
fn exp_ring(rng: &mut RngStream) -> Vec<f64> {
    (0..RING).map(|_| rng.exponential(1.0)).collect()
}

/// Every microcost, in a fixed order.
pub fn all() -> Vec<Metric> {
    let mut out = Vec::new();
    for depth in [64, 1_024, 16_384] {
        out.push(Metric::new(
            format!("queue.hold_ns.d{depth}"),
            "ns",
            queue_hold(depth),
        ));
    }
    for r in [1, 8, 32] {
        out.push(Metric::new(
            format!("ps.arrive_complete_ns.r{r}"),
            "ns",
            ps_churn(r),
        ));
    }
    out.push(Metric::new("fcfs.arrive_complete_ns", "ns", fcfs_churn()));
    for sites in [6, 10] {
        out.push(Metric::new(
            format!("ring.send_deliver_ns.s{sites}"),
            "ns",
            ring_churn(sites),
        ));
    }
    out.push(Metric::new("load.publish_ns.s6", "ns", publish_row(6)));
    for policy in POLICIES {
        for sites in [4, 16, 64] {
            out.push(Metric::new(
                format!("select.{}.s{sites}_ns", policy.name().to_lowercase()),
                "ns",
                select_site(policy, sites),
            ));
        }
    }
    out.push(Metric::new(
        "users.begin_query_ns.a1k",
        "ns",
        begin_query(1_000),
    ));
    out.push(Metric::new(
        "users.begin_query_ns.a170k",
        "ns",
        begin_query(170_000),
    ));
    out.push(Metric::new("users.zipf_pick_ns", "ns", zipf()));
    let (next_u64, exponential) = rng_draws();
    out.push(Metric::new("rng.next_u64_ns", "ns", next_u64));
    out.push(Metric::new("rng.exponential_ns", "ns", exponential));
    out.push(Metric::new(
        "query_table.insert_remove_ns",
        "ns",
        query_table(),
    ));
    out.push(Metric::new(
        "metrics.record_completion_ns",
        "ns",
        record_completion(),
    ));
    out
}

/// The classic hold model on the engine's queue at a fixed depth: pop the
/// earliest event and push it back at `now + Exp(1)`.
fn queue_hold(depth: usize) -> f64 {
    let mut rng = RngStream::new(SEED);
    let incr = exp_ring(&mut rng);
    let mut q = EventQueue::new();
    for (site, &t) in incr.iter().take(depth).enumerate() {
        q.push(SimTime::new(t), Event::Submit { site });
    }
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) & (RING - 1);
        let (t, e) = q.pop().expect("hold keeps the depth");
        q.push(t + incr[i], e);
        i as u64
    })
}

/// One arrival and one completion at a processor-sharing server holding
/// `resident` jobs between operations.
fn ps_churn(resident: usize) -> f64 {
    let mut rng = RngStream::new(SEED);
    let work = exp_ring(&mut rng);
    let mut cpu = PsServer::new(SimTime::ZERO);
    let mut next = None;
    for (j, &w) in work.iter().take(resident).enumerate() {
        next = cpu.arrive(SimTime::ZERO, j as u64, w);
    }
    let mut now = SimTime::ZERO;
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) & (RING - 1);
        next = cpu.arrive(now, i as u64, work[i]);
        let (t, token) = next.expect("a busy server announces a completion");
        now = t;
        let (job, after) = cpu.complete(now, token).expect("fresh token");
        next = after;
        job
    })
}

/// One arrival and one completion at an FCFS disk holding one job
/// between operations.
fn fcfs_churn() -> f64 {
    let mut rng = RngStream::new(SEED);
    let service = exp_ring(&mut rng);
    let mut disk = FcfsQueue::new(SimTime::ZERO);
    let mut pending = disk.arrive(SimTime::ZERO, 0u64, service[0]);
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) & (RING - 1);
        let now = pending.expect("a busy disk has a completion pending");
        if let Some(t) = disk.arrive(now, i as u64, service[i]) {
            pending = Some(t);
        }
        let (job, next) = disk.complete(now);
        pending = next;
        job
    })
}

/// One send and one delivery on a token ring of `sites` sites with one
/// frame always in flight.
fn ring_churn(sites: usize) -> f64 {
    let mut rng = RngStream::new(SEED);
    let length = exp_ring(&mut rng);
    let mut ring = TokenRing::new(sites, SimTime::ZERO);
    let mut pending = ring.send(SimTime::ZERO, 0, 0u64, length[0]);
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) & (RING - 1);
        let now = pending.expect("a frame is in flight");
        ring.send(now, i % sites, i as u64, length[i]);
        let (msg, _, next) = ring.transmit_done(now);
        pending = next;
        msg
    })
}

/// Publishing one site's row on a stale (costed-status) board — what a
/// delivered status frame does.
fn publish_row(sites: usize) -> f64 {
    let mut board = LoadTable::new(sites, false);
    let mut i = 0usize;
    ns_per_call(|| {
        i += 1;
        let site = i % sites;
        board.publish_row(
            site,
            SiteLoad {
                io: (i & 7) as u32,
                cpu: (i & 3) as u32,
            },
        );
        board.view(site).total().into()
    })
}

/// `Allocator::select_site` on a perfect-information board whose rows
/// hold 0–7 queries per class, alternating I/O- and CPU-bound queries
/// arriving at every site in turn.
fn select_site(policy: PolicyKind, sites: usize) -> f64 {
    let params = SystemParams::builder()
        .num_sites(sites)
        .build()
        .expect("valid site count");
    let mut rng = RngStream::new(SEED);
    let mut board = LoadTable::new(sites, true);
    for site in 0..sites {
        for _ in 0..rng.below(8) {
            board.allocate(site, true);
        }
        for _ in 0..rng.below(8) {
            board.allocate(site, false);
        }
    }
    let queries: Vec<QueryProfile> = (0..2 * sites)
        .map(|i| {
            let class = i % 2;
            QueryProfile {
                class,
                num_reads: params.classes[class].num_reads,
                page_cpu_time: params.classes[class].page_cpu_time,
                home: i / 2,
                io_bound: class == 0,
                relation: 0,
            }
        })
        .collect();
    let mut alloc = Allocator::new(policy, SEED);
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) % queries.len();
        let q = &queries[i];
        let ctx = AllocationContext::from_table(&params, &board, q.home);
        alloc.select_site(q, &ctx) as u64
    })
}

/// `UserArena::begin_query` with `active` users holding live sessions
/// and Zipf(1.2)-picked users arriving (every pick is one of them).
fn begin_query(active: u64) -> f64 {
    let mut rng = RngStream::new(SEED);
    let mut arena = UserArena::new();
    for user in 0..active {
        arena.begin_query(user, || (0, u32::MAX));
    }
    let users: Vec<u64> = (0..RING)
        .map(|_| zipf_pick(rng.next_f64(), active, 1.2))
        .collect();
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) & (RING - 1);
        u64::from(arena.begin_query(users[i], || (0, u32::MAX)))
    })
}

/// One Zipf(1.2) user pick from a 1M-user population's per-site shard.
fn zipf() -> f64 {
    let mut rng = RngStream::new(SEED);
    let u: Vec<f64> = (0..RING).map(|_| rng.next_f64()).collect();
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) & (RING - 1);
        zipf_pick(u[i], 166_667, 1.2)
    })
}

/// One raw draw and one exponential draw from an RNG stream.
fn rng_draws() -> (f64, f64) {
    let mut rng = RngStream::new(SEED);
    let raw = ns_per_call(|| rng.next_u64());
    let exp = ns_per_call(|| rng.exponential(1.0).to_bits());
    (raw, exp)
}

/// One insert and one remove on a query table holding 128 live queries.
fn query_table() -> f64 {
    const LIVE: usize = 128;
    let mut table = QueryTable::new();
    let make = |id: QueryId| ActiveQuery {
        id,
        profile: QueryProfile {
            class: 0,
            num_reads: 20.0,
            page_cpu_time: 0.05,
            home: 0,
            io_bound: true,
            relation: 0,
        },
        exec: 0,
        reads_total: 20,
        reads_done: 0,
        submitted: SimTime::ZERO,
        service: 0.0,
        phase: QueryPhase::Disk,
        kind: QueryKind::Read,
        retries: 0,
        deadline_epoch: 0,
        res_retries: 0,
        adm_retries: 0,
        expired: false,
        deadline_at: SimTime::ZERO,
        hedge_group: None,
        hedge_dup: false,
        hedge_cancelled: false,
    };
    let mut ids: Vec<QueryId> = (0..LIVE).map(|_| table.insert_with(make)).collect();
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) % LIVE;
        let gone = table.remove(ids[i]).expect("live id");
        ids[i] = table.insert_with(make);
        gone.id.0
    })
}

/// `Metrics::record_completion` for alternating classes.
fn record_completion() -> f64 {
    let mut rng = RngStream::new(SEED);
    let response: Vec<f64> = (0..RING).map(|_| 5.0 + rng.exponential(40.0)).collect();
    let mut metrics = Metrics::new(2, SimTime::ZERO);
    let mut i = 0usize;
    ns_per_call(|| {
        i = (i + 1) & (RING - 1);
        metrics.record_completion(i & 1, response[i], 5.0);
        metrics.completed()
    })
}
