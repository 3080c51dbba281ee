//! Property tests of the simulation kernel's data structures, driven by the
//! crate's own deterministic [`dqa_sim::testkit`] case runner.

use dqa_sim::random::{Dist, RngStream};
use dqa_sim::stats::{BatchMeans, Tally, TimeWeighted};
use dqa_sim::testkit::cases;
use dqa_sim::{EventQueue, SimTime};

/// Popping returns events in non-decreasing time order, regardless of push
/// order.
#[test]
fn event_queue_pops_sorted() {
    cases(200, 0xE0_01, |g| {
        let times = g.vec_f64(0.0..1e6, 1..200);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::new(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev, "case {}: queue popped out of order", g.case());
            prev = t;
            count += 1;
        }
        assert_eq!(count, times.len());
    });
}

/// Events at identical timestamps preserve insertion order (stability), even
/// interleaved with other timestamps.
#[test]
fn event_queue_is_stable() {
    cases(200, 0xE0_02, |g| {
        let groups = g.vec_with(1..30, |g| (g.f64_in(0.0..100.0), g.usize_in(1..8)));
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        for &(t, n) in &groups {
            for _ in 0..n {
                q.push(SimTime::new(t), (t.to_bits(), seq));
                seq += 1;
            }
        }
        let mut last_seq_at: std::collections::HashMap<u64, u64> = Default::default();
        while let Some((t, (bits, s))) = q.pop() {
            assert_eq!(t.as_f64().to_bits(), bits);
            if let Some(&prev) = last_seq_at.get(&bits) {
                assert!(
                    s > prev,
                    "case {}: same-time events out of insertion order",
                    g.case()
                );
            }
            last_seq_at.insert(bits, s);
        }
    });
}

/// Pops the earliest live event of a lazy-cancellation queue: each entry
/// carries the slot it was armed in, if any, and an entry whose slot has
/// since been re-armed or disarmed is skipped.
fn pop_live(
    lazy: &mut EventQueue<(u64, Option<usize>)>,
    live: &mut [Option<u64>],
) -> Option<(SimTime, u64)> {
    while let Some((t, (id, slot))) = lazy.pop() {
        match slot {
            None => return Some((t, id)),
            Some(s) if live[s] == Some(id) => {
                live[s] = None;
                return Some((t, id));
            }
            Some(_) => {} // superseded
        }
    }
    None
}

/// Timer slots agree with lazy cancellation: a random script of pushes,
/// arms, disarms and pops over a few distinct times (so ties are common)
/// pops the same live events, in the same order, from a queue with slots
/// as from a reference that pushes every announcement and skips the
/// superseded ones on pop. `len` counts heap events and armed slots.
#[test]
fn timer_slots_match_lazy_cancellation() {
    const SLOTS: usize = 4;
    cases(300, 0xE0_0A, |g| {
        let mut q = EventQueue::new();
        let mut lazy = EventQueue::new();
        let mut live = [None; SLOTS];
        let mut pushed = std::collections::HashSet::new();
        for id in 0..g.u64_in(1..400) {
            let t = SimTime::new(g.usize_in(0..5) as f64);
            match g.usize_in(0..8) {
                0..=1 => {
                    q.push(t, id);
                    lazy.push(t, (id, None));
                    pushed.insert(id);
                }
                2..=4 => {
                    let s = g.usize_in(0..SLOTS);
                    q.arm(s, t, id);
                    lazy.push(t, (id, Some(s)));
                    live[s] = Some(id);
                }
                5 => {
                    let s = g.usize_in(0..SLOTS);
                    q.disarm(s);
                    live[s] = None;
                }
                _ => {
                    let got = q.pop();
                    assert_eq!(got, pop_live(&mut lazy, &mut live), "case {}", g.case());
                    if let Some((_, popped)) = got {
                        pushed.remove(&popped);
                    }
                }
            }
            let armed = live.iter().flatten().count();
            assert_eq!(q.len(), pushed.len() + armed, "case {}: len", g.case());
        }
        loop {
            let got = q.pop();
            assert_eq!(got, pop_live(&mut lazy, &mut live), "case {}", g.case());
            if got.is_none() {
                break;
            }
        }
        assert!(q.is_empty());
    });
}

/// Welford tally matches the naive two-pass mean and variance.
#[test]
fn tally_matches_two_pass() {
    cases(300, 0xE0_03, |g| {
        let xs = g.vec_f64(-1e4..1e4, 2..300);
        let mut t = Tally::new();
        for &x in &xs {
            t.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((t.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((t.sample_variance() - var).abs() < 1e-5 * (1.0 + var));
        assert_eq!(t.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(
            t.max(),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    });
}

/// Merging split tallies equals one combined tally.
#[test]
fn tally_merge_is_concatenation() {
    cases(300, 0xE0_04, |g| {
        let xs = g.vec_f64(-1e3..1e3, 1..100);
        let ys = g.vec_f64(-1e3..1e3, 1..100);
        let mut a = Tally::new();
        let mut b = Tally::new();
        let mut whole = Tally::new();
        for &x in &xs {
            a.record(x);
            whole.record(x);
        }
        for &y in &ys {
            b.record(y);
            whole.record(y);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-8 * (1.0 + whole.mean().abs()));
        assert!(
            (a.sample_variance() - whole.sample_variance()).abs()
                < 1e-6 * (1.0 + whole.sample_variance())
        );
    });
}

/// The time average of a piecewise-constant signal equals the manual
/// integral.
#[test]
fn time_weighted_matches_manual_integral() {
    cases(300, 0xE0_05, |g| {
        let steps = g.vec_with(1..50, |g| (g.f64_in(0.01..10.0), g.f64_in(-50.0..50.0)));
        let mut s = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut now = 0.0;
        let mut area = 0.0;
        let mut value = 0.0;
        for &(dt, v) in &steps {
            area += value * dt;
            now += dt;
            s.set(SimTime::new(now), v);
            value = v;
        }
        // extend one more unit at the final value
        area += value * 1.0;
        now += 1.0;
        let expected = area / now;
        assert!(
            (s.time_average(SimTime::new(now)) - expected).abs() < 1e-9 * (1.0 + expected.abs()),
            "case {}: integral mismatch",
            g.case()
        );
    });
}

/// Batch means: the grand mean equals the plain mean and the batch count
/// matches the sample count.
#[test]
fn batch_means_grand_mean() {
    cases(200, 0xE0_06, |g| {
        let xs = g.vec_f64(0.0..100.0, 20..400);
        let mut bm = BatchMeans::new(10);
        for &x in &xs {
            bm.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((bm.mean() - mean).abs() < 1e-9 * (1.0 + mean));
        assert_eq!(bm.completed_batches(), xs.len() as u64 / 10);
    });
}

/// Distribution samples respect their supports and (for constants) their
/// exact values.
#[test]
fn dist_samples_stay_in_support() {
    cases(200, 0xE0_07, |g| {
        let seed = g.u64_in(0..1_000);
        let mean = g.f64_in(0.01..50.0);
        let dev = g.f64_in(0.0..1.0);
        let mut rng = RngStream::new(seed);
        let c = Dist::constant(mean);
        assert_eq!(c.sample(&mut rng), mean);
        let e = Dist::exponential(mean);
        for _ in 0..50 {
            assert!(e.sample(&mut rng) >= 0.0);
        }
        let u = Dist::uniform_deviation(mean, dev);
        for _ in 0..50 {
            let x = u.sample(&mut rng);
            assert!(x >= mean * (1.0 - dev) - 1e-12);
            assert!(x <= mean * (1.0 + dev) + 1e-12);
        }
        assert!(e.sample_count(&mut rng) >= 1);
    });
}

/// Substreams with distinct tags never produce the same initial draw
/// sequence (collision would break independence assumptions).
#[test]
fn substreams_do_not_collide() {
    cases(500, 0xE0_08, |g| {
        let seed = g.u64_in(0..500);
        let a = g.u64_in(0..64);
        let b = g.u64_in(0..64);
        if a == b {
            return;
        }
        let root = RngStream::new(seed);
        let mut sa = root.substream(a);
        let mut sb = root.substream(b);
        let va: Vec<u64> = (0..4).map(|_| sa.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| sb.next_u64()).collect();
        assert_ne!(va, vb, "case {}: substream collision", g.case());
    });
}
