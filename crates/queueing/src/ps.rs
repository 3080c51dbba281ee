//! An egalitarian processor-sharing server (the CPU model).

use dqa_sim::stats::TimeWeighted;
use dqa_sim::SimTime;

/// Epoch token identifying a scheduled PS completion.
///
/// Every state change of a [`PsServer`] (arrival, departure, removal or
/// clear) invalidates previously announced completion times. The server
/// hands out a `PsToken` with each announced completion; the host stores it
/// in the scheduled event and the server only honors the completion if the
/// token is still current. A host that leaves superseded events queued
/// relies on this to ignore them (lazy cancellation). A host that re-arms
/// one timer per server with each new announcement, and disarms it when
/// [`PsServer::remove`] or [`PsServer::clear`] empties the server, only
/// ever delivers the current token; the check is then a guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PsToken(u64);

/// The next announced completion of a [`PsServer`]: when, and the token that
/// must accompany it.
pub type NextCompletion = Option<(SimTime, PsToken)>;

/// An egalitarian processor-sharing server.
///
/// All `n` resident jobs receive service simultaneously at rate `1/n` — the
/// paper's model of a time-sliced CPU with negligible quantum (Section 2:
/// "the CPU is modeled as a PS server").
///
/// Internally the server runs on *virtual time*: `V(t)` advances at rate
/// `1/n(t)`, each job is stamped with a finish virtual time
/// `V(arrival) + work`, and the next real-time departure is
/// `now + (minF - V) * n`. This gives O(1) clock updates and exact
/// departure times without per-quantum events.
///
/// # Example
///
/// ```
/// use dqa_queueing::PsServer;
/// use dqa_sim::SimTime;
///
/// let mut cpu: PsServer<&str> = PsServer::new(SimTime::ZERO);
/// // Lone job with 2 units of work: completes at t = 2...
/// let (t1, tok1) = cpu.arrive(SimTime::ZERO, "a", 2.0).unwrap();
/// assert_eq!(t1, SimTime::new(2.0));
/// // ...but a second arrival at t = 1 halves its rate.
/// let (t2, tok2) = cpu.arrive(SimTime::new(1.0), "b", 0.5).unwrap();
/// // "b" needs 0.5 work at rate 1/2 => departs at t = 2.
/// assert_eq!(t2, SimTime::new(2.0));
/// // The earlier token is now stale and its event must be ignored.
/// assert!(cpu.complete(t1, tok1).is_none());
/// let (done, next) = cpu.complete(t2, tok2).unwrap();
/// assert_eq!(done, "b");
/// // "a" had 1 unit left at t=1, ran at 1/2 for 1 unit: 0.5 left, alone now.
/// assert_eq!(next.unwrap().0, SimTime::new(2.5));
/// ```
#[derive(Debug, Clone)]
pub struct PsServer<J> {
    jobs: Vec<Entry<J>>,
    vtime: f64,
    last_update: SimTime,
    epoch: u64,
    seq: u64,
    population: TimeWeighted,
    busy: TimeWeighted,
    completions: u64,
    total_service: f64,
}

#[derive(Debug, Clone)]
struct Entry<J> {
    job: J,
    finish_v: f64,
    seq: u64,
}

impl<J> PsServer<J> {
    /// Creates an idle server whose statistics start at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> Self {
        PsServer {
            jobs: Vec::new(),
            vtime: 0.0,
            last_update: start,
            epoch: 0,
            seq: 0,
            population: TimeWeighted::new(start, 0.0),
            busy: TimeWeighted::new(start, 0.0),
            completions: 0,
            total_service: 0.0,
        }
    }

    /// Advances virtual time to `now`.
    #[inline]
    fn advance(&mut self, now: SimTime) {
        let dt = now - self.last_update;
        assert!(dt >= -1e-9, "PS clock went backwards");
        if !self.jobs.is_empty() {
            self.vtime += dt.max(0.0) / self.jobs.len() as f64;
        }
        self.last_update = now;
    }

    /// Index of the job with the smallest (finish_v, seq).
    #[inline]
    fn front(&self) -> Option<usize> {
        self.jobs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.finish_v.total_cmp(&b.finish_v).then(a.seq.cmp(&b.seq)))
            .map(|(i, _)| i)
    }

    /// The next departure (time, token), or `None` if the server is empty.
    #[inline]
    fn next_completion(&self, now: SimTime) -> NextCompletion {
        let i = self.front()?;
        let delta_v = (self.jobs[i].finish_v - self.vtime).max(0.0);
        let t = now + delta_v * self.jobs.len() as f64;
        Some((t, PsToken(self.epoch)))
    }

    /// A job arrives with the given amount of work.
    ///
    /// Returns the new next completion; the host must schedule an event for
    /// it (or re-arm its timer), and any previously announced PS completion
    /// becomes stale.
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative or not finite.
    #[inline]
    pub fn arrive(&mut self, now: SimTime, job: J, work: f64) -> NextCompletion {
        assert!(work.is_finite() && work >= 0.0, "invalid work {work}");
        self.advance(now);
        let seq = self.seq;
        self.seq += 1;
        self.jobs.push(Entry {
            job,
            finish_v: self.vtime + work,
            seq,
        });
        self.total_service += work;
        self.epoch += 1;
        self.population.add(now, 1.0);
        self.busy.set(now, 1.0);
        self.next_completion(now)
    }

    /// The host's completion event fired with token `token`.
    ///
    /// Returns `None` if the token is stale (the event must be ignored);
    /// otherwise the finished job plus the server's new next completion,
    /// which the host must schedule.
    #[inline]
    pub fn complete(&mut self, now: SimTime, token: PsToken) -> Option<(J, NextCompletion)> {
        if token.0 != self.epoch {
            return None;
        }
        self.advance(now);
        let i = self.front().expect("valid token but empty PS server");
        debug_assert!(
            (self.jobs[i].finish_v - self.vtime).abs() < 1e-6,
            "PS departure fired at wrong virtual time: finish {} vs vtime {}",
            self.jobs[i].finish_v,
            self.vtime
        );
        // Snap virtual time to the departure point to avoid drift.
        self.vtime = self.jobs[i].finish_v;
        let entry = self.jobs.swap_remove(i);
        self.epoch += 1;
        self.completions += 1;
        self.population.add(now, -1.0);
        if self.jobs.is_empty() {
            self.busy.set(now, 0.0);
        }
        Some((entry.job, self.next_completion(now)))
    }

    /// Number of resident jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if no job is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Jobs completed so far.
    #[must_use]
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Total work accepted so far.
    #[must_use]
    pub fn total_service(&self) -> f64 {
        self.total_service
    }

    /// Fraction of time the server has been busy, through `now`.
    #[must_use]
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.time_average(now)
    }

    /// Time-averaged number of resident jobs, through `now`.
    #[must_use]
    pub fn mean_population(&self, now: SimTime) -> f64 {
        self.population.time_average(now)
    }

    /// Removes one specific resident job — a cancellation (e.g. a query
    /// whose deadline expired). Returns the job's unserved work together
    /// with the server's new next completion; any previously scheduled
    /// completion becomes stale (the epoch is bumped). The removal is
    /// not counted as a completion, and the unserved work is subtracted
    /// from the accepted-service total so work conservation
    /// (`total_service` vs busy time) still balances. Returns `None` if
    /// the job is not resident.
    pub fn remove(&mut self, now: SimTime, job: &J) -> Option<(f64, NextCompletion)>
    where
        J: PartialEq,
    {
        let i = self.jobs.iter().position(|e| e.job == *job)?;
        self.advance(now);
        let unserved = (self.jobs[i].finish_v - self.vtime).max(0.0);
        self.jobs.swap_remove(i);
        self.total_service -= unserved;
        self.epoch += 1;
        self.population.add(now, -1.0);
        if self.jobs.is_empty() {
            self.busy.set(now, 0.0);
        }
        Some((unserved, self.next_completion(now)))
    }

    /// Ejects every resident job without counting completions — a station
    /// crash. The epoch is bumped, so any already-scheduled completion
    /// event carries a stale token and is ignored on delivery. Returns the
    /// ejected jobs in arrival order.
    pub fn clear(&mut self, now: SimTime) -> Vec<J> {
        self.advance(now);
        let mut entries = std::mem::take(&mut self.jobs);
        entries.sort_by_key(|e| e.seq);
        self.epoch += 1;
        self.population.set(now, 0.0);
        self.busy.set(now, 0.0);
        entries.into_iter().map(|e| e.job).collect()
    }

    /// Restarts statistics at `now`, keeping resident jobs.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.population.reset(now);
        self.busy.reset(now);
        self.completions = 0;
        self.total_service = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the server to completion, returning (job, finish time) pairs.
    fn drain<J: Clone>(cpu: &mut PsServer<J>, mut pending: NextCompletion) -> Vec<(J, f64)> {
        let mut out = Vec::new();
        while let Some((t, tok)) = pending {
            let (job, next) = cpu.complete(t, tok).expect("token should be fresh");
            out.push((job, t.as_f64()));
            pending = next;
        }
        out
    }

    #[test]
    fn lone_job_runs_at_full_rate() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        let next = cpu.arrive(SimTime::new(1.0), "x", 3.0);
        let done = drain(&mut cpu, next);
        assert_eq!(done, vec![("x", 4.0)]);
        assert!(cpu.is_empty());
    }

    #[test]
    fn two_equal_jobs_share_equally() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        cpu.arrive(SimTime::ZERO, "a", 1.0);
        let next = cpu.arrive(SimTime::ZERO, "b", 1.0);
        // Each runs at rate 1/2: both finish at t = 2; "a" (earlier seq) first.
        let done = drain(&mut cpu, next);
        assert_eq!(done, vec![("a", 2.0), ("b", 2.0)]);
    }

    #[test]
    fn short_job_overtakes_long_job() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        cpu.arrive(SimTime::ZERO, "long", 10.0);
        let next = cpu.arrive(SimTime::ZERO, "short", 1.0);
        let done = drain(&mut cpu, next);
        // short: 1 unit at rate 1/2 -> departs t=2.
        // long: 10 total, got 1 by t=2, 9 left alone -> departs t=11.
        assert_eq!(done, vec![("short", 2.0), ("long", 11.0)]);
    }

    #[test]
    fn stale_token_is_ignored() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        let first = cpu.arrive(SimTime::ZERO, 1, 2.0).unwrap();
        let _second = cpu.arrive(SimTime::new(1.0), 2, 5.0);
        assert!(cpu.complete(first.0, first.1).is_none());
        assert_eq!(cpu.len(), 2);
    }

    #[test]
    fn work_conservation() {
        // Total service accepted equals busy time when the server is never
        // idle between jobs.
        let mut cpu = PsServer::new(SimTime::ZERO);
        cpu.arrive(SimTime::ZERO, 1, 2.0);
        cpu.arrive(SimTime::ZERO, 2, 3.0);
        let next = cpu.arrive(SimTime::ZERO, 3, 4.0);
        let done = drain(&mut cpu, next);
        let end = done.last().unwrap().1;
        assert!((end - 9.0).abs() < 1e-9, "total busy time {end}");
        assert!((cpu.utilization(SimTime::new(9.0)) - 1.0).abs() < 1e-9);
        assert_eq!(cpu.completions(), 3);
        assert_eq!(cpu.total_service(), 9.0);
    }

    #[test]
    fn staggered_arrivals_exact_departures() {
        // a: work 4 at t=0; b: work 1 at t=2.
        // [0,2): a alone, 2 done, 2 left.
        // [2,?): both at rate 1/2. b finishes 1 unit at t=4. a has 1 left.
        // a alone finishes at t=5.
        let mut cpu = PsServer::new(SimTime::ZERO);
        cpu.arrive(SimTime::ZERO, "a", 4.0);
        let next = cpu.arrive(SimTime::new(2.0), "b", 1.0);
        let done = drain(&mut cpu, next);
        assert_eq!(done, vec![("b", 4.0), ("a", 5.0)]);
    }

    #[test]
    fn mean_population_square_case() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        let next = cpu.arrive(SimTime::ZERO, (), 2.0);
        let (_, next) = cpu.complete(next.unwrap().0, next.unwrap().1).unwrap();
        assert!(next.is_none());
        // population 1 for [0,2), 0 for [2,4)
        assert!((cpu.mean_population(SimTime::new(4.0)) - 0.5).abs() < 1e-12);
        assert!((cpu.utilization(SimTime::new(4.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_work_departs_immediately() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        let (t, tok) = cpu.arrive(SimTime::new(3.0), (), 0.0).unwrap();
        assert_eq!(t, SimTime::new(3.0));
        assert!(cpu.complete(t, tok).is_some());
    }

    #[test]
    fn reset_stats_keeps_jobs() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        cpu.arrive(SimTime::ZERO, 1, 100.0);
        cpu.reset_stats(SimTime::new(10.0));
        assert_eq!(cpu.len(), 1);
        assert_eq!(cpu.completions(), 0);
        assert!((cpu.utilization(SimTime::new(20.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clear_ejects_jobs_and_stales_tokens() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        cpu.arrive(SimTime::ZERO, "a", 5.0);
        let next = cpu.arrive(SimTime::ZERO, "b", 5.0).unwrap();
        let ejected = cpu.clear(SimTime::new(1.0));
        assert_eq!(ejected, vec!["a", "b"], "arrival order");
        assert!(cpu.is_empty());
        assert_eq!(cpu.completions(), 0, "crash victims are not completions");
        // The completion scheduled before the crash is now stale.
        assert!(cpu.complete(next.0, next.1).is_none());
        // The station restarts cleanly after the crash.
        let fresh = cpu.arrive(SimTime::new(2.0), "c", 1.0).unwrap();
        assert_eq!(fresh.0, SimTime::new(3.0));
    }

    #[test]
    fn clear_on_idle_is_empty() {
        let mut cpu: PsServer<u32> = PsServer::new(SimTime::ZERO);
        assert!(cpu.clear(SimTime::new(1.0)).is_empty());
    }

    #[test]
    fn remove_returns_unserved_work_and_stales_tokens() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        cpu.arrive(SimTime::ZERO, "a", 4.0);
        let stale = cpu.arrive(SimTime::ZERO, "b", 4.0).unwrap();
        // At t=2 both ran at rate 1/2 -> each has 3 units left.
        let (unserved, next) = cpu.remove(SimTime::new(2.0), &"b").unwrap();
        assert!((unserved - 3.0).abs() < 1e-9, "unserved {unserved}");
        assert_eq!(cpu.len(), 1);
        // Pre-removal completion is stale; the survivor's is rescheduled:
        // "a" has 3 units left alone -> departs at t=5.
        assert!(cpu.complete(stale.0, stale.1).is_none());
        let (t, tok) = next.unwrap();
        assert_eq!(t, SimTime::new(5.0));
        let (done, rest) = cpu.complete(t, tok).unwrap();
        assert_eq!(done, "a");
        assert!(rest.is_none());
        // Accepted service shrank by the unserved work: 8 - 3 = 5, which
        // equals the busy time actually rendered by t=5.
        assert!((cpu.total_service() - 5.0).abs() < 1e-9);
        assert_eq!(cpu.completions(), 1, "removal is not a completion");
    }

    #[test]
    fn remove_missing_job_is_none() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        let next = cpu.arrive(SimTime::ZERO, 1, 2.0);
        assert!(cpu.remove(SimTime::new(1.0), &9).is_none());
        // The announced completion is still honored.
        let (t, tok) = next.unwrap();
        assert!(cpu.complete(t, tok).is_some());
    }

    #[test]
    fn remove_last_job_idles_the_server() {
        let mut cpu = PsServer::new(SimTime::ZERO);
        cpu.arrive(SimTime::ZERO, "x", 10.0);
        let (unserved, next) = cpu.remove(SimTime::new(4.0), &"x").unwrap();
        assert!((unserved - 6.0).abs() < 1e-9);
        assert!(next.is_none());
        assert!(cpu.is_empty());
        assert!((cpu.utilization(SimTime::new(8.0)) - 0.5).abs() < 1e-12);
        assert!((cpu.total_service() - 4.0).abs() < 1e-9);
    }
}
