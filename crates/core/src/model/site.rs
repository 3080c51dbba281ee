//! Per-site service-station state.

use dqa_queueing::{FcfsQueue, PsServer};
use dqa_sim::SimTime;

use crate::params::DiskChoice;
use crate::query::QueryId;

/// The service stations of one DB site: a processor-sharing CPU and
/// `num_disks` FCFS disks (Figure 2). Terminals are represented purely by
/// scheduled `Submit` events, and the outgoing message queue lives in the
/// shared token ring.
#[derive(Debug)]
pub struct Site {
    /// The CPU, shared processor-style among resident queries.
    pub cpu: PsServer<QueryId>,
    /// The disks, each serving page reads in FIFO order.
    pub disks: Vec<FcfsQueue<QueryId>>,
    rr_cursor: usize,
    /// Whether the site is up (always `true` without fault injection).
    up: bool,
    /// Crash epoch: bumped on every crash so that disk-completion events
    /// scheduled before the crash can be recognized as stale and dropped.
    /// The CPU needs no epoch: the host disarms its timer slot at the
    /// crash, and its PS tokens guard the rest; FCFS has neither.
    epoch: u64,
}

impl Site {
    /// Creates an idle site with `num_disks` disks.
    ///
    /// # Panics
    ///
    /// Panics if `num_disks` is zero.
    #[must_use]
    pub fn new(num_disks: u32, start: SimTime) -> Self {
        assert!(num_disks > 0, "a site needs at least one disk");
        Site {
            cpu: PsServer::new(start),
            disks: (0..num_disks).map(|_| FcfsQueue::new(start)).collect(),
            rr_cursor: 0,
            up: true,
            epoch: 0,
        }
    }

    /// Whether the site is currently up.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The current crash epoch (stamped into disk-completion events).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fail-stops the site: every station drains, in-flight disk
    /// completions become stale (by the bumped epoch; the host disarms the
    /// CPU's pending departure), and the resident queries — whose partial
    /// work is lost — are returned for the host to back off and retry.
    pub fn crash(&mut self, now: SimTime) -> Vec<QueryId> {
        debug_assert!(self.up, "crash of an already-down site");
        self.up = false;
        self.epoch += 1;
        let mut victims = self.cpu.clear(now);
        for d in &mut self.disks {
            victims.extend(d.clear(now));
        }
        victims
    }

    /// Brings the site back up after repair, with empty stations.
    pub fn recover(&mut self) {
        debug_assert!(!self.up, "recovery of an up site");
        self.up = true;
    }

    /// Picks the disk for the next page read under the given discipline.
    /// `random_pick` must be a uniform draw from `0..num_disks` (used only
    /// by [`DiskChoice::Random`], but always consumed by the caller's RNG
    /// stream so disciplines stay comparable under common random numbers).
    pub fn choose_disk(&mut self, choice: DiskChoice, random_pick: usize) -> usize {
        match choice {
            DiskChoice::Random => {
                debug_assert!(random_pick < self.disks.len());
                random_pick
            }
            DiskChoice::RoundRobin => {
                let d = self.rr_cursor;
                self.rr_cursor = (self.rr_cursor + 1) % self.disks.len();
                d
            }
            DiskChoice::ShortestQueue => self
                .disks
                .iter()
                .enumerate()
                .min_by_key(|(i, d)| (d.len(), *i))
                .map(|(i, _)| i)
                .expect("at least one disk"),
        }
    }

    /// Mean utilization across the site's disks, through `now`.
    #[must_use]
    pub fn disk_utilization(&self, now: SimTime) -> f64 {
        self.disks.iter().map(|d| d.utilization(now)).sum::<f64>() / self.disks.len() as f64
    }

    /// Number of queries currently at the site's stations (disk queues +
    /// CPU).
    #[must_use]
    pub fn resident_queries(&self) -> usize {
        self.cpu.len() + self.disks.iter().map(FcfsQueue::len).sum::<usize>()
    }

    /// Restarts the site's station statistics at `now`.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.cpu.reset_stats(now);
        for d in &mut self.disks {
            d.reset_stats(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_disks() {
        let mut s = Site::new(3, SimTime::ZERO);
        let picks: Vec<usize> = (0..6)
            .map(|_| s.choose_disk(DiskChoice::RoundRobin, 0))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_uses_provided_pick() {
        let mut s = Site::new(4, SimTime::ZERO);
        assert_eq!(s.choose_disk(DiskChoice::Random, 2), 2);
    }

    #[test]
    fn shortest_queue_prefers_emptier_disk() {
        let mut s = Site::new(2, SimTime::ZERO);
        s.disks[0].arrive(SimTime::ZERO, QueryId(1), 1.0);
        s.disks[0].arrive(SimTime::ZERO, QueryId(2), 1.0);
        s.disks[1].arrive(SimTime::ZERO, QueryId(3), 1.0);
        assert_eq!(s.choose_disk(DiskChoice::ShortestQueue, 0), 1);
    }

    #[test]
    fn resident_count_spans_cpu_and_disks() {
        let mut s = Site::new(2, SimTime::ZERO);
        s.disks[0].arrive(SimTime::ZERO, QueryId(1), 1.0);
        s.cpu.arrive(SimTime::ZERO, QueryId(2), 1.0);
        assert_eq!(s.resident_queries(), 2);
    }

    #[test]
    fn crash_drains_stations_and_bumps_epoch() {
        let mut s = Site::new(2, SimTime::ZERO);
        s.cpu.arrive(SimTime::ZERO, QueryId(1), 5.0);
        s.disks[0].arrive(SimTime::ZERO, QueryId(2), 1.0);
        s.disks[1].arrive(SimTime::ZERO, QueryId(3), 1.0);
        assert!(s.is_up());
        let e0 = s.epoch();

        let victims = s.crash(SimTime::new(1.0));
        assert_eq!(victims, vec![QueryId(1), QueryId(2), QueryId(3)]);
        assert!(!s.is_up());
        assert_eq!(s.epoch(), e0 + 1);
        assert_eq!(s.resident_queries(), 0);

        s.recover();
        assert!(s.is_up());
        // Epoch stays: only crashes invalidate pre-crash completions.
        assert_eq!(s.epoch(), e0 + 1);
    }
}
