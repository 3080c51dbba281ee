//! The reference task: a fixed piece of work, written here with the
//! standard library alone, whose time stands for the host's speed at
//! the moment it runs.
//!
//! It is a small closed queueing network of the kind the simulator runs
//! (six sites, a CPU and a disk each, exponential service times drawn
//! with `ln`, a binary-heap event list of `f64` times), because other
//! tenants of a shared host slow branchy, memory-touching code like this
//! more than they slow plain arithmetic. Nothing here calls the
//! repository's crates, so a change to them cannot change this time;
//! the benchmark's end-to-end metrics count the simulator's work in
//! units of it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Events one task handles: about 3 ms on a 2-core x86-64 host.
const EVENTS: u32 = 40_000;
const SITES: usize = 6;
const JOBS: u32 = 210;

#[derive(Debug, PartialEq)]
struct Event {
    time: f64,
    job: u32,
    stage: u8,
}

impl Eq for Event {}

impl Ord for Event {
    /// Earliest first in a max-heap; ties by job.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then(other.job.cmp(&self.job))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// xorshift64, uniform in (0, 1).
struct Uniform(u64);

impl Uniform {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Runs the network for [`EVENTS`] events and returns a checksum of its
/// state.
pub fn task() -> u64 {
    let mut u = Uniform(0x9e37_79b9_7f4a_7c15);
    let mut cpu = [0u32; SITES];
    let mut disk = [0u32; SITES];
    let mut served = [0u64; SITES];
    let mut heap = BinaryHeap::with_capacity(JOBS as usize);
    for job in 0..JOBS {
        heap.push(Event {
            time: -u.next().ln() * 100.0,
            job,
            stage: 0,
        });
    }
    let mut area = 0.0;
    for _ in 0..EVENTS {
        let Event { time, job, stage } = heap.pop().expect("jobs never leave");
        let site = job as usize % SITES;
        let (next, mean) = match stage {
            // Think time over: queue at the CPU.
            0 => {
                cpu[site] += 1;
                (1, 0.05 * f64::from(cpu[site]))
            }
            // CPU burst done: read a page.
            1 => {
                cpu[site] -= 1;
                disk[site] += 1;
                (2, 1.0 + f64::from(disk[site]))
            }
            // Page read: one in ten queries ends, the rest burn CPU again.
            _ => {
                disk[site] -= 1;
                served[site] += 1;
                if u.next() < 0.1 {
                    (0, 100.0)
                } else {
                    cpu[site] += 1;
                    (1, 0.05 * f64::from(cpu[site]))
                }
            }
        };
        let delay = -u.next().ln() * mean;
        area += delay * f64::from(cpu[site] + disk[site]);
        heap.push(Event {
            time: time + delay,
            job,
            stage: next,
        });
    }
    served.iter().sum::<u64>() ^ area.to_bits()
}

/// Seconds one [`task`] takes now.
pub fn timed() -> f64 {
    let started = Instant::now();
    std::hint::black_box(task());
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_is_deterministic() {
        assert_eq!(task(), task());
    }
}
