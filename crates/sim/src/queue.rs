//! A stable priority queue of timestamped events.

use crate::SimTime;

/// Children per node of the implicit heap. A 4-ary layout keeps the tree
/// half as deep as a binary one and touches sibling keys that sit in the
/// same cache line, which measurably helps the pop-heavy access pattern
/// of a discrete-event loop (pops always sift from the root; pushes of
/// near-future events rarely sift far).
const ARITY: usize = 4;

/// A future-event set: a min-priority queue keyed by [`SimTime`].
///
/// Unlike a plain `BinaryHeap`, the queue is **stable**: two events scheduled
/// for the same instant are popped in the order they were pushed. Stability
/// makes simulations deterministic even when many events share a timestamp
/// (common in models with constant service times), which in turn makes
/// regression tests reproducible.
///
/// Entries live inline in one flat `Vec` arranged as an implicit
/// [`ARITY`]-ary heap: no per-event allocation happens on push, and the
/// buffer is retained across pops, so a long simulation reaches its
/// high-water mark once and never touches the allocator again.
///
/// # Timer slots
///
/// Besides the heap, the queue keeps re-armable *timer slots*, each
/// holding at most one pending event: [`EventQueue::arm`] replaces the
/// slot's event in place and [`EventQueue::disarm`] cancels it. A host
/// whose next event at some station is re-announced on every state
/// change (a processor-sharing CPU) arms one slot instead of pushing an
/// announcement that the next change supersedes. An armed event takes the
/// next insertion number exactly as [`EventQueue::push`] would, and every
/// read ([`pop`](EventQueue::pop), [`peek`](EventQueue::peek),
/// [`len`](EventQueue::len), …) merges the armed slots with the heap in
/// `(time, insertion)` order, so replacing a push by an arm of the same
/// event leaves the order of every surviving event unchanged.
///
/// # Example
///
/// ```
/// use dqa_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::new(2.0), "late");
/// q.push(SimTime::new(1.0), "early");
/// q.push(SimTime::new(1.0), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::new(1.0), "early")));
/// assert_eq!(q.pop(), Some((SimTime::new(1.0), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::new(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    entries: Vec<Entry<E>>,
    /// The timer slots, indexed by slot number; `None` is disarmed.
    slots: Vec<Option<Entry<E>>>,
    /// The key and index of the armed slot due first, if any is armed.
    first_slot: Option<((SimTime, u64), usize)>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The total-order key: earliest time first, then insertion order.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            slots: Vec::new(),
            first_slot: None,
            seq: 0,
        }
    }

    /// Takes the next insertion number.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `payload` to fire at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq();
        self.entries.push(Entry { time, seq, payload });
        self.sift_up(self.entries.len() - 1);
    }

    /// Arms timer slot `slot` to fire `payload` at `time`, replacing
    /// whatever event the slot held. The event takes the next insertion
    /// number, exactly as [`EventQueue::push`] does, so it pops after
    /// every event already queued for the same instant.
    #[inline]
    pub fn arm(&mut self, slot: usize, time: SimTime, payload: E) {
        let seq = self.next_seq();
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(Entry { time, seq, payload });
        let key = (time, seq);
        self.first_slot = match self.first_slot {
            // The earliest slot moved later: another slot may now lead.
            Some((first_key, first)) if first == slot && first_key < key => self.scan_slots(),
            Some((first_key, first)) if first_key < key => Some((first_key, first)),
            _ => Some((key, slot)),
        };
    }

    /// Cancels the event armed in timer slot `slot`, if any.
    #[inline]
    pub fn disarm(&mut self, slot: usize) {
        if let Some(armed) = self.slots.get_mut(slot) {
            *armed = None;
            if self.first_slot.is_some_and(|(_, first)| first == slot) {
                self.first_slot = self.scan_slots();
            }
        }
    }

    /// The armed slot with the smallest key, and that key, by a linear
    /// scan: there is one slot per re-announcing station, so few.
    fn scan_slots(&self) -> Option<((SimTime, u64), usize)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (e.key(), i)))
            .min()
    }

    /// The armed slot whose event is due before the heap's root, if any.
    #[inline]
    fn slot_leads(&self) -> Option<usize> {
        let (key, slot) = self.first_slot?;
        match self.entries.first() {
            Some(root) if root.key() < key => None,
            _ => Some(slot),
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties on time are broken by insertion order.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(slot) = self.slot_leads() {
            let entry = self.slots[slot].take()?;
            self.first_slot = self.scan_slots();
            return Some((entry.time, entry.payload));
        }
        if self.entries.is_empty() {
            return None;
        }
        let root = self.entries.swap_remove(0);
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        Some((root.time, root.payload))
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    #[inline]
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(t, _)| t)
    }

    /// Returns the earliest pending event and its timestamp without
    /// removing it.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let head = match self.slot_leads() {
            Some(slot) => self.slots[slot].as_ref(),
            None => self.entries.first(),
        };
        head.map(|e| (e.time, &e.payload))
    }

    /// Returns the number of pending events, armed slots included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len() + self.slots.iter().flatten().count()
    }

    /// Returns `true` if no events are pending, armed slots included.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.first_slot.is_none()
    }

    /// Removes all pending events and disarms every slot (the buffers'
    /// capacity is retained).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.slots.fill_with(|| None);
        self.first_slot = None;
    }

    /// Restores the heap property upward from `i` after a push.
    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.entries[i].key() < self.entries[parent].key() {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Restores the heap property downward from `i` after a pop.
    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.entries.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            let last = (first + ARITY).min(len);
            for child in (first + 1)..last {
                if self.entries[child].key() < self.entries[min].key() {
                    min = child;
                }
            }
            if self.entries[min].key() < self.entries[i].key() {
                self.entries.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(SimTime::new(t), t as u32);
        }
        let mut got = Vec::new();
        while let Some((_, v)) = q.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::new(7.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime::new(7.0), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_shows_the_earliest_payload() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.push(SimTime::new(2.0), "late");
        q.push(SimTime::new(1.0), "early");
        q.push(SimTime::new(1.0), "early-second");
        assert_eq!(q.peek(), Some((SimTime::new(1.0), &"early")));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), ());
        q.push(SimTime::new(2.0), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(10.0), 10);
        q.push(SimTime::new(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::new(5.0), 5);
        q.push(SimTime::new(0.5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn random_workload_pops_sorted_and_stable() {
        // Deterministic LCG-driven stress: push/pop interleaving over a
        // small set of distinct times exercises every sift path, and ties
        // must preserve push order.
        let mut q = EventQueue::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        let mut pushed = 0u64;
        for _ in 0..10_000 {
            if next() % 3 != 0 {
                let t = SimTime::new((next() % 16) as f64);
                q.push(t, pushed);
                pushed += 1;
            } else {
                let _ = q.pop();
            }
        }
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e);
        }
        for w in drained.windows(2) {
            assert!(w[0].0 <= w[1].0, "times out of order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated for equal times");
            }
        }
    }

    #[test]
    fn arm_replaces_the_slot_and_disarm_cancels_it() {
        let mut q = EventQueue::new();
        q.arm(0, SimTime::new(3.0), "first");
        q.arm(0, SimTime::new(5.0), "second");
        q.push(SimTime::new(4.0), "pushed");
        q.arm(1, SimTime::new(1.0), "other");
        q.disarm(1);
        q.disarm(1); // disarming an empty slot is a no-op
        q.disarm(7); // as is disarming a slot never armed
        assert_eq!(q.pop(), Some((SimTime::new(4.0), "pushed")));
        assert_eq!(q.pop(), Some((SimTime::new(5.0), "second")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_rearm_pops_after_events_already_at_its_instant() {
        let mut q = EventQueue::new();
        q.arm(0, SimTime::new(2.0), "armed-early");
        q.push(SimTime::new(2.0), "pushed");
        // The re-arm takes a fresh insertion number, so it now ties with
        // `pushed` and loses the tie, although the slot was armed first.
        q.arm(0, SimTime::new(2.0), "re-armed");
        q.push(SimTime::new(2.0), "pushed-after");
        assert_eq!(q.pop(), Some((SimTime::new(2.0), "pushed")));
        assert_eq!(q.pop(), Some((SimTime::new(2.0), "re-armed")));
        assert_eq!(q.pop(), Some((SimTime::new(2.0), "pushed-after")));
    }

    #[test]
    fn the_earliest_of_several_slots_leads() {
        let mut q = EventQueue::new();
        q.arm(0, SimTime::new(4.0), 0);
        q.arm(1, SimTime::new(2.0), 1);
        q.arm(2, SimTime::new(3.0), 2);
        // Moving the leading slot later hands the lead to the next one.
        q.arm(1, SimTime::new(6.0), 1);
        assert_eq!(q.peek(), Some((SimTime::new(3.0), &2)));
        q.disarm(2);
        assert_eq!(q.peek_time(), Some(SimTime::new(4.0)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, [0, 1]);
    }

    #[test]
    fn len_peek_and_clear_count_armed_slots() {
        let mut q = EventQueue::new();
        q.arm(3, SimTime::new(1.0), "armed");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek(), Some((SimTime::new(1.0), &"armed")));
        q.push(SimTime::new(2.0), "pushed");
        q.arm(3, SimTime::new(3.0), "re-armed");
        assert_eq!(q.len(), 2, "a re-arm replaces, it does not add");
        assert_eq!(q.peek(), Some((SimTime::new(2.0), &"pushed")));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop(), None);
        q.arm(3, SimTime::new(1.0), "after-clear");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn capacity_is_retained_across_clear() {
        let mut q = EventQueue::new();
        for i in 0..512 {
            q.push(SimTime::new(f64::from(i)), i);
        }
        q.clear();
        assert!(q.is_empty());
        // Sequence numbers keep increasing, so stability spans clears.
        q.push(SimTime::new(1.0), 7);
        assert_eq!(q.pop(), Some((SimTime::new(1.0), 7)));
    }
}
