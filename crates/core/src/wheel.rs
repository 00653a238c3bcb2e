//! The completion-event wheel: one bucket per cycle over a span that covers
//! the machine's longest issue-to-completion latency.
//!
//! Every completion the issue stage schedules lands at most
//! [`MachineConfig::max_completion_latency`](crate::MachineConfig) cycles
//! ahead, so a ring of per-cycle buckets a power of two longer than that
//! bound never wraps onto a live cycle. Pushing is an index and an append;
//! writeback takes exactly one bucket per cycle and sorts it by
//! `(cycle, seq)` — the order a `(cycle, seq)` min-heap would pop the same
//! events in, so runs are bit-identical to a heap-ordered event queue.
//! Each event also carries the entry's RUU slot, so writeback reaches the
//! entry without a search; the sequence number is the generation tag
//! that tells the entry from a younger occupant of a reused slot.
//!
//! Issue runs after writeback within a cycle, so the current cycle's bucket
//! has already drained when a completion is scheduled. An event due at or
//! before `now` therefore goes into the next cycle's bucket; its smaller
//! cycle number sorts it ahead of that cycle's own events, exactly where
//! a heap would have popped it.
//!
//! A bitset marks the non-empty buckets, so [`EventWheel::next_due`] — the
//! completion wake source of the quiet-cycle skip — is a few word
//! operations rather than a walk over the buckets.

/// One completion: `(cycle, seq, RUU slot)`. Sequence numbers are unique,
/// so sorting these orders by `(cycle, seq)`.
pub(crate) type Event = (u64, u64, u32);

/// Scheduled completion events, bucketed by due cycle.
///
/// `Clone` is what checkpointing captures: the buckets are plain owned
/// data, and a restore into a machine of the same configuration has the
/// same span.
#[derive(Debug, Clone)]
pub(crate) struct EventWheel {
    /// `buckets[c & mask]` holds the events that drain at cycle `c`.
    buckets: Vec<Vec<Event>>,
    /// Bit `i` is set iff `buckets[i]` holds an event.
    occupied: Vec<u64>,
    mask: u64,
    /// Events scheduled and not yet drained.
    len: usize,
}

impl EventWheel {
    /// An empty wheel whose span is the smallest power of two above
    /// `max_latency`.
    pub(crate) fn new(max_latency: u64) -> Self {
        let span = (max_latency + 1).next_power_of_two();
        Self {
            buckets: vec![Vec::new(); span as usize],
            occupied: vec![0; (span as usize).div_ceil(64)],
            mask: span - 1,
            len: 0,
        }
    }

    /// Number of per-cycle buckets.
    pub(crate) fn span(&self) -> u64 {
        self.mask + 1
    }

    /// Scheduled events not yet drained.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules entry `seq`, in RUU slot `ruu_slot`, to complete at
    /// `cycle`, from within cycle `now` after `now`'s bucket has drained.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` lies a full span or more beyond `now` (the
    /// configuration's latency bound was exceeded).
    pub(crate) fn push(&mut self, now: u64, cycle: u64, seq: u64, ruu_slot: usize) {
        let due = cycle.max(now + 1);
        assert!(
            due - now < self.span(),
            "completion at cycle {cycle} is beyond the wheel's {}-cycle span at cycle {now}",
            self.span()
        );
        let bucket = (due & self.mask) as usize;
        self.buckets[bucket].push((cycle, seq, ruu_slot as u32));
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
        self.len += 1;
    }

    /// Detaches the events that drain at `now`, sorted by `(cycle, seq)`.
    /// The caller hands the vector back via [`EventWheel::put_drained`].
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<Event> {
        let bucket = (now & self.mask) as usize;
        let mut due = std::mem::take(&mut self.buckets[bucket]);
        self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        debug_assert!(due.iter().all(|&(cycle, _, _)| cycle <= now));
        self.len -= due.len();
        due.sort_unstable();
        due
    }

    /// Returns `now`'s drained bucket vector, keeping its storage.
    pub(crate) fn put_drained(&mut self, now: u64, mut due: Vec<Event>) {
        due.clear();
        let bucket = &mut self.buckets[(now & self.mask) as usize];
        debug_assert!(
            bucket.is_empty(),
            "an event was scheduled into a draining bucket"
        );
        *bucket = due;
    }

    /// Drops every scheduled event (full rewind).
    pub(crate) fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied.fill(0);
        self.len = 0;
    }

    /// The first cycle at or after `now` whose bucket holds an event, or
    /// `None` when nothing is scheduled. Called between cycles: `now`'s
    /// predecessor has drained, so every event drains within one span of
    /// `now` and the search wraps the ring at most once.
    pub(crate) fn next_due(&self, now: u64) -> Option<u64> {
        let span = self.span() as usize;
        let start = (now & self.mask) as usize;
        let offset = match self.first_occupied(start, span) {
            Some(bucket) => bucket - start,
            None => self.first_occupied(0, start)? + span - start,
        };
        Some(now + offset as u64)
    }

    /// The lowest occupied bucket in `from..to`.
    fn first_occupied(&self, from: usize, to: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.occupied.get(word)? & (!0 << (from % 64));
        loop {
            if bits != 0 {
                let bucket = word * 64 + bits.trailing_zeros() as usize;
                return (bucket < to).then_some(bucket);
            }
            word += 1;
            if word * 64 >= to {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    /// Drains cycle `now` and returns its events in drain order.
    fn drain(w: &mut EventWheel, now: u64) -> Vec<(u64, u64)> {
        let due = w.take_due(now);
        let out = due.iter().map(|&(cycle, seq, _)| (cycle, seq)).collect();
        w.put_drained(now, due);
        out
    }

    #[test]
    fn same_cycle_events_drain_in_ascending_seq() {
        let mut w = EventWheel::new(10);
        w.push(0, 5, 30, 0);
        w.push(0, 5, 10, 0);
        w.push(1, 5, 20, 0);
        assert_eq!(w.len(), 3);
        for now in 1..5 {
            assert!(drain(&mut w, now).is_empty());
        }
        assert_eq!(drain(&mut w, 5), vec![(5, 10), (5, 20), (5, 30)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn event_due_now_drains_next_cycle_ahead_of_that_cycles_events() {
        let mut w = EventWheel::new(10);
        w.push(7, 8, 1, 0);
        w.push(7, 7, 9, 0); // due now: this cycle's bucket has already drained
        w.push(7, 8, 4, 0);
        assert_eq!(drain(&mut w, 8), vec![(7, 9), (8, 1), (8, 4)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn worst_case_latency_lands_in_its_own_bucket() {
        let config = MachineConfig::ss2();
        let max = config.max_completion_latency();
        assert_eq!(max, 1 + 6 + 40 + 30, "L1 + L2 + memory + dTLB miss");
        let mut w = EventWheel::new(max);
        assert_eq!(w.span(), 128);
        let now = 1_000;
        w.push(now, now + max, 42, 0);
        w.push(now, now + 1, 41, 0);
        for c in now + 1..now + max {
            let expect = if c == now + 1 { vec![(c, 41)] } else { vec![] };
            assert_eq!(drain(&mut w, c), expect, "cycle {c}");
        }
        assert_eq!(drain(&mut w, now + max), vec![(now + max, 42)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond the wheel")]
    fn push_past_the_span_panics() {
        let mut w = EventWheel::new(77);
        w.push(0, 128, 1, 0);
    }

    #[test]
    fn next_due_finds_the_nearest_bucket_across_the_wrap() {
        let mut w = EventWheel::new(77);
        assert_eq!(w.next_due(0), None);
        // Buckets 125 and, after the wrap, 2 (cycles 125 and 130).
        w.push(100, 130, 1, 0);
        w.push(100, 125, 2, 0);
        assert_eq!(w.next_due(101), Some(125));
        for now in 101..125 {
            assert!(drain(&mut w, now).is_empty());
        }
        assert_eq!(w.next_due(125), Some(125));
        assert_eq!(drain(&mut w, 125), vec![(125, 2)]);
        assert_eq!(w.next_due(126), Some(130));
        assert_eq!(drain(&mut w, 130), vec![(130, 1)]);
        assert_eq!(w.next_due(131), None);
    }

    #[test]
    fn next_due_covers_a_span_narrower_than_a_word() {
        let mut w = EventWheel::new(5);
        assert_eq!(w.span(), 8);
        w.push(6, 9, 1, 0); // bucket 1, after the wrap
        assert_eq!(w.next_due(7), Some(9));
        w.push(6, 7, 2, 0);
        assert_eq!(w.next_due(7), Some(7));
        w.clear();
        assert_eq!(w.next_due(7), None);
    }

    #[test]
    fn clear_drops_every_event() {
        let mut w = EventWheel::new(10);
        w.push(3, 4, 1, 0);
        w.push(3, 12, 2, 0);
        w.clear();
        assert_eq!(w.len(), 0);
        for now in 4..=20 {
            assert!(drain(&mut w, now).is_empty());
        }
    }
}
