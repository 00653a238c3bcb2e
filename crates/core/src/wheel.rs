//! The completion-event wheel: one slot per cycle over a span that covers
//! the machine's longest issue-to-completion latency.
//!
//! Every completion the issue stage schedules lands at most
//! [`MachineConfig::max_completion_latency`](crate::MachineConfig) cycles
//! ahead, so a ring of per-cycle slots a power of two longer than that
//! bound never wraps onto a live cycle. Pushing is an index and an append;
//! writeback takes exactly one slot per cycle and sorts it by
//! `(cycle, seq)` — the order a `(cycle, seq)` min-heap would pop the same
//! events in, so runs are bit-identical to a heap-ordered event queue.
//!
//! Issue runs after writeback within a cycle, so the current cycle's slot
//! has already drained when a completion is scheduled. An event due at or
//! before `now` therefore goes into the next cycle's slot; its smaller
//! cycle number sorts it ahead of that cycle's own events, exactly where
//! a heap would have popped it.

/// Scheduled completion events, bucketed by due cycle.
///
/// `Clone` is what checkpointing captures: the slots are plain owned
/// data, and a restore into a machine of the same configuration has the
/// same span.
#[derive(Debug, Clone)]
pub(crate) struct EventWheel {
    /// `slots[c & mask]` holds the `(cycle, seq)` events that drain at
    /// cycle `c`.
    slots: Vec<Vec<(u64, u64)>>,
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
            slots: vec![Vec::new(); span as usize],
            mask: span - 1,
            len: 0,
        }
    }

    /// Number of per-cycle slots.
    pub(crate) fn span(&self) -> u64 {
        self.mask + 1
    }

    /// Scheduled events not yet drained.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules `seq` to complete at `cycle`, from within cycle `now`
    /// after `now`'s slot has drained.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` lies a full span or more beyond `now` (the
    /// configuration's latency bound was exceeded).
    pub(crate) fn push(&mut self, now: u64, cycle: u64, seq: u64) {
        let due = cycle.max(now + 1);
        assert!(
            due - now < self.span(),
            "completion at cycle {cycle} is beyond the wheel's {}-cycle span at cycle {now}",
            self.span()
        );
        self.slots[(due & self.mask) as usize].push((cycle, seq));
        self.len += 1;
    }

    /// Detaches the events that drain at `now`, sorted by `(cycle, seq)`.
    /// The caller hands the vector back via [`EventWheel::put_drained`].
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<(u64, u64)> {
        let mut due = std::mem::take(&mut self.slots[(now & self.mask) as usize]);
        debug_assert!(due.iter().all(|&(cycle, _)| cycle <= now));
        self.len -= due.len();
        due.sort_unstable();
        due
    }

    /// Returns `now`'s drained slot vector, keeping its storage.
    pub(crate) fn put_drained(&mut self, now: u64, mut due: Vec<(u64, u64)>) {
        due.clear();
        let slot = &mut self.slots[(now & self.mask) as usize];
        debug_assert!(
            slot.is_empty(),
            "an event was scheduled into a draining slot"
        );
        *slot = due;
    }

    /// Drops every scheduled event (full rewind).
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    /// Drains cycle `now` and returns its events in drain order.
    fn drain(w: &mut EventWheel, now: u64) -> Vec<(u64, u64)> {
        let due = w.take_due(now);
        let out = due.clone();
        w.put_drained(now, due);
        out
    }

    #[test]
    fn same_cycle_events_drain_in_ascending_seq() {
        let mut w = EventWheel::new(10);
        w.push(0, 5, 30);
        w.push(0, 5, 10);
        w.push(1, 5, 20);
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
        w.push(7, 8, 1);
        w.push(7, 7, 9); // due now: this cycle's slot has already drained
        w.push(7, 8, 4);
        assert_eq!(drain(&mut w, 8), vec![(7, 9), (8, 1), (8, 4)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn worst_case_latency_lands_in_its_own_slot() {
        let config = MachineConfig::ss2();
        let max = config.max_completion_latency();
        assert_eq!(max, 1 + 6 + 40 + 30, "L1 + L2 + memory + dTLB miss");
        let mut w = EventWheel::new(max);
        assert_eq!(w.span(), 128);
        let now = 1_000;
        w.push(now, now + max, 42);
        w.push(now, now + 1, 41);
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
        w.push(0, 128, 1);
    }

    #[test]
    fn clear_drops_every_event() {
        let mut w = EventWheel::new(10);
        w.push(3, 4, 1);
        w.push(3, 12, 2);
        w.clear();
        assert_eq!(w.len(), 0);
        for now in 4..=20 {
            assert!(drain(&mut w, now).is_empty());
        }
    }
}
