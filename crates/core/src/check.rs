//! The commit-stage cross-check and majority election (paper §3.2).
//!
//! When all `R` copies of an instruction are complete and oldest in the
//! RUU, their architecturally-relevant fields are compared:
//!
//! * result value (register writers, including load data and link
//!   addresses),
//! * effective address (memory operations — addresses are computed
//!   redundantly even though only one access is performed),
//! * store datum,
//! * branch direction and the implied next PC.
//!
//! "If all entries agree, then they are freed from ROB, retiring a single
//! instruction. If any fields of the entries disagree, then an error has
//! occurred and recovery is required." With `R ≥ 3` and majority election
//! enabled, a value agreed by at least the acceptance threshold commits and
//! the dissenting copies are simply out-voted.

use crate::entry::Entry;

/// Comparable signature of one copy's architectural effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Signature {
    result: Option<u64>,
    ea: Option<u64>,
    store_data: Option<u64>,
    taken: Option<bool>,
    next_pc: u64,
}

impl Signature {
    fn of(e: &Entry) -> Self {
        Self {
            result: e.result,
            ea: e.ea,
            store_data: e.store_data,
            taken: e.taken,
            next_pc: e.computed_next_pc(),
        }
    }
}

/// What commit should do with a checked group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupDecision {
    /// Commit, taking architectural values from the copy at this index
    /// within the group (0 when unanimous; a majority representative
    /// otherwise).
    Commit {
        /// Index of the copy whose values are committed.
        representative: usize,
    },
    /// No acceptable agreement: discard all speculative state and refetch
    /// from the committed next-PC.
    Rewind,
}

/// Result of cross-checking one replication group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The action commit must take.
    pub decision: GroupDecision,
    /// Whether every copy agreed on every field.
    pub unanimous: bool,
    /// Indices (within the group) of copies that disagreed with the
    /// winning value — out-voted under majority election, or all copies on
    /// a rewind (the corrupted copy cannot be identified without a
    /// majority).
    pub dissenters: Vec<usize>,
}

/// Cross-checks the copies of one retiring instruction.
///
/// `majority` enables election with the given acceptance `threshold`
/// (the paper's "how many copies must agree before one accepts the
/// majority result as correct").
///
/// # Panics
///
/// Panics if `group` is empty.
///
/// # Examples
///
/// ```
/// // Unanimous single-copy group commits trivially (R = 1).
/// use ftsim_core::{majority_vote, GroupDecision};
/// // See `majority_vote` for the election primitive.
/// assert_eq!(majority_vote(&[5, 5, 6], 2), Some(0));
/// ```
pub fn check_group(group: &[Entry], majority: bool, threshold: u8) -> CheckOutcome {
    assert!(!group.is_empty(), "cannot check an empty group");
    let first = Signature::of(&group[0]);
    if group[1..].iter().all(|e| Signature::of(e) == first) {
        return CheckOutcome {
            decision: GroupDecision::Commit { representative: 0 },
            unanimous: true,
            dissenters: Vec::new(),
        };
    }
    let sigs: Vec<Signature> = group.iter().map(Signature::of).collect();
    // Loads are special under election: the group shares copy 0's single
    // memory access, so a corrupted *address* poisons every copy's loaded
    // value identically — the corrupted data can then hold a majority while
    // only the address fields disagree. Election is therefore only safe for
    // a load when all copies agree on the effective address; otherwise the
    // shared access cannot be trusted and we must rewind.
    if group[0].inst.op.is_load() {
        let ea0 = group[0].ea;
        if group.iter().any(|e| e.ea != ea0) {
            return CheckOutcome {
                decision: GroupDecision::Rewind,
                unanimous: false,
                dissenters: (0..group.len()).collect(),
            };
        }
    }
    if majority {
        // Find the most-agreed signature.
        let mut best = (0usize, 0usize); // (index, votes)
        for (i, s) in sigs.iter().enumerate() {
            let votes = sigs.iter().filter(|t| *t == s).count();
            if votes > best.1 {
                best = (i, votes);
            }
        }
        if best.1 >= threshold as usize {
            let winner = sigs[best.0];
            let dissenters = sigs
                .iter()
                .enumerate()
                .filter(|(_, s)| **s != winner)
                .map(|(i, _)| i)
                .collect();
            return CheckOutcome {
                decision: GroupDecision::Commit {
                    representative: best.0,
                },
                unanimous: false,
                dissenters,
            };
        }
    }
    CheckOutcome {
        decision: GroupDecision::Rewind,
        unanimous: false,
        dissenters: (0..group.len()).collect(),
    }
}

/// Generic majority election over opaque values: returns the index of a
/// value shared by at least `threshold` entries, preferring the earliest
/// such index, or `None` when no acceptable majority exists.
///
/// # Examples
///
/// ```
/// use ftsim_core::majority_vote;
///
/// assert_eq!(majority_vote(&[7, 7, 7], 2), Some(0));
/// assert_eq!(majority_vote(&[7, 3, 7], 2), Some(0));
/// assert_eq!(majority_vote(&[3, 7, 7], 2), Some(1));
/// assert_eq!(majority_vote(&[1, 2, 3], 2), None);
/// ```
pub fn majority_vote<T: PartialEq>(values: &[T], threshold: u8) -> Option<usize> {
    for (i, v) in values.iter().enumerate() {
        let votes = values.iter().filter(|w| *w == v).count();
        if votes >= threshold as usize {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryState;
    use ftsim_isa::{Inst, Opcode};

    fn done_entry(seq: u64, copy: u8, result: u64) -> Entry {
        let mut e = Entry::new(seq, 0, copy, 0x1000, Inst::new(Opcode::Add, 1, 2, 3, 0), 0);
        e.state = EntryState::Done;
        e.result = Some(result);
        e
    }

    #[test]
    fn unanimous_commits_copy_zero() {
        let a = done_entry(0, 0, 42);
        let b = done_entry(1, 1, 42);
        let out = check_group(&[a, b], false, 2);
        assert_eq!(out.decision, GroupDecision::Commit { representative: 0 });
        assert!(out.unanimous);
        assert!(out.dissenters.is_empty());
    }

    #[test]
    fn single_copy_trivially_commits() {
        let a = done_entry(0, 0, 1);
        let out = check_group(&[a], false, 1);
        assert_eq!(out.decision, GroupDecision::Commit { representative: 0 });
    }

    #[test]
    fn disagreement_without_majority_rewinds() {
        let a = done_entry(0, 0, 42);
        let b = done_entry(1, 1, 43);
        let out = check_group(&[a, b], false, 2);
        assert_eq!(out.decision, GroupDecision::Rewind);
        assert_eq!(out.dissenters, vec![0, 1]);
    }

    #[test]
    fn two_of_three_majority_elects() {
        let a = done_entry(0, 0, 42);
        let b = done_entry(1, 1, 99); // corrupted copy
        let c = done_entry(2, 2, 42);
        let out = check_group(&[a, b, c], true, 2);
        assert_eq!(out.decision, GroupDecision::Commit { representative: 0 });
        assert!(!out.unanimous);
        assert_eq!(out.dissenters, vec![1]);
    }

    #[test]
    fn corrupted_copy_zero_is_outvoted() {
        let a = done_entry(0, 0, 99); // corrupted copy 0
        let b = done_entry(1, 1, 42);
        let c = done_entry(2, 2, 42);
        let out = check_group(&[a, b, c], true, 2);
        assert_eq!(out.decision, GroupDecision::Commit { representative: 1 });
        assert_eq!(out.dissenters, vec![0]);
    }

    #[test]
    fn three_way_disagreement_rewinds_even_with_majority() {
        let a = done_entry(0, 0, 1);
        let b = done_entry(1, 1, 2);
        let c = done_entry(2, 2, 3);
        let out = check_group(&[a, b, c], true, 2);
        assert_eq!(out.decision, GroupDecision::Rewind);
        assert_eq!(out.dissenters.len(), 3);
    }

    #[test]
    fn threshold_three_demands_unanimity() {
        let a = done_entry(0, 0, 42);
        let b = done_entry(1, 1, 42);
        let c = done_entry(2, 2, 7);
        let out = check_group(&[a, b, c], true, 3);
        assert_eq!(out.decision, GroupDecision::Rewind);
    }

    #[test]
    fn mismatch_in_ea_detected() {
        let mut a = done_entry(0, 0, 0);
        let mut b = done_entry(1, 1, 0);
        a.ea = Some(0x100);
        b.ea = Some(0x108); // corrupted address
        let out = check_group(&[a, b], false, 2);
        assert_eq!(out.decision, GroupDecision::Rewind);
    }

    #[test]
    fn mismatch_in_branch_outcome_detected() {
        let mut a = done_entry(0, 0, 0);
        let mut b = done_entry(1, 1, 0);
        a.taken = Some(true);
        a.target = Some(0x2000);
        b.taken = Some(false);
        let out = check_group(&[a, b], false, 2);
        assert_eq!(out.decision, GroupDecision::Rewind);
    }

    #[test]
    fn store_data_mismatch_detected() {
        let mut a = done_entry(0, 0, 0);
        let mut b = done_entry(1, 1, 0);
        a.result = None;
        b.result = None;
        a.ea = Some(0x100);
        b.ea = Some(0x100);
        a.store_data = Some(5);
        b.store_data = Some(6);
        let out = check_group(&[a, b], false, 2);
        assert_eq!(out.decision, GroupDecision::Rewind);
    }

    #[test]
    fn load_with_address_disagreement_never_elects() {
        // Copies of a load share one access: if copy 0's address was
        // corrupted, every copy holds the same wrong value and only the
        // address fields dissent. Election must refuse and rewind.
        let mk = |seq, copy, ea: u64| {
            let mut e = Entry::new(seq, 0, copy, 0x1000, Inst::new(Opcode::Ld, 1, 2, 0, 0), 0);
            e.state = EntryState::Done;
            e.result = Some(0xbad); // identical (poisoned) loaded value
            e.ea = Some(ea);
            e
        };
        let a = mk(0, 0, 0x9000); // corrupted address performed the access
        let b = mk(1, 1, 0x1000);
        let c = mk(2, 2, 0x1000);
        let out = check_group(&[a, b, c], true, 2);
        assert_eq!(out.decision, GroupDecision::Rewind);
    }

    #[test]
    fn load_with_unanimous_address_can_elect_on_value() {
        // Address agrees; one copy's value was struck post-load (RobWait):
        // the two pristine copies out-vote it safely.
        let mk = |seq, copy, v: u64| {
            let mut e = Entry::new(seq, 0, copy, 0x1000, Inst::new(Opcode::Ld, 1, 2, 0, 0), 0);
            e.state = EntryState::Done;
            e.result = Some(v);
            e.ea = Some(0x1000);
            e
        };
        let a = mk(0, 0, 42);
        let b = mk(1, 1, 42);
        let c = mk(2, 2, 43);
        let out = check_group(&[a, b, c], true, 2);
        assert_eq!(out.decision, GroupDecision::Commit { representative: 0 });
        assert_eq!(out.dissenters, vec![2]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_panics() {
        let _ = check_group(&[], false, 1);
    }

    #[test]
    fn majority_vote_prefers_earliest() {
        assert_eq!(majority_vote(&["a", "b", "a"], 2), Some(0));
        assert_eq!(majority_vote::<u32>(&[], 1), None);
    }
}
