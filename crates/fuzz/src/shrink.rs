//! Violation minimization: shrink the *program* (drop generated blocks,
//! halve iterations) and, for fault-dependent invariants, the *fault
//! plan* (ddmin over the fired events, replayed deterministically via
//! [`FaultPlan`]).
//!
//! Every candidate is re-checked against the same invariant on the
//! offending cell in isolation — a shrink step survives only if the
//! smaller input still violates. The generation grammar is closed under
//! shrinking (dropping a block never perturbs the surviving blocks), so
//! candidate programs stay predictable-by-construction and the
//! self-check invariant keeps meaning the same thing all the way down.

use crate::harness::{
    budget_for, check_axes, check_spec, self_check, Invariant, SeedOutcome, Violation,
};
use ftsim::harness::checkpoint_interval;
use ftsim_core::{fork_point, SimBuilder, SimError, SimResult, Simulator};
use ftsim_daemon::model_by_name;
use ftsim_faults::{per_million, FaultInjector, FaultPlan, InjectionPoint, SiteMix};
use ftsim_workloads::{FuzzProgram, FuzzSpec};

/// One fired fault event, extracted from a random-injector run's fault
/// log and replayable through [`FaultPlan`]. The (dispatch, copy) pair is
/// the same key the injector, log, and plan all use, so a logged event
/// replayed as a plan event lands on the same victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEvent {
    /// Dispatch index of the victim instruction.
    pub dispatch: u64,
    /// Victim copy (0-based, `< r`).
    pub copy: u8,
    /// Corruption site.
    pub point: InjectionPoint,
    /// Bit to flip.
    pub bit: u8,
}

/// A minimized, replayable violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Fuzz seed the violation came from.
    pub seed: u64,
    /// The violated invariant.
    pub invariant: Invariant,
    /// Detail line from the final (minimal) violating check.
    pub detail: String,
    /// Minimal generation spec.
    pub spec: FuzzSpec,
    /// Machine model of the offending cell (empty for `self-check`).
    pub model: String,
    /// Fault rate (per million) of the offending cell.
    pub rate_pm: f64,
    /// Site-mix preset of the offending cell (empty for `self-check`).
    pub mix: String,
    /// Budget the repro was minimized at (replay uses it verbatim).
    pub budget: u64,
    /// Minimal fault plan, when the invariant is fault-dependent and the
    /// fired events reproduce the violation deterministically.
    pub plan: Option<Vec<PlanEvent>>,
}

/// ddmin: greedily removes chunks (halving the chunk size on stagnation)
/// while `test` keeps returning `true` on the reduced input. Returns a
/// 1-minimal subset (removing any single surviving element breaks the
/// violation).
fn ddmin<T: Clone>(mut items: Vec<T>, test: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    if items.is_empty() {
        return items;
    }
    let mut chunk = items.len().div_ceil(2);
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < items.len() {
            let end = (start + chunk).min(items.len());
            let cand: Vec<T> = items[..start]
                .iter()
                .chain(&items[end..])
                .cloned()
                .collect();
            if test(&cand) {
                items = cand;
                reduced = true;
            } else {
                start = end;
            }
        }
        if items.is_empty() {
            break;
        }
        if reduced {
            chunk = chunk.min(items.len().div_ceil(2)).max(1);
            continue;
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    items
}

/// Re-checks `spec` against the violation's invariant on the offending
/// cell in isolation. Rate 0 is kept alongside the faulty rate so the
/// family still has its free baseline and the forked sweep still forks.
fn spec_violates(
    spec: &FuzzSpec,
    seed: u64,
    budget_override: Option<u64>,
    v: &Violation,
) -> Option<String> {
    if v.invariant == Invariant::SelfCheck {
        return self_check(&spec.generate()).err();
    }
    let outcome = if v.model.is_empty() {
        // Grid-level violations (round-trip, record-count mismatches)
        // have no single offending cell; re-check the full grid.
        check_spec(spec, seed, budget_override)
    } else {
        let rates: Vec<f64> = if v.rate_pm == 0.0 {
            vec![0.0]
        } else {
            vec![0.0, v.rate_pm]
        };
        check_axes(
            spec,
            seed,
            budget_override,
            &[v.model.as_str()],
            &rates,
            &[v.mix.as_str()],
        )
    };
    outcome
        .violation
        .filter(|w| w.invariant == v.invariant)
        .map(|w| w.detail)
}

/// Minimizes a violating outcome to a replayable [`Repro`]. Returns
/// `None` when the outcome has no violation.
pub fn shrink(outcome: &SeedOutcome, budget_override: Option<u64>) -> Option<Repro> {
    let v = outcome.violation.as_ref()?;
    let seed = outcome.seed;
    let mut spec = outcome.spec.clone();
    let mut detail = v.detail.clone();

    // Two rounds of [iteration halving, block ddmin]: dropping blocks can
    // unlock further iteration reduction and vice versa.
    for _ in 0..2 {
        // Iterations: try the floor outright, then binary-search down.
        if spec.iterations > 1 {
            let mut cand = spec.clone();
            cand.iterations = 1;
            if let Some(d) = spec_violates(&cand, seed, budget_override, v) {
                spec = cand;
                detail = d;
            } else {
                while spec.iterations > 1 {
                    let mut cand = spec.clone();
                    cand.iterations = spec.iterations / 2;
                    match spec_violates(&cand, seed, budget_override, v) {
                        Some(d) => {
                            spec = cand;
                            detail = d;
                        }
                        None => break,
                    }
                }
            }
        }

        // Blocks: ddmin over the kept indices.
        let base = spec.clone();
        let kept = ddmin(base.kept(), &mut |subset: &[u32]| {
            let mut cand = base.clone();
            cand.keep = Some(subset.to_vec());
            spec_violates(&cand, seed, budget_override, v).is_some()
        });
        spec.keep = if kept.len() == spec.blocks as usize {
            None
        } else {
            Some(kept)
        };
        if let Some(d) = spec_violates(&spec, seed, budget_override, v) {
            detail = d;
        }
    }

    let fp = spec.generate();
    let budget = budget_for(&fp, budget_override);

    // Fault-plan minimization: extract the fired events from the
    // offending cell's random-injector run, confirm they reproduce the
    // violation as an explicit plan, then bisect them.
    let mut plan = None;
    if v.invariant.fault_dependent() && v.rate_pm > 0.0 && !v.model.is_empty() {
        let events = collect_plan(&fp, &v.model, budget, v.rate_pm, &v.mix, seed);
        let mut plan_test = |subset: &[PlanEvent]| {
            plan_mismatch(&fp, &v.model, budget, v.invariant, subset).is_some()
        };
        if plan_test(&events) {
            let minimal = ddmin(events, &mut plan_test);
            detail = plan_mismatch(&fp, &v.model, budget, v.invariant, &minimal)
                .expect("the minimal plan still violates");
            plan = Some(minimal);
        }
    }

    Some(Repro {
        seed,
        invariant: v.invariant,
        detail,
        spec,
        model: v.model.clone(),
        rate_pm: v.rate_pm,
        mix: v.mix.clone(),
        budget,
        plan,
    })
}

fn cell_builder(fp: &FuzzProgram, model: &str, budget: u64) -> SimBuilder {
    Simulator::builder()
        .config(model_by_name(model).expect("known model name"))
        .program(&fp.program)
        .budget(budget)
}

fn build_plan(events: &[PlanEvent]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for e in events {
        plan.add(e.dispatch, e.copy, e.point, e.bit);
    }
    plan
}

/// Everything a forked run must reproduce about a cold run, flattened to
/// one comparable line.
fn fingerprint(outcome: &Result<SimResult, SimError>) -> String {
    match outcome {
        Ok(r) => format!(
            "ok halted={} cycles={} retired={} digest={:#018x} injected={} detected={} \
             masked={} escaped={} pending={} fault_rewinds={} load_forwards={} dispatched={}",
            r.halted,
            r.cycles,
            r.retired_instructions,
            r.state_digest,
            r.faults.injected,
            r.faults.detected,
            r.faults.masked,
            r.faults.escaped,
            r.faults.pending,
            r.stats.fault_rewinds,
            r.stats.load_forwards,
            r.stats.dispatched_entries,
        ),
        Err(e) => format!("err {e}"),
    }
}

/// Runs the offending cell once with its random injector and returns
/// every fault the log recorded, as replayable plan events.
fn collect_plan(
    fp: &FuzzProgram,
    model: &str,
    budget: u64,
    rate_pm: f64,
    mix: &str,
    seed: u64,
) -> Vec<PlanEvent> {
    let mix = SiteMix::preset(mix).expect("mix preset");
    let injector = FaultInjector::random_with_mix(per_million(rate_pm), seed, &mix);
    let mut sim = match cell_builder(fp, model, budget).injector(injector).build() {
        Ok(sim) => sim,
        Err(_) => return Vec::new(),
    };
    let max_cycles = 100 * budget.max(1_000);
    let proc = sim.processor_mut();
    while !proc.halted() && proc.now() < max_cycles {
        proc.cycle();
        if proc.now() % 64 == 0 && proc.stats_snapshot().retired_instructions >= budget {
            break;
        }
    }
    proc.fault_log()
        .records()
        .iter()
        .map(|r| PlanEvent {
            dispatch: r.dispatch_seq,
            copy: r.copy,
            point: r.event.point,
            bit: r.event.bit,
        })
        .collect()
}

/// Checks whether an explicit fault plan reproduces a fault-dependent
/// violation on one cell; returns the divergence detail when it does.
///
/// For `forked-cold-identity` this replays the plan twice — cold, and
/// forked from the newest baseline checkpoint at or before the first
/// event's dispatch index (the same fork rule the experiment harness
/// uses) — and compares full fingerprints. An empty plan still forks
/// from the newest checkpoint: the harness forks on the first *possible*
/// fire, which can lie beyond the run entirely, so a fork with no fired
/// fault is a real execution mode (and exactly the one a
/// checkpoint-state bug diverges in).
pub fn plan_mismatch(
    fp: &FuzzProgram,
    model: &str,
    budget: u64,
    invariant: Invariant,
    events: &[PlanEvent],
) -> Option<String> {
    match invariant {
        Invariant::ForkedColdIdentity => {
            let plan = build_plan(events);
            let bound = plan.first_event_cycle().unwrap_or(u64::MAX);
            let cold = fingerprint(
                &cell_builder(fp, model, budget)
                    .injector(FaultInjector::from_plan(build_plan(events)))
                    .run(),
            );
            // Fault-free baseline, checkpointing up to the fork bound.
            let (_, checkpoints) = cell_builder(fp, model, budget)
                .build()
                .ok()?
                .run_with_checkpoints(checkpoint_interval(budget), bound);
            let cp = fork_point(&checkpoints, bound)?.clone();
            let mut sim = cell_builder(fp, model, budget)
                .injector(FaultInjector::from_plan(plan))
                .build()
                .ok()?;
            sim.processor_mut().fork(cp);
            let forked = fingerprint(&sim.run());
            (cold != forked).then(|| format!("cold [{cold}] != forked [{forked}]"))
        }
        Invariant::MaskedDigest => {
            let faulty = cell_builder(fp, model, budget)
                .injector(FaultInjector::from_plan(build_plan(events)))
                .run()
                .ok()?;
            if !faulty.halted
                || faulty.faults.injected == 0
                || faulty.faults.escaped != 0
                || faulty.faults.pending != 0
            {
                return None;
            }
            let base = cell_builder(fp, model, budget).run().ok()?;
            if !base.halted || base.retired_instructions != faulty.retired_instructions {
                return None;
            }
            (faulty.state_digest != base.state_digest).then(|| {
                format!(
                    "all {} faults masked, same retirement, but digest {:#018x} != fault-free {:#018x}",
                    faulty.faults.injected, faulty.state_digest, base.state_digest
                )
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_a_one_minimal_subset() {
        // The violation needs both 3 and 7 present; everything else is noise.
        let items: Vec<u32> = (0..16).collect();
        let mut calls = 0;
        let minimal = ddmin(items, &mut |subset| {
            calls += 1;
            subset.contains(&3) && subset.contains(&7)
        });
        assert_eq!(minimal, vec![3, 7]);
        assert!(calls < 200, "ddmin ran {calls} probes on 16 items");
    }

    #[test]
    fn ddmin_reaches_the_empty_set_when_anything_violates() {
        let minimal = ddmin((0..9u32).collect(), &mut |_| true);
        assert!(minimal.is_empty());
    }

    #[test]
    fn ddmin_keeps_everything_when_only_the_full_set_violates() {
        let items: Vec<u32> = (0..5).collect();
        let full = items.clone();
        let minimal = ddmin(items, &mut |subset| subset == full.as_slice());
        assert_eq!(minimal, full);
    }
}
