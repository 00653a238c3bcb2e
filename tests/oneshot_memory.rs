//! Peak heap of a one-shot checkpointing sweep, against the same grid
//! with checkpointing off.
//!
//! A family's baseline holds its fault-free outcome and its periodic
//! checkpoints, so a runner that kept every baseline until every cell
//! had run would need heap in proportion to the grid's families. The
//! one-shot runner drops each baseline when its family's last cell
//! finishes, so the checkpointing run's peak stays within a fixed
//! multiple of the checkpointing-off run's, whatever the family count.
//!
//! A counting `#[global_allocator]` (this test binary's only) tracks the
//! live heap; [`peak_heap`] reports how far it rose above its level at
//! the start of a closure. The tests take [`SERIAL`] around their
//! measurements, so a concurrently running test does not inflate them.
//!
//! **Bound.** `K = 3`: the checkpointing run may peak at three times
//! the checkpointing-off run. Measured peaks (checkpointing on / off):
//!
//! | grid | threads | runner keeping every baseline | family-by-family runner |
//! |---|---|---|---|
//! | 32 families, debug | 1 | 50.4 / 4.95 MiB (10.2×) | 6.91 / 4.95 MiB (1.40×) |
//! | 32 families, debug | 2 | — | 9.59 / 5.72 MiB (1.68×) |
//! | 32 families, release | 1 | — | 6.88 / 4.58 MiB (1.50×) |
//! | 32 families, release | 2 | — | 9.19 / 4.98 MiB (1.85×) |
//! | 1,024 families, release | 1 | 1,736 / 134 MiB (13.0×) | 137.4 / 134.1 MiB (1.02×) |
//! | 1,024 families, release | 2 | — | 140.0 / 134.5 MiB (1.04×) |
//!
//! (The first column's runner computed every baseline before any cell
//! and stopped at its first failing thread count.) The family-by-family
//! runner keeps at most one baseline per worker alive, about 2.3 MiB each
//! on the small grid, so with two workers the small grid sits near 1.9×
//! however the threads interleave. `K = 3` leaves that room, and a runner
//! that holds every baseline misses it by more than three times on the
//! small grid and four on the wide one.
//!
//! The `#[ignore]`d wide variant is the shape ROADMAP open item 4
//! measured one-shot peaks on (two workloads × two models × rates
//! 0–3k × many budgets), at 1,024 families; run it with
//! `cargo test --release -q --test oneshot_memory -- --ignored`.

use ftsim::harness::{to_csv, Experiment, RunRecord};
use ftsim_core::{MachineConfig, OracleMode};
use ftsim_workloads::profile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Held by each test around its measurements.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its result with the live heap's rise above its
/// level at the call, at its highest.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// Most that the checkpointing run's peak heap may be, as a multiple of
/// the checkpointing-off run's.
const K: f64 = 3.0;

/// A grid of `budgets.len()` × 4 families (fpppp, equake × SS-2, SS-3M),
/// each with rates 0, 300, 1k and 3k per million over `seeds`.
fn grid(budgets: &[u64], seeds: &[u64], threads: usize, checkpointing: bool) -> Experiment {
    Experiment::grid()
        .workloads([profile("fpppp").unwrap(), profile("equake").unwrap()])
        .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
        .fault_rates([0.0, 300.0, 1_000.0, 3_000.0])
        .budgets(budgets.iter().copied())
        .seeds(seeds.iter().copied())
        .oracle(OracleMode::Off)
        .threads(threads)
        .checkpointing(checkpointing)
}

/// Runs the grid with checkpointing off and on at each thread count and
/// asserts identical records and the bound.
fn check(budgets: &[u64], seeds: &[u64], threads: &[usize]) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for &t in threads {
        let run =
            |checkpointing| peak_heap(|| grid(budgets, seeds, t, checkpointing).run().unwrap());
        let (cold, cold_peak): (Vec<RunRecord>, usize) = run(false);
        let (forked, forked_peak) = run(true);
        assert_eq!(to_csv(&cold), to_csv(&forked), "threads {t}: records");
        let ratio = forked_peak as f64 / cold_peak as f64;
        eprintln!(
            "{} families, threads {t}: peak heap {:.2} MiB with checkpointing, \
             {:.2} MiB without ({ratio:.2}x)",
            budgets.len() * 4,
            forked_peak as f64 / 1048576.0,
            cold_peak as f64 / 1048576.0,
        );
        assert!(
            ratio <= K,
            "threads {t}: checkpointing peak {forked_peak} B is {ratio:.2}x the \
             checkpointing-off peak {cold_peak} B (bound {K}x)"
        );
    }
}

#[test]
fn baselines_are_freed_family_by_family() {
    let budgets: Vec<u64> = (0..8).map(|i| 200 + 25 * i).collect();
    check(&budgets, &[1, 2], &[1, 2]);
}

#[test]
#[ignore = "wide: 1,024 families; run in release"]
fn wide_sweep_peak_stays_bounded() {
    let budgets: Vec<u64> = (0..256).map(|i| 200 + i).collect();
    check(&budgets, &[1, 2], &[1, 2]);
}
