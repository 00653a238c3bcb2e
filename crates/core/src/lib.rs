//! # ftsim-core — the fault-tolerant superscalar
//!
//! A cycle-level, execution-driven out-of-order superscalar simulator
//! implementing the MICRO 2001 proposal of Ray, Hoe and Falsafi: *dual use
//! of the superscalar datapath for transient-fault detection and recovery*.
//!
//! ## The mechanism (paper §3)
//!
//! 1. **Instruction injection** — at decode, every fetched instruction is
//!    replicated into `R` copies occupying *consecutive* RUU (ROB) entries.
//!    Register renaming links copy *k* of a consumer to copy *k* of its
//!    producer, creating `R` data-independent threads from one instruction
//!    stream with a single (ECC-protected) map table.
//! 2. **Fault detection** — the threads re-merge at commit: an instruction
//!    retires only when all `R` copies are complete and the oldest, and
//!    their results, effective addresses, store data and branch outcomes
//!    agree. A retiring instruction's PC is also checked against the
//!    ECC-protected committed next-PC register (control-flow check).
//! 3. **Recovery** — any disagreement triggers the pre-existing
//!    instruction-rewind mechanism: discard all speculative state and
//!    refetch from the committed next-PC. With `R ≥ 3`, majority election
//!    can instead commit the agreeing value. Only cross-checked values ever
//!    reach committed state, so committed state stays correct under any
//!    single transient fault.
//!
//! ## The machine
//!
//! The baseline configuration reproduces the paper's Table 1 (8-wide,
//! RUU 128 / LSQ 64, 4 integer ALUs, 2 integer multipliers, 2 FP adders,
//! 1 FP multiplier/divider, combined branch predictor, 64 KB L1I / 32 KB
//! 2-port L1D / 512 KB L2). Presets for the three evaluated machines —
//! SS-1, SS-2 and Static-2 — live in [`MachineConfig`].
//!
//! ## Example
//!
//! ```
//! use ftsim_core::{MachineConfig, Simulator};
//! use ftsim_isa::asm;
//!
//! let program = asm::assemble(r"
//!     addi r1, r0, 100
//!     addi r2, r0, 0
//! loop:
//!     add  r2, r2, r1
//!     addi r1, r1, -1
//!     bne  r1, r0, loop
//!     halt
//! ").unwrap();
//!
//! // Run once on the plain superscalar, once with 2-way redundancy.
//! let base = Simulator::builder()
//!     .config(MachineConfig::ss1())
//!     .program(&program)
//!     .run()
//!     .unwrap();
//! let dual = Simulator::builder()
//!     .config(MachineConfig::ss2())
//!     .program(&program)
//!     .run()
//!     .unwrap();
//! assert_eq!(base.retired_instructions, dual.retired_instructions);
//! assert!(dual.cycles >= base.cycles); // redundancy costs throughput
//! ```

#![warn(missing_docs)]

mod build;
mod check;
mod checkpoint;
mod commit;
mod config;
mod dispatch;
mod entry;
mod fetch;
mod fu;
mod issue;
mod lsq;
mod pipeline;
pub mod profile;
mod rename;
mod ruu;
mod sched;
mod sim;
mod stats;
mod wheel;
mod writeback;

pub use build::{BuildError, SimBuilder};
pub use check::{majority_vote, CheckOutcome, GroupDecision};
pub use checkpoint::{fork_point, Checkpoint};
pub use config::{ConfigError, FuConfig, MachineConfig, OpLatencies, RedundancyConfig, Scale};
pub use entry::{EntryState, Prediction};
#[cfg(feature = "plant")]
pub use pipeline::arm_plant;
pub use pipeline::{Processor, SchedulerDepths};
pub use profile::StageProfile;
pub use sim::{OracleMode, RunLimits, SimError, SimResult, Simulator};
pub use stats::SimStats;
