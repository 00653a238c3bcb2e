//! Memory substrate for the `ftsim` fault-tolerant superscalar simulator.
//!
//! The paper's evaluation platform (SimpleScalar `sim-outorder`, Table 1)
//! models a two-level cache hierarchy in front of a flat memory:
//!
//! * 64 KB 2-way L1 instruction cache,
//! * 32 KB 2-way L1 data cache with 2 read/write ports,
//! * 512 KB 4-way unified L2,
//! * instruction/data TLBs.
//!
//! This crate provides those pieces:
//!
//! * [`SparseMemory`] — a byte-addressable, paged, lazily-allocated main
//!   memory that also serves as the *committed architectural memory* (the
//!   paper assumes all committed state is ECC-protected; correspondingly the
//!   fault injector never targets this structure);
//! * [`Cache`] — a set-associative, write-back/write-allocate, LRU cache
//!   timing model;
//! * [`Tlb`] — a page-granularity translation cache;
//! * [`Hierarchy`] — L1I/L1D/L2/TLB composition returning access latencies
//!   and arbitrating the L1D ports per cycle.
//!
//! Caches model *timing only*: data always comes from [`SparseMemory`], so
//! functional correctness is independent of cache configuration — an
//! invariant the test-suite checks explicitly.
//!
//! # Examples
//!
//! ```
//! use ftsim_mem::{Hierarchy, HierarchyConfig, AccessKind};
//!
//! let mut h = Hierarchy::new(&HierarchyConfig::default());
//! h.begin_cycle();
//! let first = h.data_access(0x1000, AccessKind::Read);
//! h.begin_cycle();
//! let second = h.data_access(0x1000, AccessKind::Read);
//! assert!(second.latency < first.latency); // second access hits in L1
//! ```

#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod memory;
mod ports;
mod tlb;

pub use cache::{Cache, CacheConfig, CacheOutcome, CacheStats};
pub use hierarchy::{AccessKind, AccessResult, Hierarchy, HierarchyConfig, LatencyConfig};
pub use memory::{MemDiff, PageImage, SparseMemory, PAGE_BYTES};
pub use ports::PortSet;
pub use tlb::{Tlb, TlbConfig};
