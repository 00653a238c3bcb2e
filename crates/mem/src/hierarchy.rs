//! Composition of L1I / L1D / unified L2 / TLBs with a latency model.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::ports::PortSet;
use crate::tlb::{Tlb, TlbConfig};

/// Kind of memory access presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store (write-allocate into L1D).
    Write,
    /// Instruction fetch (through L1I).
    Fetch,
}

/// Timing outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles until data is available.
    pub latency: u64,
    /// Whether the access hit in the first-level cache.
    pub l1_hit: bool,
    /// Whether a first-level miss hit in L2 (`false` also when no L1 miss).
    pub l2_hit: bool,
}

/// Cache/memory access latencies in cycles.
///
/// Defaults mirror `sim-outorder`'s: 1-cycle L1, 6-cycle L2, long flat
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 hit latency.
    pub l1_hit: u64,
    /// Additional latency for an L2 hit.
    pub l2_hit: u64,
    /// Additional latency for main memory.
    pub memory: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self {
            l1_hit: 1,
            l2_hit: 6,
            memory: 40,
        }
    }
}

/// Full hierarchy configuration (geometries + latencies + L1D ports).
///
/// The default matches the paper's Table 1: 64 KB 2-way L1I, 32 KB 2-way
/// L1D with 2 ports, 512 KB 4-way unified L2.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub il1: CacheConfig,
    /// L1 data cache geometry.
    pub dl1: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Latencies per level.
    pub latency: LatencyConfig,
    /// Number of L1D read/write ports (Table 1: 2).
    pub dl1_ports: u32,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            il1: CacheConfig::new("il1", 64 * 1024, 2, 32),
            dl1: CacheConfig::new("dl1", 32 * 1024, 2, 32),
            l2: CacheConfig::new("ul2", 512 * 1024, 4, 64),
            itlb: TlbConfig::new("itlb", 64, 4, 30),
            dtlb: TlbConfig::new("dtlb", 128, 4, 30),
            latency: LatencyConfig::default(),
            dl1_ports: 2,
        }
    }
}

/// The assembled memory hierarchy.
///
/// Purely a *timing* model: callers read and write data through
/// [`SparseMemory`](crate::SparseMemory) and consult the hierarchy only for
/// latencies and port availability.
///
/// # Examples
///
/// ```
/// use ftsim_mem::{AccessKind, Hierarchy, HierarchyConfig};
///
/// let mut h = Hierarchy::new(&HierarchyConfig::default());
/// h.begin_cycle();
/// assert!(h.try_data_port());
/// let r = h.data_access(0x4000, AccessKind::Read);
/// assert!(!r.l1_hit); // cold
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    latency: LatencyConfig,
    data_ports: PortSet,
}

impl Hierarchy {
    /// Builds an empty hierarchy from `config`.
    pub fn new(config: &HierarchyConfig) -> Self {
        Self {
            il1: Cache::new(config.il1.clone()),
            dl1: Cache::new(config.dl1.clone()),
            l2: Cache::new(config.l2.clone()),
            itlb: Tlb::new(config.itlb.clone()),
            dtlb: Tlb::new(config.dtlb.clone()),
            latency: config.latency,
            data_ports: PortSet::new(config.dl1_ports),
        }
    }

    /// Resets per-cycle resources (call once at the top of every cycle).
    pub fn begin_cycle(&mut self) {
        self.data_ports.begin_cycle();
    }

    /// Attempts to reserve one L1D port for this cycle.
    pub fn try_data_port(&mut self) -> bool {
        self.data_ports.try_acquire()
    }

    /// L1D ports still available this cycle.
    pub fn data_ports_available(&self) -> u32 {
        self.data_ports.available()
    }

    /// Performs an instruction fetch or data access and returns its latency.
    ///
    /// Port accounting is *not* applied here — the pipeline reserves ports
    /// explicitly via [`Hierarchy::try_data_port`] so that replicated copies
    /// which share one memory access (per the paper, only one access is
    /// performed per redundant load/store) charge exactly one port.
    pub fn data_access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let write = matches!(kind, AccessKind::Write);
        let (l1, tlb_extra) = match kind {
            AccessKind::Fetch => (&mut self.il1, self.itlb.access(addr)),
            _ => (&mut self.dl1, self.dtlb.access(addr)),
        };
        let l1_out = l1.access(addr, write);
        if l1_out.hit {
            return AccessResult {
                latency: self.latency.l1_hit + tlb_extra,
                l1_hit: true,
                l2_hit: false,
            };
        }
        let l2_out = self.l2.access(addr, write);
        if l2_out.hit {
            AccessResult {
                latency: self.latency.l1_hit + self.latency.l2_hit + tlb_extra,
                l1_hit: false,
                l2_hit: true,
            }
        } else {
            AccessResult {
                latency: self.latency.l1_hit
                    + self.latency.l2_hit
                    + self.latency.memory
                    + tlb_extra,
                l1_hit: false,
                l2_hit: false,
            }
        }
    }

    /// Instruction-fetch convenience wrapper over [`Hierarchy::data_access`].
    pub fn fetch_access(&mut self, addr: u64) -> AccessResult {
        self.data_access(addr, AccessKind::Fetch)
    }

    /// Statistics: `(il1, dl1, l2)` cache stats.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.il1.stats(), self.dl1.stats(), self.l2.stats())
    }

    /// Invalidates all caches/TLBs and clears statistics.
    pub fn reset(&mut self) {
        self.il1.reset();
        self.dl1.reset();
        self.l2.reset();
        self.itlb.reset();
        self.dtlb.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        let cfg = HierarchyConfig {
            il1: CacheConfig::new("il1", 1024, 2, 32),
            dl1: CacheConfig::new("dl1", 1024, 2, 32),
            l2: CacheConfig::new("l2", 8192, 4, 64),
            itlb: TlbConfig::new("itlb", 8, 4, 30),
            dtlb: TlbConfig::new("dtlb", 8, 4, 30),
            latency: LatencyConfig::default(),
            dl1_ports: 2,
        };
        Hierarchy::new(&cfg)
    }

    #[test]
    fn latency_tiers() {
        let mut h = small();
        let lat = h.latency;
        // Cold: L1 miss, L2 miss, plus cold dtlb.
        let r0 = h.data_access(0x100, AccessKind::Read);
        assert!(!r0.l1_hit && !r0.l2_hit);
        assert_eq!(r0.latency, lat.l1_hit + lat.l2_hit + lat.memory + 30);
        // Warm L1.
        let r1 = h.data_access(0x100, AccessKind::Read);
        assert!(r1.l1_hit);
        assert_eq!(r1.latency, lat.l1_hit);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = small();
        // dl1: 16 sets... 1024/32/2 = 16 sets. Fill set 0 with 3 conflicting lines.
        let stride = 16 * 32; // sets * line
        h.data_access(0, AccessKind::Read);
        h.data_access(stride, AccessKind::Read);
        h.data_access(2 * stride, AccessKind::Read); // evicts addr 0 from dl1
        let r = h.data_access(0, AccessKind::Read); // L1 miss, L2 hit
        assert!(!r.l1_hit && r.l2_hit);
    }

    #[test]
    fn fetch_uses_il1_not_dl1() {
        let mut h = small();
        h.fetch_access(0x40);
        let (il1, dl1, _) = h.cache_stats();
        assert_eq!(il1.accesses, 1);
        assert_eq!(dl1.accesses, 0);
    }

    #[test]
    fn ports_gate_per_cycle() {
        let mut h = small();
        h.begin_cycle();
        assert!(h.try_data_port());
        assert!(h.try_data_port());
        assert!(!h.try_data_port());
        h.begin_cycle();
        assert_eq!(h.data_ports_available(), 2);
    }

    #[test]
    fn reset_clears_stats() {
        let mut h = small();
        h.data_access(0, AccessKind::Write);
        h.reset();
        let (_, dl1, l2) = h.cache_stats();
        assert_eq!(dl1.accesses, 0);
        assert_eq!(l2.accesses, 0);
    }

    #[test]
    fn default_config_matches_table1() {
        let cfg = HierarchyConfig::default();
        assert_eq!(cfg.il1.size_bytes, 64 * 1024);
        assert_eq!(cfg.il1.assoc, 2);
        assert_eq!(cfg.dl1.size_bytes, 32 * 1024);
        assert_eq!(cfg.dl1.assoc, 2);
        assert_eq!(cfg.dl1_ports, 2);
        assert_eq!(cfg.l2.size_bytes, 512 * 1024);
        assert_eq!(cfg.l2.assoc, 4);
    }
}
