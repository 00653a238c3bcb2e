//! Sparse, paged, byte-addressable main memory.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bytes per memory page.
pub const PAGE_BYTES: usize = 4096;

/// Sentinel for "no page cached" (no reachable address maps to this page
/// number: the largest byte address yields page `u64::MAX / PAGE_BYTES`).
const NO_PAGE: u64 = u64::MAX;

/// The FNV-1a prime [`SparseMemory::content_digest`] multiplies by.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One page of storage.
type Page = [u8; PAGE_BYTES];

/// An immutable memory image: pages in ascending address order.
///
/// Unlike [`SparseMemory`], an image is `Sync`, so one image can be built
/// once and shared by every thread. Its pages are never written: a memory
/// made with [`SparseMemory::from_image`] shares them copy-on-write, and
/// its first store to a page copies that page into private storage.
///
/// # Examples
///
/// ```
/// use ftsim_mem::SparseMemory;
///
/// let mut m = SparseMemory::new();
/// m.write_slice(0x1ffe, &[1, 2, 3, 4]); // straddles two pages
/// let image = m.freeze();
/// let mut a = SparseMemory::from_image(&image);
/// let b = SparseMemory::from_image(&image);
/// a.write_u8(0x2000, 9);
/// assert_eq!((a.read_u8(0x2000), b.read_u8(0x2000)), (9, 3));
/// assert_eq!(a.pages_shared_with(&b), 1, "the store peeled one page");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageImage {
    pages: Vec<(u64, Arc<Page>)>,
}

impl PageImage {
    /// Number of pages in the image.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// A lazily-allocated, byte-addressable memory.
///
/// Reads of unmapped locations return zero, which gives the simulator total
/// semantics on wrong-path (speculative) accesses — a mispredicted load can
/// touch any address without failing. Written pages are tracked so two
/// memories can be compared cheaply ([`SparseMemory::diff`]), which is how
/// the out-of-order simulator's committed memory is validated against the
/// in-order oracle (the paper's dual committed-state sanity check, §5.1.1).
///
/// All multi-byte accesses are little-endian and may straddle page
/// boundaries.
///
/// Page storage is an arena (`Vec` of reference-counted pages) indexed by
/// a `BTreeMap`, with a one-entry last-page cache in front: sequential and
/// same-page accesses — the overwhelmingly common pattern in the
/// simulated load/store stream — skip the tree lookup entirely. Pages are
/// never deallocated, so cached slots can never dangle.
///
/// Pages are copy-on-write: [`Clone`] bumps each page's reference count
/// instead of copying bytes, so a checkpoint of a multi-megabyte memory
/// costs one pointer per page, and the first write to a shared page after
/// a clone faults just that page (O([`PAGE_BYTES`])) into private
/// storage. This is what makes periodic machine snapshots cheap enough to
/// drop every few thousand cycles during a sweep's baseline run. The same
/// mechanism shares a program's initial data image: [`SparseMemory::freeze`]
/// turns a laid-out memory into a [`PageImage`], and every
/// [`SparseMemory::from_image`] starts from its pages without copying them.
///
/// # Examples
///
/// ```
/// use ftsim_mem::SparseMemory;
///
/// let mut m = SparseMemory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0); // unmapped reads as zero
/// ```
#[derive(Debug, Clone)]
pub struct SparseMemory {
    /// Page number → arena slot.
    index: BTreeMap<u64, usize>,
    /// Page storage; slots are stable (pages are never removed). Shared
    /// copy-on-write with any clone of this memory.
    pages: Vec<Arc<Page>>,
    /// Last-translated `(page number, arena slot)`; `NO_PAGE` when cold.
    /// Interior mutability lets plain reads refresh the cache.
    last: Cell<(u64, usize)>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self {
            index: BTreeMap::new(),
            pages: Vec::new(),
            last: Cell::new((NO_PAGE, 0)),
        }
    }
}

/// One difference found by [`SparseMemory::diff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDiff {
    /// Byte address of the first differing byte of an 8-byte-aligned word.
    pub addr: u64,
    /// Word value in `self`.
    pub left: u64,
    /// Word value in `other`.
    pub right: u64,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_index(addr: u64) -> (u64, usize) {
        (
            addr / PAGE_BYTES as u64,
            (addr % PAGE_BYTES as u64) as usize,
        )
    }

    /// Arena slot of page `p`, consulting the one-entry cache before the
    /// tree and refreshing it on a tree hit.
    fn slot_of(&self, p: u64) -> Option<usize> {
        let (lp, ls) = self.last.get();
        if lp == p {
            return Some(ls);
        }
        let slot = *self.index.get(&p)?;
        self.last.set((p, slot));
        Some(slot)
    }

    /// Arena slot of page `p`, allocating it on first touch.
    fn slot_of_or_alloc(&mut self, p: u64) -> usize {
        if let Some(slot) = self.slot_of(p) {
            return slot;
        }
        let slot = self.pages.len();
        self.pages.push(Arc::new([0u8; PAGE_BYTES]));
        self.index.insert(p, slot);
        self.last.set((p, slot));
        slot
    }

    /// Reads one byte; unmapped locations read as zero.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (p, off) = Self::page_index(addr);
        self.slot_of(p).map_or(0, |slot| self.pages[slot][off])
    }

    /// Writes one byte, allocating the page on demand.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let (p, off) = Self::page_index(addr);
        let slot = self.slot_of_or_alloc(p);
        Arc::make_mut(&mut self.pages[slot])[off] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut buf = [0u8; N];
        let (p, off) = Self::page_index(addr);
        if off + N <= PAGE_BYTES {
            // Within one page (the common case): one translation, one copy.
            if let Some(slot) = self.slot_of(p) {
                buf.copy_from_slice(&self.pages[slot][off..off + N]);
            }
            return buf;
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        buf
    }

    /// Writes `bytes` starting at `addr`, one slice copy per page touched,
    /// allocating pages on demand.
    pub fn write_slice(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let (p, off) = Self::page_index(addr);
            let n = bytes.len().min(PAGE_BYTES - off);
            let slot = self.slot_of_or_alloc(p);
            Arc::make_mut(&mut self.pages[slot])[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_slice(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_slice(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_slice(addr, &value.to_le_bytes());
    }

    /// Reads `size` bytes (1, 2, 4 or 8) zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn read_sized(&self, addr: u64, size: u8) -> u64 {
        match size {
            1 => u64::from(self.read_u8(addr)),
            2 => u64::from(self.read_u16(addr)),
            4 => u64::from(self.read_u32(addr)),
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1, 2, 4 or 8) of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn write_sized(&mut self, addr: u64, value: u64, size: u8) {
        match size {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            4 => self.write_u32(addr, value as u32),
            8 => self.write_u64(addr, value),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Number of allocated (ever-written) pages.
    pub fn page_count(&self) -> usize {
        self.index.len()
    }

    /// Number of pages physically shared (same backing storage) with
    /// `other` — checkpointing diagnostics: a fresh clone shares every
    /// page; writes then peel pages off one at a time.
    pub fn pages_shared_with(&self, other: &SparseMemory) -> usize {
        self.index
            .iter()
            .filter(|(page, &slot)| {
                other
                    .index
                    .get(page)
                    .is_some_and(|&o| Arc::ptr_eq(&self.pages[slot], &other.pages[o]))
            })
            .count()
    }

    /// Freezes this memory into an immutable, shareable image. No bytes
    /// are copied.
    pub fn freeze(self) -> PageImage {
        PageImage {
            pages: self
                .index
                .iter()
                .map(|(&page, &slot)| (page, Arc::clone(&self.pages[slot])))
                .collect(),
        }
    }

    /// A memory holding `image`'s contents. It shares the image's pages
    /// copy-on-write, so this costs one reference count per page.
    pub fn from_image(image: &PageImage) -> Self {
        Self {
            index: (image.pages.iter().enumerate())
                .map(|(slot, &(page, _))| (page, slot))
                .collect(),
            pages: image.pages.iter().map(|(_, p)| Arc::clone(p)).collect(),
            last: Cell::new((NO_PAGE, 0)),
        }
    }

    /// Folds this memory's *contents* into a running FNV-1a hash and
    /// returns the updated hash.
    ///
    /// The digest is content-based, matching read-as-zero semantics: only
    /// nonzero bytes contribute, each as `(address, value)`, with pages
    /// visited in ascending address order. Two memories with equal
    /// readable contents therefore digest identically regardless of which
    /// all-zero pages happen to be allocated — the property the outcome
    /// classifier relies on when comparing a faulty run's committed state
    /// against its family's fault-free baseline.
    ///
    /// Per nonzero byte the stream is the byte's eight address bytes, low
    /// byte first, then its value. Address bytes 2–7 are the same for every
    /// byte of a page, so they are folded once per page, with each run of
    /// zero bytes merged into a power of the FNV prime; the resulting hash
    /// is exactly the byte-at-a-time FNV-1a one.
    pub fn content_digest(&self, mut hash: u64) -> u64 {
        for (&page, &slot) in &self.index {
            let base = page * PAGE_BYTES as u64;
            let suffix = AddrSuffix::new(base);
            for (w, word) in self.pages[slot].chunks_exact(8).enumerate() {
                if word == [0; 8] {
                    continue;
                }
                for (i, &byte) in word.iter().enumerate() {
                    if byte != 0 {
                        hash = suffix.fold(hash, base + (w * 8 + i) as u64, byte);
                    }
                }
            }
        }
        hash
    }

    /// Compares the union of allocated pages of `self` and `other`,
    /// returning up to `limit` differing 8-byte words.
    ///
    /// Unallocated pages compare equal to all-zero pages, matching the
    /// read-as-zero semantics.
    pub fn diff(&self, other: &SparseMemory, limit: usize) -> Vec<MemDiff> {
        let mut out = Vec::new();
        let zero = [0u8; PAGE_BYTES];
        let pages: std::collections::BTreeSet<u64> = self
            .index
            .keys()
            .chain(other.index.keys())
            .copied()
            .collect();
        for p in pages {
            let a = self.index.get(&p).map(|&s| &self.pages[s]);
            let b = other.index.get(&p).map(|&s| &other.pages[s]);
            if let (Some(a), Some(b)) = (a, b) {
                if Arc::ptr_eq(a, b) {
                    continue; // one shared page: equal without a look
                }
            }
            let a = a.map_or(&zero, |p| &**p);
            let b = b.map_or(&zero, |p| &**p);
            if a == b {
                continue;
            }
            for w in 0..(PAGE_BYTES / 8) {
                let off = w * 8;
                let wa = u64::from_le_bytes(a[off..off + 8].try_into().unwrap());
                let wb = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
                if wa != wb {
                    out.push(MemDiff {
                        addr: p * PAGE_BYTES as u64 + off as u64,
                        left: wa,
                        right: wb,
                    });
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
        out
    }
}

/// The FNV-1a steps of a page's address bytes 2–7, with each run of zero
/// bytes folded into the multiply before it: a zero byte's step
/// `(h ^ 0)·P` is `h·P`, so a byte followed by `k` zero bytes is one step
/// `(h ^ b)·P^(k+1)`. Below 2^24 every byte's address then costs three
/// dependent multiplies instead of eight.
struct AddrSuffix {
    /// Multiplier of address byte 1's step: `P` times the folded zero
    /// bytes that lead the suffix.
    byte1_mul: u64,
    /// The suffix's nonzero bytes, each with its folded multiplier.
    steps: [(u64, u64); 6],
    len: usize,
}

impl AddrSuffix {
    fn new(base: u64) -> Self {
        let mut suffix = Self {
            byte1_mul: FNV_PRIME,
            steps: [(0, 0); 6],
            len: 0,
        };
        for &b in &base.to_le_bytes()[2..] {
            if b != 0 {
                suffix.steps[suffix.len] = (u64::from(b), FNV_PRIME);
                suffix.len += 1;
            } else if let Some(last) = suffix.len.checked_sub(1) {
                suffix.steps[last].1 = suffix.steps[last].1.wrapping_mul(FNV_PRIME);
            } else {
                suffix.byte1_mul = suffix.byte1_mul.wrapping_mul(FNV_PRIME);
            }
        }
        suffix
    }

    /// Folds the `(addr, value)` pair of one nonzero byte into `hash`;
    /// `addr` lies in the page this suffix was made for.
    fn fold(&self, hash: u64, addr: u64, value: u8) -> u64 {
        let mut h = (hash ^ (addr & 0xff)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((addr >> 8) & 0xff)).wrapping_mul(self.byte1_mul);
        for &(b, mul) in &self.steps[..self.len] {
            h = (h ^ b).wrapping_mul(mul);
        }
        (h ^ u64::from(value)).wrapping_mul(FNV_PRIME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_unmapped_is_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u64(0xffff_ffff_ffff_fff0), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn write_read_roundtrip_all_sizes() {
        let mut m = SparseMemory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn content_digest_is_content_based() {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        let mut a = SparseMemory::new();
        a.write_u64(0x1000, 7);
        let mut b = SparseMemory::new();
        // An extra all-zero page (written then reverted) must not change
        // the digest: reads cannot distinguish it from an unmapped page.
        b.write_u64(0x9000, 1);
        b.write_u64(0x9000, 0);
        b.write_u64(0x1000, 7);
        assert_eq!(a.content_digest(SEED), b.content_digest(SEED));
        assert_eq!(
            SparseMemory::new().content_digest(SEED),
            SEED,
            "empty memory leaves the hash untouched"
        );
        // A one-bit difference in content changes the digest.
        let mut c = SparseMemory::new();
        c.write_u64(0x1000, 6);
        assert_ne!(a.content_digest(SEED), c.content_digest(SEED));
        // So does the same byte at a different address.
        let mut d = SparseMemory::new();
        d.write_u64(0x1008, 7);
        assert_ne!(a.content_digest(SEED), d.content_digest(SEED));
    }

    /// The digest as a plain byte-at-a-time FNV-1a loop over each nonzero
    /// byte's eight address bytes and value: the stream the goldens pin.
    fn reference_digest(m: &SparseMemory, mut hash: u64) -> u64 {
        for (&page, &slot) in &m.index {
            let base = page * PAGE_BYTES as u64;
            for (off, &byte) in m.pages[slot].iter().enumerate() {
                if byte == 0 {
                    continue;
                }
                let addr = base + off as u64;
                for b in addr.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                }
                hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
        hash
    }

    #[test]
    fn content_digest_matches_the_bytewise_reference() {
        // Page bases chosen for their address bytes: page 0; zeros in
        // bytes 1 and 2; nonzero bytes 3–7 (above 2^24, 2^32 and 2^56);
        // zero runs between nonzero bytes; the last page.
        const BASES: [u64; 9] = [
            0,
            0x1000,
            0x0010_0000,
            0x0100_0000,
            0x0123_0000,
            0x1_0000_0000,
            0x0100_0000_0000_0000,
            0x1200_3400_0056_0000,
            u64::MAX - (PAGE_BYTES as u64 - 1),
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..16 {
            let mut m = SparseMemory::new();
            for (i, &base) in BASES.iter().enumerate() {
                // Alternate sparse pages (a few bytes) and dense ones
                // (every byte drawn, about one in eight left zero).
                if (i + round) % 2 == 0 {
                    for _ in 0..1 + next() % 8 {
                        m.write_u8(base + next() % PAGE_BYTES as u64, next() as u8 | 1);
                    }
                } else {
                    for off in 0..PAGE_BYTES as u64 {
                        let v = next();
                        m.write_u8(base + off, if v % 8 == 0 { 0 } else { v as u8 });
                    }
                }
            }
            let seed = next();
            assert_eq!(
                m.content_digest(seed),
                reference_digest(&m, seed),
                "round {round}"
            );
        }
    }

    #[test]
    fn write_slice_spans_pages() {
        let mut m = SparseMemory::new();
        let bytes: Vec<u8> = (1..=255).cycle().take(3 * PAGE_BYTES).collect();
        m.write_slice(PAGE_BYTES as u64 - 5, &bytes);
        assert_eq!(m.page_count(), 4);
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(m.read_u8(PAGE_BYTES as u64 - 5 + i as u64), b);
        }
        m.write_slice(0x9_0000, &[]);
        assert_eq!(m.page_count(), 4, "an empty slice allocates nothing");
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = PAGE_BYTES as u64 - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn sized_access_matches_fixed() {
        let mut m = SparseMemory::new();
        m.write_sized(100, 0xffee_ddcc_bbaa_9988, 4);
        assert_eq!(m.read_sized(100, 4), 0xbbaa_9988);
        assert_eq!(m.read_sized(100, 8), 0xbbaa_9988); // upper bytes untouched
        m.write_sized(200, 0x7f, 1);
        assert_eq!(m.read_sized(200, 1), 0x7f);
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn bad_size_panics() {
        let m = SparseMemory::new();
        let _ = m.read_sized(0, 3);
    }

    #[test]
    fn diff_detects_single_word() {
        let mut a = SparseMemory::new();
        let mut b = SparseMemory::new();
        a.write_u64(0x1000, 1);
        b.write_u64(0x1000, 2);
        b.write_u64(0x9000, 0); // allocated but equal to zero page in `a`
        let d = a.diff(&b, 16);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].addr, 0x1000);
        assert_eq!((d[0].left, d[0].right), (1, 2));
    }

    #[test]
    fn diff_equal_memories_is_empty() {
        let mut a = SparseMemory::new();
        a.write_u64(0, 7);
        let b = a.clone();
        assert!(a.diff(&b, 8).is_empty());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = SparseMemory::new();
        a.write_u64(0x1000, 11);
        a.write_u64(0x5000, 22);
        let b = a.clone();
        assert_eq!(a.pages_shared_with(&b), 2, "a fresh clone shares all pages");
        // Writing through the clone peels only the touched page.
        let mut b = b;
        b.write_u64(0x1000, 99);
        assert_eq!(a.pages_shared_with(&b), 1);
        assert_eq!(a.read_u64(0x1000), 11, "original page unharmed");
        assert_eq!(b.read_u64(0x1000), 99);
        assert_eq!(b.read_u64(0x5000), 22, "untouched page still shared");
        // A new page in the clone never appears in the original.
        b.write_u8(0x9000, 1);
        assert_eq!(a.read_u8(0x9000), 0);
        assert_eq!(a.page_count(), 2);
        assert_eq!(b.page_count(), 3);
    }

    #[test]
    fn diff_respects_limit() {
        let mut a = SparseMemory::new();
        let b = SparseMemory::new();
        for i in 0..10 {
            a.write_u64(i * 8, i + 1);
        }
        assert_eq!(a.diff(&b, 3).len(), 3);
    }
}
