//! Sparse, paged, byte-addressable main memory.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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
/// Cloning an image is one reference count; the clones share its pages
/// and their digest memos.
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
#[derive(Debug, Clone)]
pub struct PageImage {
    pages: Arc<[ImagePage]>,
}

impl Default for PageImage {
    fn default() -> Self {
        Self {
            pages: Arc::new([]),
        }
    }
}

impl PageImage {
    /// Number of pages in the image.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// One page of a [`PageImage`] and the memo of its digest steps.
#[derive(Debug)]
struct ImagePage {
    page: u64,
    bytes: Arc<Page>,
    /// Allocated by the first digest that reaches this page.
    memo: OnceLock<Box<DigestMemo>>,
}

/// The FNV-1a fold of one page's byte stream, memoized by the low byte of
/// the incoming hash.
///
/// A step `h' = (h ^ b)·P` changes `h`'s low byte by an amount that
/// depends only on that byte, and the next low byte depends only on the
/// old one. So over a fixed stream of `M` bytes,
/// `fold(h) = fold(h & 0xff) + (h & !0xff)·P^M (mod 2^64)`: a page's whole
/// contribution is one of 256 values plus one multiply. Slot `l` holds
/// `fold(l)`, filled on first use; a race fills it twice with equal values.
/// The `Release` that sets a fill bit pairs with the `Acquire` that reads
/// it, so a reader that sees the bit sees the slot's value.
#[derive(Debug)]
struct DigestMemo {
    /// `P^M`, with nine stream bytes per nonzero page byte.
    pow: u64,
    /// Bit `l` is set once `low[l]` holds `fold(l)`.
    filled: [AtomicU64; 4],
    low: [AtomicU64; 256],
}

impl DigestMemo {
    fn new(bytes: &Page) -> Self {
        let nonzero = bytes.iter().filter(|&&b| b != 0).count() as u32;
        Self {
            pow: FNV_PRIME.wrapping_pow(9 * nonzero),
            filled: Default::default(),
            low: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ImagePage {
    /// Folds this page into `hash`: [`fold_page`]'s result, from the memo.
    fn digest(&self, hash: u64) -> u64 {
        let memo = self
            .memo
            .get_or_init(|| Box::new(DigestMemo::new(&self.bytes)));
        let l = (hash & 0xff) as usize;
        let bit = 1u64 << (l % 64);
        let low = if memo.filled[l / 64].load(Ordering::Acquire) & bit != 0 {
            memo.low[l].load(Ordering::Relaxed)
        } else {
            let low = fold_page(self.page, &self.bytes, l as u64);
            memo.low[l].store(low, Ordering::Relaxed);
            memo.filled[l / 64].fetch_or(bit, Ordering::Release);
            low
        };
        low.wrapping_add((hash & !0xff).wrapping_mul(memo.pow))
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
/// Such a memory keeps a handle on its image, so an image page it still
/// shares is digested from the image's memo.
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
    /// The image this memory was made from, if any. Its page `i` sits in
    /// arena slot `i` until a store peels it. Holding the image keeps its
    /// pages shared, so a store always copies one, never writes it in place.
    image: Option<PageImage>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self {
            index: BTreeMap::new(),
            pages: Vec::new(),
            last: Cell::new((NO_PAGE, 0)),
            image: None,
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
            pages: (self.index.iter())
                .map(|(&page, &slot)| ImagePage {
                    page,
                    bytes: Arc::clone(&self.pages[slot]),
                    memo: OnceLock::new(),
                })
                .collect(),
        }
    }

    /// A memory holding `image`'s contents. It shares the image's pages
    /// copy-on-write, so this costs one reference count per page.
    pub fn from_image(image: &PageImage) -> Self {
        Self {
            index: (image.pages.iter().enumerate())
                .map(|(slot, p)| (p.page, slot))
                .collect(),
            pages: image.pages.iter().map(|p| Arc::clone(&p.bytes)).collect(),
            last: Cell::new((NO_PAGE, 0)),
            image: Some(image.clone()),
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
    /// byte first, then its value. A page this memory still shares with
    /// its image is folded from the image's memo (see [`PageImage`]); any
    /// other page is folded byte by byte. Either way the hash is exactly
    /// the byte-at-a-time FNV-1a one.
    pub fn content_digest(&self, mut hash: u64) -> u64 {
        let image = self.image.as_ref().map_or(&[][..], |i| &i.pages[..]);
        for (&page, &slot) in &self.index {
            let bytes = &self.pages[slot];
            hash = match image.get(slot) {
                Some(shared) if Arc::ptr_eq(bytes, &shared.bytes) => shared.digest(hash),
                _ => fold_page(page, bytes, hash),
            };
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

/// Folds the nonzero bytes of page number `page` into `hash`, the stream
/// [`SparseMemory::content_digest`] defines. Address bytes 2–7 are the
/// same for every byte of a page, so they are folded once per page, with
/// each run of zero bytes merged into a power of the FNV prime.
fn fold_page(page: u64, bytes: &Page, mut hash: u64) -> u64 {
    let base = page * PAGE_BYTES as u64;
    let suffix = AddrSuffix::new(base);
    for (w, word) in bytes.chunks_exact(8).enumerate() {
        if word == [0; 8] {
            continue;
        }
        for (i, &byte) in word.iter().enumerate() {
            if byte != 0 {
                hash = suffix.fold(hash, base + (w * 8 + i) as u64, byte);
            }
        }
    }
    hash
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

    /// Page bases chosen for their address bytes: page 0; zeros in bytes 1
    /// and 2; nonzero bytes 3–7 (above 2^24, 2^32 and 2^56); zero runs
    /// between nonzero bytes; the last page.
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

    /// A xorshift64 stream: deterministic test data without a dependency.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn content_digest_matches_the_bytewise_reference() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
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

    /// Plain FNV-1a over `stream`, from `hash`.
    fn fnv(mut hash: u64, stream: &[u8]) -> u64 {
        for &b in stream {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        hash
    }

    #[test]
    fn fnv_of_a_fixed_stream_depends_on_the_start_through_its_low_byte() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for len in [0, 1, 2, 9, 63, 1000] {
            let stream: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let pow = FNV_PRIME.wrapping_pow(len as u32);
            for _ in 0..64 {
                let h = next();
                assert_eq!(
                    fnv(h, &stream),
                    fnv(h & 0xff, &stream).wrapping_add((h & !0xff).wrapping_mul(pow)),
                    "stream of {len} bytes from {h:#x}"
                );
            }
        }
    }

    /// An image with one page at each of [`BASES`], cycling through dense
    /// random, sparse and all-zero content from kind `first`.
    fn image(next: &mut impl FnMut() -> u64, first: usize) -> PageImage {
        let mut m = SparseMemory::new();
        for (i, &base) in BASES.iter().enumerate() {
            match (first + i) % 3 {
                0 => {
                    for off in 0..PAGE_BYTES as u64 {
                        let v = next();
                        m.write_u8(base + off, if v % 8 == 0 { 0 } else { v as u8 });
                    }
                }
                1 => {
                    for _ in 0..1 + next() % 8 {
                        m.write_u8(base + next() % PAGE_BYTES as u64, next() as u8 | 1);
                    }
                }
                _ => m.write_u8(base, 0), // allocated, all zero
            }
        }
        m.freeze()
    }

    /// Incoming hashes covering all 256 low bytes, with random high bits.
    fn hashes(next: &mut impl FnMut() -> u64) -> Vec<u64> {
        (0..256).map(|l| next() << 8 | l).collect()
    }

    /// Whether `image`'s page `i` has memoized low byte `l`.
    fn memoized(image: &PageImage, i: usize, l: u64) -> bool {
        (image.pages[i].memo.get())
            .is_some_and(|m| m.filled[l as usize / 64].load(Ordering::Relaxed) >> (l % 64) & 1 != 0)
    }

    #[test]
    fn image_pages_digest_from_the_memo_like_the_reference() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        // Every address shape with every kind of content.
        for first in 0..3 {
            let image = image(&mut next, first);
            assert!(
                image.pages.iter().all(|p| p.memo.get().is_none()),
                "building an image allocates no memo"
            );
            let m = SparseMemory::from_image(&image);
            let hashes = hashes(&mut next);
            for pass in 0..2 {
                // The first pass fills the memo, the second reads it.
                for &h in &hashes {
                    let want = reference_digest(&m, h);
                    assert_eq!(m.content_digest(h), want, "kinds from {first}, pass {pass}");
                }
            }
            assert!(memoized(&image, 0, 0) && memoized(&image, 0, 255));
        }
    }

    #[test]
    fn a_written_image_page_bypasses_the_memo() {
        let mut next = xorshift(0x0123_4567_89ab_cdef);
        let image = image(&mut next, 0);
        let pristine = SparseMemory::from_image(&image);
        let mut m = SparseMemory::from_image(&image);
        let (addr, peeled) = (BASES[1] + 17, 1);
        m.write_u8(addr, m.read_u8(addr) ^ 0x5a);
        m.write_u8(0x7000, 3); // a page the image lacks
        let hashes = hashes(&mut next);
        for &h in &hashes {
            assert_eq!(m.content_digest(h), reference_digest(&m, h));
        }
        assert!(
            image.pages[peeled].memo.get().is_none(),
            "peeled page memoized"
        );
        assert!(image.pages[0].memo.get().is_some());
        for &h in &hashes {
            assert_ne!(m.content_digest(h), pristine.content_digest(h));
        }
        // Written back to its original bytes, the page is still private
        // but digests like the image's.
        m.write_u8(addr, pristine.read_u8(addr));
        m.write_u8(0x7000, 0);
        assert_eq!(m.pages_shared_with(&pristine), BASES.len() - 1);
        for &h in &hashes {
            assert_eq!(m.content_digest(h), reference_digest(&m, h));
            assert_eq!(m.content_digest(h), pristine.content_digest(h));
        }
    }

    #[test]
    fn a_clone_digests_from_the_same_memo() {
        let mut next = xorshift(0xdead_beef_cafe_f00d);
        let image = image(&mut next, 0);
        let m = SparseMemory::from_image(&image);
        let mut checkpoint = m.clone();
        let h = next();
        assert_eq!(checkpoint.content_digest(h), m.content_digest(h));
        assert!(memoized(&image, 0, h & 0xff));
        checkpoint.write_u8(BASES[0], 0xff);
        for h in hashes(&mut next) {
            assert_eq!(
                checkpoint.content_digest(h),
                reference_digest(&checkpoint, h)
            );
            assert_eq!(m.content_digest(h), reference_digest(&m, h));
        }
    }

    #[test]
    fn threads_digest_memories_of_one_image_at_once() {
        let mut next = xorshift(0x5851_f42d_4c95_7f2d);
        let image = image(&mut next, 0);
        let hashes = hashes(&mut next);
        let m = SparseMemory::from_image(&image);
        let expected: Vec<u64> = hashes.iter().map(|&h| reference_digest(&m, h)).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2 {
                let (image, hashes, expected, start) = (&image, &hashes, &expected, &start);
                s.spawn(move || {
                    let m = SparseMemory::from_image(image);
                    start.wait(); // both fill the memo's first slots together
                    for round in 0..4 {
                        for (i, (&h, &want)) in hashes.iter().zip(expected).enumerate() {
                            assert_eq!(
                                m.content_digest(h),
                                want,
                                "thread {t} round {round} hash {i}"
                            );
                        }
                    }
                });
            }
        });
    }
}
