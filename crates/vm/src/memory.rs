//! Sparse 64-bit memory with explicit mapped ranges and copy-on-write pages.
//!
//! Only the usable parts of the public, private and trusted regions are
//! mapped; everything else — in particular the guard areas between and around
//! the regions (Figure 3a) — faults on access, exactly like the unmapped
//! guard pages of the paper.
//!
//! Pages are reference-counted (`Arc`) so snapshots and forks share clean
//! pages instead of copying them:
//!
//! * [`Memory::snapshot`] is O(pages) pointer clones — no byte copies.
//! * [`Memory::fork`] builds a new memory over a snapshot's page table; the
//!   first write to a shared page copies it private (a CoW fault, counted in
//!   [`Memory::cow_faults`]), so a forked session's resident cost is its
//!   *written* working set, not the whole address space.
//! * [`Memory::restore`] stays O(pages written since the snapshot): dirty
//!   pages are re-pointed at the snapshot's buffers, releasing the private
//!   copies.
//!
//! The [`Memory::resident_private_pages`] count tracks pages whose backing
//! buffer this memory materialised itself (created or CoW-copied) — the
//! per-session memory cost the serving layer's scale sweep reports.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Page size used by the sparse backing store (simulation detail, not
/// architectural).
const PAGE_SIZE: u64 = 4096;

type Page = [u8; PAGE_SIZE as usize];

/// Multiplicative hasher for page numbers.  Page indices are single `u64`s on
/// the interpreter's per-access hot path, where the default SipHash dominates
/// the lookup; a golden-ratio multiply distributes them just as well here.
#[derive(Default)]
struct PageHasher(u64);

impl std::hash::Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>;

/// Slots in the per-memory software TLB, direct-mapped on the page number's
/// low bits.  64 entries × 16 bytes is small next to a session's page table
/// yet covers the working set of a tight guest loop.
const TLB_SIZE: usize = 64;

/// One software-TLB slot: a page number plus a raw pointer to that page's
/// buffer.  `page == u64::MAX` marks the slot empty (no real page has that
/// number — the mapped ranges sit far below it).
///
/// An occupied slot certifies, until the TLB is next cleared, that the whole
/// page is inside a mapped range (so a hit needs no bounds check) and that
/// the buffer is still this page's live backing store.  A *writable* slot
/// further certifies that the buffer is uniquely owned and the page already
/// recorded in the dirty set of the current snapshot epoch, so writes
/// through the pointer need no CoW or tracking work.  A read-only slot may
/// point into a buffer shared with snapshots or fork siblings; the first
/// write takes the page-table path, which does the CoW/dirty accounting and
/// upgrades the slot.  See the invariant note on [`Memory::tlb`].
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    page: u64,
    writable: bool,
    ptr: *mut u8,
}

impl TlbEntry {
    const INVALID: TlbEntry = TlbEntry {
        page: u64::MAX,
        writable: false,
        ptr: std::ptr::null_mut(),
    };
}

/// A memory access fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFault {
    pub addr: u64,
    pub len: u64,
    pub write: bool,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fault at {:#x} (+{})",
            if self.write { "write" } else { "read" },
            self.addr,
            self.len
        )
    }
}

/// A point-in-time capture of memory contents taken by [`Memory::snapshot`].
///
/// Pages are shared with the capturing memory by reference count, so taking a
/// snapshot copies no bytes; the memory pays for a page copy only when it
/// next *writes* a page the snapshot still references.  Restoring is O(pages
/// written since the snapshot), not O(total pages).  A snapshot can also seed
/// whole new memories via [`Memory::fork`].
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    pages: PageMap,
    mapped: Vec<(u64, u64)>,
}

impl MemSnapshot {
    /// Number of pages captured.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }
}

/// Sparse memory.
#[derive(Debug)]
pub struct Memory {
    pages: PageMap,
    /// Mapped (accessible) address ranges, non-overlapping.
    mapped: Vec<(u64, u64)>,
    /// Pages written since the last snapshot/restore (empty when no snapshot
    /// has been taken; tracking costs one hash insert per written page).
    dirty: HashSet<u64, BuildHasherDefault<PageHasher>>,
    /// The page most recently recorded dirty — write-heavy loops touch the
    /// same page repeatedly, so this short-circuits the set insert on the
    /// interpreter's hottest path.  `u64::MAX` when nothing is recorded.
    last_dirty: u64,
    /// Index into `mapped` of the range that satisfied the last bounds
    /// check; checked first, since consecutive accesses overwhelmingly hit
    /// the same region.  Relaxed atomic (a plain load/store on x86) so the
    /// read-only check can remember it without costing `Sync`.
    hot_range: std::sync::atomic::AtomicUsize,
    /// Whether dirty tracking is armed (set by the first `snapshot`, or at
    /// birth for a fork).
    tracking: bool,
    /// For a fork: the base snapshot's page table, used to tell shared pages
    /// from privately materialised ones by buffer identity.  Holding the
    /// `Arc`s (rather than raw pointers) keeps the comparison sound even if
    /// the base snapshot is dropped.  Empty for a memory that was never
    /// forked — every page it materialises is its own cost.
    base: PageMap,
    /// Writes that had to copy a shared page private.
    cow_faults: u64,
    /// Software TLB over `pages`, the interpreter's per-access fast path.
    ///
    /// Invariant: every occupied slot covers a fully-mapped page and points
    /// at its live buffer; a *writable* slot was filled in `page_mut`
    /// (post-`make_mut`) during the current snapshot epoch, with the
    /// dirty/CoW accounting already done on a uniquely-owned buffer.  The
    /// operations that break liveness or uniqueness or start a new epoch —
    /// `snapshot` (clones the page table, resets the dirty set) and
    /// `restore` (re-points pages at shared buffers, resets the dirty set) —
    /// clear the TLB, and a fork starts empty; `page_mut` itself refreshes
    /// the slot after a possible `make_mut` move.  Accesses that hit a slot
    /// may therefore go straight through the pointer.
    ///
    /// Provenance: raw pointers are taken via `Arc::as_ptr` / `as_mut_ptr`
    /// on the page-table path.  While a slot is live, references into its
    /// buffer are only created by `page_mut` (which immediately refreshes
    /// the slot with a fresh pointer) — reads and writes probe the TLB
    /// before touching the page table — so no pointer is used after a
    /// reference has retagged its buffer.
    tlb: Box<[TlbEntry; TLB_SIZE]>,
}

/// SAFETY: the raw pointers in `tlb` target buffers owned (via `Arc`) by
/// `pages` of the same `Memory`, are only ever dereferenced through `&mut
/// self` methods, and `&self` methods never touch them — so sending the
/// value or sharing `&Memory` across threads is as safe as it was without
/// the TLB.
unsafe impl Send for Memory {}
/// SAFETY: see the `Send` impl.
unsafe impl Sync for Memory {}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    pub fn new() -> Self {
        Memory {
            pages: PageMap::default(),
            mapped: Vec::new(),
            dirty: HashSet::default(),
            last_dirty: u64::MAX,
            hot_range: std::sync::atomic::AtomicUsize::new(0),
            tracking: false,
            base: PageMap::default(),
            cow_faults: 0,
            tlb: Box::new([TlbEntry::INVALID; TLB_SIZE]),
        }
    }

    #[inline]
    fn tlb_slot(page: u64) -> usize {
        (page as usize) & (TLB_SIZE - 1)
    }

    fn tlb_clear(&mut self) {
        self.tlb.fill(TlbEntry::INVALID);
    }

    /// Declare `[base, base+size)` accessible.
    pub fn map_range(&mut self, base: u64, size: u64) {
        self.mapped.push((base, base + size));
    }

    /// Is the whole access inside a mapped range?
    #[inline]
    pub fn is_mapped(&self, addr: u64, len: u64) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        let end = addr.saturating_add(len);
        if let Some(&(lo, hi)) = self.mapped.get(self.hot_range.load(Relaxed)) {
            if addr >= lo && end <= hi {
                return true;
            }
        }
        for (i, &(lo, hi)) in self.mapped.iter().enumerate() {
            if addr >= lo && end <= hi {
                self.hot_range.store(i, Relaxed);
                return true;
            }
        }
        false
    }

    fn page_mut(&mut self, page: u64) -> &mut Page {
        if self.tracking && self.last_dirty != page {
            self.dirty.insert(page);
            self.last_dirty = page;
        }
        // TLB hits skip the bounds check, so only a fully-mapped page may
        // occupy a slot.  Checked before the page table is borrowed below.
        let fully_mapped = self.is_mapped(page * PAGE_SIZE, PAGE_SIZE);
        let slot = self
            .pages
            .entry(page)
            .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize]));
        // A buffer still referenced by a snapshot or a fork sibling is
        // copied private on first write — the CoW fault.
        if Arc::strong_count(slot) > 1 {
            self.cow_faults += 1;
        }
        let buf = Arc::make_mut(slot);
        // The buffer is now uniquely owned and the page's accounting for this
        // epoch is done: later accesses may go straight through the pointer.
        // (If `make_mut` copied the page, this also replaces any read-only
        // slot still aiming at the old shared buffer.)
        self.tlb[Self::tlb_slot(page)] = if fully_mapped {
            TlbEntry {
                page,
                writable: true,
                ptr: buf.as_mut_ptr(),
            }
        } else {
            TlbEntry::INVALID
        };
        buf
    }

    /// Capture the current contents and arm dirty-page tracking, so a later
    /// [`Memory::restore`] can rewind in O(pages written in between).  The
    /// capture itself is O(pages) reference-count bumps — no bytes move.
    pub fn snapshot(&mut self) -> MemSnapshot {
        // Cloning the page table shares every buffer, so no TLB entry may
        // outlive it; the reset dirty set starts a new tracking epoch too.
        self.tlb_clear();
        self.tracking = true;
        self.dirty.clear();
        self.last_dirty = u64::MAX;
        MemSnapshot {
            pages: self.pages.clone(),
            mapped: self.mapped.clone(),
        }
    }

    /// A new memory sharing every page of `snap` copy-on-write: reads hit the
    /// shared buffers, the first write to a page copies it private.  The fork
    /// starts with dirty tracking armed and owns no pages — its resident
    /// cost grows only with the pages it actually writes.
    pub fn fork(snap: &MemSnapshot) -> Memory {
        Memory {
            pages: snap.pages.clone(),
            mapped: snap.mapped.clone(),
            dirty: HashSet::default(),
            last_dirty: u64::MAX,
            hot_range: std::sync::atomic::AtomicUsize::new(0),
            tracking: true,
            base: snap.pages.clone(),
            cow_faults: 0,
            tlb: Box::new([TlbEntry::INVALID; TLB_SIZE]),
        }
    }

    /// Rewind every page written since the last [`Memory::snapshot`] /
    /// [`Memory::restore`] to its state in `snap`.  Returns the number of
    /// dirty pages that were restored.
    ///
    /// Only pages recorded as dirty are touched, so restoring between
    /// requests of a warm VM costs O(working set of one request).  Restored
    /// pages re-point at the snapshot's buffers, so private copies made
    /// since the snapshot are released.  The snapshot must come from this
    /// memory or from the snapshot this memory was forked from (restoring an
    /// unrelated snapshot would miss pages dirtied before it was taken).
    pub fn restore(&mut self, snap: &MemSnapshot) -> usize {
        // Dirty pages re-point at shared buffers and the dirty set restarts:
        // both void the TLB's uniqueness/accounting certificate.
        self.tlb_clear();
        let dirty = std::mem::take(&mut self.dirty);
        self.last_dirty = u64::MAX;
        for page in &dirty {
            match snap.pages.get(page) {
                Some(p) => {
                    self.pages.insert(*page, Arc::clone(p));
                }
                None => {
                    self.pages.remove(page);
                }
            }
        }
        dirty.len()
    }

    /// Number of pages written since the last snapshot/restore.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.len()
    }

    /// Pages whose backing buffer this memory materialised itself rather
    /// than inheriting from its fork base — the per-session resident cost of
    /// a forked VM.  A page re-pointed at the base's buffer by a restore
    /// stops counting (the private copy was released).  For a memory that
    /// was never forked this counts every materialised page.
    pub fn resident_private_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|(page, buf)| match self.base.get(page) {
                Some(b) => !Arc::ptr_eq(b, buf),
                None => true,
            })
            .count()
    }

    /// Writes that had to copy a shared page private so far.
    pub fn cow_faults(&self) -> u64 {
        self.cow_faults
    }

    /// Read a 64-bit value — the dominant access width, monomorphic so the
    /// TLB hit is a single unaligned load with no width dispatch.
    #[inline]
    pub fn read8(&mut self, addr: u64) -> Result<u64, MemFault> {
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + 8 <= PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            let e = self.tlb[Self::tlb_slot(page)];
            if e.page == page {
                // SAFETY: TLB invariant (see `read`) + the single-page check.
                return Ok(unsafe { (e.ptr.add(off) as *const u64).read_unaligned() });
            }
        }
        self.read_slow(addr, 8)
    }

    /// Write a 64-bit value; monomorphic mirror of [`Memory::read8`].
    #[inline]
    pub fn write8(&mut self, addr: u64, value: u64) -> Result<(), MemFault> {
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + 8 <= PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            let e = self.tlb[Self::tlb_slot(page)];
            if e.page == page && e.writable {
                // SAFETY: TLB invariant (see `write`) + the single-page check.
                unsafe { (e.ptr.add(off) as *mut u64).write_unaligned(value) };
                return Ok(());
            }
        }
        self.write_slow(addr, 8, value)
    }

    /// Read `len` (1..=8) bytes, zero-extended into a u64.
    ///
    /// The body the interpreter actually inlines is just the TLB probe;
    /// everything else lives in `Memory::read_slow`.
    #[inline]
    pub fn read(&mut self, addr: u64, len: u64) -> Result<u64, MemFault> {
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + len <= PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            let e = self.tlb[Self::tlb_slot(page)];
            if e.page == page {
                // SAFETY: the TLB invariant (see the `tlb` field) — `e.ptr`
                // points at this page's live buffer, the whole page is
                // mapped (so the access cannot fault), and
                // `off + len <= PAGE_SIZE` bounds the access.  The width
                // match keeps the copy a single unaligned load (a
                // runtime-length `copy_nonoverlapping` would be a `memcpy`
                // call on this per-instruction path).
                let p = unsafe { e.ptr.add(off) };
                let v = match len {
                    8 => unsafe { (p as *const u64).read_unaligned() },
                    4 => (unsafe { (p as *const u32).read_unaligned() }) as u64,
                    2 => (unsafe { (p as *const u16).read_unaligned() }) as u64,
                    1 => (unsafe { *p }) as u64,
                    _ => {
                        let mut out = [0u8; 8];
                        unsafe {
                            std::ptr::copy_nonoverlapping(p, out.as_mut_ptr(), len as usize);
                        }
                        u64::from_le_bytes(out)
                    }
                };
                return Ok(v);
            }
        }
        self.read_slow(addr, len)
    }

    fn read_slow(&mut self, addr: u64, len: u64) -> Result<u64, MemFault> {
        if !self.is_mapped(addr, len) {
            return Err(MemFault {
                addr,
                len,
                write: false,
            });
        }
        let mut out = [0u8; 8];
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + len <= PAGE_SIZE {
            // The access stays on one page — at most a single lookup and a
            // slice copy (unmaterialised pages read as zero).
            let page = addr / PAGE_SIZE;
            if let Some(p) = self.pages.get(&page) {
                out[..len as usize].copy_from_slice(&p[off..off + len as usize]);
                // Remember the buffer read-only (`Arc::as_ptr` — no `&` into
                // the data, see the provenance note on `tlb`) so further
                // reads of this hot page skip the page table.  Only a
                // fully-mapped page may occupy a slot.
                let ptr = Arc::as_ptr(p) as *mut u8;
                if self.is_mapped(page * PAGE_SIZE, PAGE_SIZE) {
                    self.tlb[Self::tlb_slot(page)] = TlbEntry {
                        page,
                        writable: false,
                        ptr,
                    };
                }
            }
            return Ok(u64::from_le_bytes(out));
        }
        for i in 0..len {
            let a = addr + i;
            let page = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            out[i as usize] = match self.pages.get(&page) {
                Some(p) => p[off],
                None => 0,
            };
        }
        Ok(u64::from_le_bytes(out))
    }

    /// Write the low `len` bytes of `value`.
    ///
    /// Mirror of [`Memory::read`]: inlined TLB probe, outlined slow path.
    #[inline]
    pub fn write(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemFault> {
        let bytes = value.to_le_bytes();
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + len <= PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            let e = self.tlb[Self::tlb_slot(page)];
            if e.page == page && e.writable {
                // SAFETY: TLB invariant — unique live buffer on a fully
                // mapped page, CoW/dirty accounting for it already done this
                // epoch, access bounded by the single-page check above.  The
                // width match keeps the copy a single unaligned store (see
                // the note in `read`).
                let p = unsafe { e.ptr.add(off) };
                match len {
                    8 => unsafe { (p as *mut u64).write_unaligned(value) },
                    4 => unsafe { (p as *mut u32).write_unaligned(value as u32) },
                    2 => unsafe { (p as *mut u16).write_unaligned(value as u16) },
                    1 => unsafe { *p = value as u8 },
                    _ => unsafe {
                        std::ptr::copy_nonoverlapping(bytes.as_ptr(), p, len as usize);
                    },
                }
                return Ok(());
            }
        }
        self.write_slow(addr, len, value)
    }

    fn write_slow(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemFault> {
        if !self.is_mapped(addr, len) {
            return Err(MemFault {
                addr,
                len,
                write: true,
            });
        }
        let bytes = value.to_le_bytes();
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + len <= PAGE_SIZE {
            // One `page_mut` (one dirty insert, at most one CoW fault —
            // identical to what the per-byte loop counted, since the first
            // byte's copy makes the page private for the rest).
            let buf = self.page_mut(addr / PAGE_SIZE);
            buf[off..off + len as usize].copy_from_slice(&bytes[..len as usize]);
            return Ok(());
        }
        for i in 0..len {
            let a = addr + i;
            let page = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            self.page_mut(page)[off] = bytes[i as usize];
        }
        Ok(())
    }

    /// Bulk copy out of memory (used by the trusted library wrappers).
    pub fn read_bytes(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let mut v = Vec::with_capacity(len as usize);
        for i in 0..len {
            v.push(self.read(addr + i, 1)? as u8);
        }
        Ok(v)
    }

    /// Bulk copy into memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        for (i, b) in bytes.iter().enumerate() {
            self.write(addr + i as u64, 1, *b as u64)?;
        }
        Ok(())
    }

    /// Read a NUL-terminated string of at most `max` bytes.
    pub fn read_cstring(&mut self, addr: u64, max: u64) -> Result<Vec<u8>, MemFault> {
        let mut v = Vec::new();
        for i in 0..max {
            let b = self.read(addr + i, 1)? as u8;
            if b == 0 {
                break;
            }
            v.push(b);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new();
        m.map_range(0x1000, 0x1000);
        m
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write(0x1000, 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read(0x1000, 8).unwrap(), 0xdead_beef_cafe_f00d);
        m.write(0x1100, 1, 0xab).unwrap();
        assert_eq!(m.read(0x1100, 1).unwrap(), 0xab);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = mem();
        assert!(m.read(0x5000, 8).is_err());
        assert!(m.write(0x0, 1, 1).is_err());
        // An access straddling the end of the mapping also faults.
        assert!(m.read(0x1ffc, 8).is_err());
    }

    #[test]
    fn zero_initialised() {
        let mut m = mem();
        assert_eq!(m.read(0x1800, 8).unwrap(), 0);
    }

    #[test]
    fn bulk_and_cstring_helpers() {
        let mut m = mem();
        m.write_bytes(0x1200, b"hello\0world").unwrap();
        assert_eq!(m.read_cstring(0x1200, 64).unwrap(), b"hello");
        assert_eq!(m.read_bytes(0x1200, 5).unwrap(), b"hello");
    }

    #[test]
    fn snapshot_restore_rewinds_only_dirty_pages() {
        let mut m = Memory::new();
        m.map_range(0, 16 * 4096);
        m.write(0x0, 8, 1).unwrap();
        m.write(0x2000, 8, 2).unwrap();
        let snap = m.snapshot();
        assert_eq!(m.dirty_pages(), 0);
        // Dirty two pages: one that existed in the snapshot, one fresh.
        m.write(0x0, 8, 99).unwrap();
        m.write(0x5000, 8, 77).unwrap();
        assert_eq!(m.dirty_pages(), 2);
        let restored = m.restore(&snap);
        assert_eq!(restored, 2);
        assert_eq!(m.read(0x0, 8).unwrap(), 1);
        assert_eq!(m.read(0x2000, 8).unwrap(), 2);
        assert_eq!(m.read(0x5000, 8).unwrap(), 0, "fresh page dropped");
        // Restore re-arms tracking: a second round works identically.
        m.write(0x0, 8, 123).unwrap();
        assert_eq!(m.restore(&snap), 1);
        assert_eq!(m.read(0x0, 8).unwrap(), 1);
    }

    #[test]
    fn restore_with_no_writes_is_free() {
        let mut m = mem();
        m.write(0x1000, 8, 5).unwrap();
        let snap = m.snapshot();
        assert_eq!(m.restore(&snap), 0);
        assert_eq!(m.read(0x1000, 8).unwrap(), 5);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.map_range(0, 2 * 4096);
        m.write(4090, 8, u64::MAX).unwrap();
        assert_eq!(m.read(4090, 8).unwrap(), u64::MAX);
    }

    #[test]
    fn snapshot_write_copies_page_lazily_and_preserves_the_capture() {
        let mut m = mem();
        m.write(0x1000, 8, 7).unwrap();
        let snap = m.snapshot();
        // The snapshot shares the buffer; the next write CoW-copies it.
        assert_eq!(m.cow_faults(), 0);
        m.write(0x1000, 8, 8).unwrap();
        assert!(m.cow_faults() >= 1);
        assert_eq!(m.read(0x1000, 8).unwrap(), 8);
        m.restore(&snap);
        assert_eq!(m.read(0x1000, 8).unwrap(), 7, "capture unharmed by CoW");
    }

    #[test]
    fn restore_after_restore_rewinds_each_rounds_writes() {
        // Two restore rounds with different write sets: the second restore
        // must rewind exactly the second round's pages, including a page the
        // first round never touched.
        let mut m = Memory::new();
        m.map_range(0, 16 * 4096);
        m.write(0x0, 8, 1).unwrap();
        let snap = m.snapshot();
        m.write(0x0, 8, 2).unwrap();
        assert_eq!(m.restore(&snap), 1);
        m.write(0x3000, 8, 3).unwrap();
        m.write(0x7000, 8, 4).unwrap();
        assert_eq!(m.restore(&snap), 2, "second round tracked independently");
        assert_eq!(m.read(0x0, 8).unwrap(), 1);
        assert_eq!(m.read(0x3000, 8).unwrap(), 0);
        assert_eq!(m.read(0x7000, 8).unwrap(), 0);
        // And a third round still works after back-to-back restores with no
        // writes in between.
        assert_eq!(m.restore(&snap), 0);
        assert_eq!(m.read(0x0, 8).unwrap(), 1);
    }

    #[test]
    fn dirty_write_straddling_a_page_boundary_restores_both_pages() {
        let mut m = Memory::new();
        m.map_range(0, 4 * 4096);
        m.write(4090, 8, 0x1111_2222_3333_4444).unwrap();
        let snap = m.snapshot();
        // One 8-byte store spanning pages 0 and 1 dirties both.
        m.write(4090, 8, u64::MAX).unwrap();
        assert_eq!(m.dirty_pages(), 2);
        assert_eq!(m.restore(&snap), 2);
        assert_eq!(m.read(4090, 8).unwrap(), 0x1111_2222_3333_4444);
    }

    #[test]
    fn forks_share_pages_and_never_observe_each_others_writes() {
        let mut base = Memory::new();
        base.map_range(0, 8 * 4096);
        base.write(0x0, 8, 42).unwrap();
        base.write(0x2000, 8, 43).unwrap();
        let snap = base.snapshot();
        let mut f1 = Memory::fork(&snap);
        let mut f2 = Memory::fork(&snap);
        assert_eq!(f1.resident_private_pages(), 0, "forks own nothing");
        assert_eq!(f1.read(0x0, 8).unwrap(), 42, "reads hit shared pages");
        f1.write(0x0, 8, 100).unwrap();
        f2.write(0x0, 8, 200).unwrap();
        assert_eq!(f1.read(0x0, 8).unwrap(), 100);
        assert_eq!(f2.read(0x0, 8).unwrap(), 200);
        assert_eq!(base.read(0x0, 8).unwrap(), 42, "base unharmed");
        assert_eq!(f1.cow_faults(), 1);
        assert_eq!(f1.resident_private_pages(), 1);
        assert_eq!(f2.read(0x2000, 8).unwrap(), 43, "untouched page shared");
    }

    #[test]
    fn fork_restore_releases_private_copies() {
        let mut base = Memory::new();
        base.map_range(0, 8 * 4096);
        base.write(0x0, 8, 7).unwrap();
        let snap = base.snapshot();
        let mut f = Memory::fork(&snap);
        f.write(0x0, 8, 9).unwrap();
        f.write(0x5000, 8, 10).unwrap();
        assert_eq!(f.resident_private_pages(), 2);
        assert_eq!(f.restore(&snap), 2);
        assert_eq!(f.resident_private_pages(), 0, "copies released");
        assert_eq!(f.read(0x0, 8).unwrap(), 7);
        assert_eq!(f.read(0x5000, 8).unwrap(), 0);
    }

    #[test]
    fn fork_of_a_forks_snapshot_tracks_ownership_through_restore() {
        // A fork takes its own snapshot (post-setup); restoring to it must
        // keep the fork's setup pages owned but release request pages.
        let mut base = Memory::new();
        base.map_range(0, 8 * 4096);
        base.write(0x0, 8, 1).unwrap();
        let base_snap = base.snapshot();
        let mut f = Memory::fork(&base_snap);
        f.write(0x1000, 8, 2).unwrap(); // "setup" page: materialised by the fork
        let post_setup = f.snapshot();
        f.write(0x1000, 8, 3).unwrap(); // re-dirty the setup page
        f.write(0x0, 8, 4).unwrap(); // CoW a base page
        assert_eq!(f.resident_private_pages(), 2);
        assert_eq!(f.restore(&post_setup), 2);
        assert_eq!(f.read(0x1000, 8).unwrap(), 2);
        assert_eq!(f.read(0x0, 8).unwrap(), 1, "base page rewound");
        assert_eq!(
            f.resident_private_pages(),
            1,
            "setup page stays owned, the CoW'd base page is released"
        );
    }
}
