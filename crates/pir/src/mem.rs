//! The interpreter's volatile address space.
//!
//! A single flat 64-bit address space is partitioned by range/tag:
//!
//! | range                         | contents                          |
//! |-------------------------------|-----------------------------------|
//! | `0`                           | null (always faults)              |
//! | [`GLOBALS_BASE`]..            | module globals                    |
//! | [`STACK_BASE`] + tid × 1 MiB  | per-thread stacks (allocas)       |
//! | [`VHEAP_BASE`]..              | volatile heap (`malloc`)          |
//! | [`FUNC_TAG`] \| id            | function addresses                |
//! | [`PM_TAG`] \| offset          | persistent-memory pool offsets    |
//!
//! Heap accesses are validated against live allocations, so null
//! dereferences, wild pointers and use-after-free become precise
//! [`MemFault`]s that the VM turns into segfault traps — the same symptom
//! the corresponding C bugs exhibit.
//!
//! A thread's whole 1 MiB stack region is addressable, but only the
//! [`STACK_PAGE`]-sized pages a program has stored to are backed by memory:
//! an unwritten page reads as zero, and reusing a thread slot costs the
//! pages its previous user dirtied, not the region.

use std::collections::BTreeMap;

/// Base address of module globals.
pub const GLOBALS_BASE: u64 = 0x10_0000;
/// Base address of per-thread stacks.
pub const STACK_BASE: u64 = 0x1_0000_0000;
/// Size of one thread's stack region.
pub const STACK_SIZE: u64 = 1 << 20;
/// Granularity at which a stack region is backed by memory.
pub const STACK_PAGE: usize = 4096;
/// Base address of the volatile heap.
pub const VHEAP_BASE: u64 = 0x100_0000_0000;
/// Tag bit for function addresses.
pub const FUNC_TAG: u64 = 1 << 61;
/// Tag bit for persistent-memory addresses.
pub const PM_TAG: u64 = 1 << 62;

/// Returns whether `addr` is a persistent-memory address.
pub fn is_pm(addr: u64) -> bool {
    addr & PM_TAG != 0 && addr & FUNC_TAG == 0
}

/// Extracts the pool offset from a PM address.
pub fn pm_offset(addr: u64) -> u64 {
    addr & !PM_TAG
}

/// Builds a PM address from a pool offset.
pub fn pm_addr(offset: u64) -> u64 {
    PM_TAG | offset
}

/// A memory-access failure; carries enough context for a precise trap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFault {
    /// Access to unmapped or dead memory (null, OOB, use-after-free).
    Segfault {
        /// The faulting address.
        addr: u64,
        /// Access length.
        len: u64,
    },
    /// `vfree` of something that is not a live heap block.
    BadFree {
        /// The offending address.
        addr: u64,
    },
}

/// One thread's stack region: the pages stored to so far.
#[derive(Default)]
struct Stack {
    /// `slot[p]` is 1 + the index in `pages` of the page backing stack
    /// page `p`, 0 while nothing was stored there; as long as the highest
    /// page stored to.
    slot: Vec<u16>,
    pages: Vec<Box<[u8]>>,
}

impl Stack {
    fn page(&self, p: usize) -> Option<&[u8]> {
        match self.slot.get(p) {
            Some(&s) if s != 0 => Some(&self.pages[s as usize - 1]),
            _ => None,
        }
    }
}

/// The volatile side of the VM's memory.
pub struct VolMem {
    globals: Vec<u8>,
    stacks: Vec<Stack>,
    /// Pages released by [`VolMem::reset_stack`], contents stale.
    spare_pages: Vec<Box<[u8]>>,
    heap: Vec<u8>,
    live: BTreeMap<u64, u64>,
    free_list: BTreeMap<u64, u64>,
    brk: u64,
}

const HEAP_ALIGN: u64 = 16;

impl VolMem {
    /// Creates a volatile memory with room for `globals_size` bytes of
    /// globals.
    pub fn new(globals_size: u64) -> Self {
        VolMem {
            globals: vec![0; globals_size as usize],
            stacks: Vec::new(),
            spare_pages: Vec::new(),
            heap: Vec::new(),
            live: BTreeMap::new(),
            free_list: BTreeMap::new(),
            brk: 0,
        }
    }

    /// Ensures a stack region exists for thread `tid`.
    pub fn ensure_stack(&mut self, tid: u32) {
        if self.stacks.len() <= tid as usize {
            self.stacks.resize_with(tid as usize + 1, Stack::default);
        }
    }

    /// Makes thread `tid`'s stack read as zero again (on thread-slot
    /// reuse), keeping the pages it had for whoever stores next.
    pub fn reset_stack(&mut self, tid: u32) {
        self.ensure_stack(tid);
        let stack = &mut self.stacks[tid as usize];
        stack.slot.clear();
        self.spare_pages.append(&mut stack.pages);
    }

    /// Bytes of memory currently held to back stacks, in use or spare.
    pub fn stack_resident_bytes(&self) -> usize {
        let in_use: usize = self.stacks.iter().map(|s| s.pages.len()).sum();
        (in_use + self.spare_pages.len()) * STACK_PAGE
    }

    /// The page backing stack page `p` of thread `tid`, made on first use.
    fn stack_page_mut(&mut self, tid: usize, p: usize) -> &mut [u8] {
        let stack = &mut self.stacks[tid];
        if stack.slot.len() <= p {
            stack.slot.resize(p + 1, 0);
        }
        if stack.slot[p] == 0 {
            let page = match self.spare_pages.pop() {
                Some(mut page) => {
                    page.fill(0);
                    page
                }
                None => vec![0; STACK_PAGE].into_boxed_slice(),
            };
            stack.pages.push(page);
            stack.slot[p] = stack.pages.len() as u16;
        }
        &mut stack.pages[stack.slot[p] as usize - 1]
    }

    /// Allocates `size` bytes on the volatile heap; returns the address.
    pub fn malloc(&mut self, size: u64) -> u64 {
        let size = size.max(1).div_ceil(HEAP_ALIGN) * HEAP_ALIGN;
        // First fit over the free list.
        let found = self
            .free_list
            .iter()
            .find(|(_, &s)| s >= size)
            .map(|(&a, &s)| (a, s));
        let addr_off = match found {
            Some((a, s)) => {
                self.free_list.remove(&a);
                if s - size >= HEAP_ALIGN * 2 {
                    self.free_list.insert(a + size, s - size);
                }
                a
            }
            None => {
                let a = self.brk;
                self.brk += size;
                if self.heap.len() < self.brk as usize {
                    self.heap.resize(self.brk as usize, 0);
                }
                a
            }
        };
        // Zero the block (fresh or recycled).
        self.heap[addr_off as usize..(addr_off + size) as usize].fill(0);
        self.live.insert(addr_off, size);
        VHEAP_BASE + addr_off
    }

    /// Frees a heap allocation; exact block address required.
    pub fn free(&mut self, addr: u64) -> Result<(), MemFault> {
        if addr < VHEAP_BASE {
            return Err(MemFault::BadFree { addr });
        }
        let off = addr - VHEAP_BASE;
        match self.live.remove(&off) {
            Some(size) => {
                self.free_list.insert(off, size);
                Ok(())
            }
            None => Err(MemFault::BadFree { addr }),
        }
    }

    /// Number of live heap allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total live heap bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live.values().sum()
    }

    #[inline]
    fn resolve(&self, addr: u64, len: u64) -> Result<Region, MemFault> {
        if len == 0 {
            return Ok(Region::Empty);
        }
        let fault = || MemFault::Segfault { addr, len };
        if addr == 0 {
            return Err(fault());
        }
        if addr >= GLOBALS_BASE && addr < GLOBALS_BASE + self.globals.len() as u64 {
            let off = addr - GLOBALS_BASE;
            if off + len <= self.globals.len() as u64 {
                return Ok(Region::Globals(off as usize));
            }
            return Err(fault());
        }
        if addr >= STACK_BASE && addr < STACK_BASE + self.stacks.len() as u64 * STACK_SIZE {
            let tid = ((addr - STACK_BASE) / STACK_SIZE) as usize;
            let off = (addr - STACK_BASE) % STACK_SIZE;
            if off + len <= STACK_SIZE {
                return Ok(Region::Stack(tid, off as usize));
            }
            return Err(fault());
        }
        if addr >= VHEAP_BASE {
            let off = addr - VHEAP_BASE;
            // The access must fall fully within one live block.
            if let Some((&start, &size)) = self.live.range(..=off).next_back() {
                if off >= start && off + len <= start + size {
                    return Ok(Region::Heap(off as usize));
                }
            }
            return Err(fault());
        }
        Err(fault())
    }

    /// Errs unless `[addr, addr + len)` is accessible (an empty range
    /// always is).
    pub fn check(&self, addr: u64, len: u64) -> Result<(), MemFault> {
        self.resolve(addr, len).map(|_| ())
    }

    /// Reads `len` bytes at a volatile address.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        self.check(addr, len)?;
        let mut out = vec![0; len as usize];
        self.read_into(addr, &mut out)?;
        Ok(out)
    }

    /// Fills `buf` from a volatile address.
    #[inline]
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        match self.resolve(addr, buf.len() as u64)? {
            Region::Empty => {}
            Region::Globals(o) => buf.copy_from_slice(&self.globals[o..o + buf.len()]),
            Region::Heap(o) => buf.copy_from_slice(&self.heap[o..o + buf.len()]),
            Region::Stack(t, mut o) => {
                let stack = &self.stacks[t];
                let mut rest = buf;
                while !rest.is_empty() {
                    let at = o % STACK_PAGE;
                    let (part, tail) = rest.split_at_mut(rest.len().min(STACK_PAGE - at));
                    match stack.page(o / STACK_PAGE) {
                        Some(page) => part.copy_from_slice(&page[at..at + part.len()]),
                        None => part.fill(0),
                    }
                    o += part.len();
                    rest = tail;
                }
            }
        }
        Ok(())
    }

    /// Writes `bytes` at a volatile address.
    #[inline]
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        match self.resolve(addr, bytes.len() as u64)? {
            Region::Empty => {}
            Region::Globals(o) => self.globals[o..o + bytes.len()].copy_from_slice(bytes),
            Region::Heap(o) => self.heap[o..o + bytes.len()].copy_from_slice(bytes),
            Region::Stack(t, o) => self.store_stack(t, o, bytes.len(), |part, done| {
                part.copy_from_slice(&bytes[done..done + part.len()])
            }),
        }
        Ok(())
    }

    /// Sets `len` bytes at a volatile address to `byte`.
    pub fn fill(&mut self, addr: u64, byte: u8, len: u64) -> Result<(), MemFault> {
        let n = len as usize;
        match self.resolve(addr, len)? {
            Region::Empty => {}
            Region::Globals(o) => self.globals[o..o + n].fill(byte),
            Region::Heap(o) => self.heap[o..o + n].fill(byte),
            Region::Stack(t, o) => self.store_stack(t, o, n, |part, _| part.fill(byte)),
        }
        Ok(())
    }

    /// Stores to `len` bytes at offset `o` of thread `t`'s stack a page at
    /// a time: `put` is handed each page's part of the range and how far
    /// into the range it starts.
    #[inline]
    fn store_stack(
        &mut self,
        t: usize,
        o: usize,
        len: usize,
        mut put: impl FnMut(&mut [u8], usize),
    ) {
        let mut done = 0;
        while done < len {
            let at = (o + done) % STACK_PAGE;
            let n = (len - done).min(STACK_PAGE - at);
            put(
                &mut self.stack_page_mut(t, (o + done) / STACK_PAGE)[at..at + n],
                done,
            );
            done += n;
        }
    }
}

enum Region {
    Empty,
    Globals(usize),
    Stack(usize, usize),
    Heap(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_partition_the_space() {
        assert!(is_pm(pm_addr(100)));
        assert!(!is_pm(VHEAP_BASE));
        assert!(!is_pm(FUNC_TAG | 3));
        assert_eq!(pm_offset(pm_addr(4096)), 4096);
    }

    #[test]
    fn malloc_free_reuse() {
        let mut m = VolMem::new(0);
        let a = m.malloc(100);
        let b = m.malloc(100);
        assert_ne!(a, b);
        m.free(a).unwrap();
        let c = m.malloc(64);
        assert_eq!(c, a, "freed block reused");
        assert_eq!(m.live_count(), 2);
    }

    #[test]
    fn use_after_free_faults() {
        let mut m = VolMem::new(0);
        let a = m.malloc(32);
        m.write(a, &[1; 32]).unwrap();
        m.free(a).unwrap();
        assert!(matches!(m.read(a, 8), Err(MemFault::Segfault { .. })));
    }

    #[test]
    fn null_and_wild_pointers_fault() {
        let m = VolMem::new(16);
        assert!(m.read(0, 1).is_err());
        assert!(m.read(0xdead, 1).is_err());
        assert!(m.read(VHEAP_BASE + 5000, 1).is_err());
    }

    #[test]
    fn oob_within_block_faults() {
        let mut m = VolMem::new(0);
        let a = m.malloc(16);
        assert!(m.write(a, &[0; 16]).is_ok());
        assert!(m.write(a + 8, &[0; 16]).is_err());
    }

    #[test]
    fn double_free_faults() {
        let mut m = VolMem::new(0);
        let a = m.malloc(8);
        m.free(a).unwrap();
        assert!(matches!(m.free(a), Err(MemFault::BadFree { .. })));
    }

    #[test]
    fn globals_and_stack_access() {
        let mut m = VolMem::new(64);
        m.write(GLOBALS_BASE + 8, &7u64.to_le_bytes()).unwrap();
        assert_eq!(m.read(GLOBALS_BASE + 8, 8).unwrap(), 7u64.to_le_bytes());
        m.ensure_stack(1);
        let sp = STACK_BASE + STACK_SIZE + 128;
        m.write(sp, &[9; 4]).unwrap();
        assert_eq!(m.read(sp, 4).unwrap(), vec![9; 4]);
    }

    #[test]
    fn malloc_zeroes_recycled_memory() {
        let mut m = VolMem::new(0);
        let a = m.malloc(32);
        m.write(a, &[0xFF; 32]).unwrap();
        m.free(a).unwrap();
        let b = m.malloc(32);
        assert_eq!(m.read(b, 32).unwrap(), vec![0; 32]);
    }

    #[test]
    fn a_stack_is_backed_by_the_pages_stored_to() {
        let mut m = VolMem::new(0);
        m.ensure_stack(2);
        let base = STACK_BASE + 2 * STACK_SIZE;
        let page = STACK_PAGE as u64;
        // The whole region reads as zero and costs nothing.
        assert_eq!(m.read(base + STACK_SIZE - 8, 8).unwrap(), vec![0; 8]);
        assert_eq!(m.stack_resident_bytes(), 0);
        // A store straddling two pages backs those two.
        m.write(base + page - 3, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(m.stack_resident_bytes(), 2 * STACK_PAGE);
        assert_eq!(
            m.read(base + page - 4, 8).unwrap(),
            vec![0, 1, 2, 3, 4, 5, 6, 0]
        );
        // A fill across an unbacked page, read back across all three.
        m.fill(base + 2 * page - 2, 9, page + 4).unwrap();
        let got = m.read(base + 2 * page - 3, page + 6).unwrap();
        assert_eq!(
            (got[0], got[1], got[got.len() - 2], got[got.len() - 1]),
            (0, 9, 9, 0)
        );
        assert!(got[1..got.len() - 1].iter().all(|&b| b == 9));
        assert_eq!(m.stack_resident_bytes(), 4 * STACK_PAGE);
        // The region's bounds are the old ones.
        assert!(m.write(base + STACK_SIZE - 4, &[0; 8]).is_err());
        assert!(m.read(base + STACK_SIZE, 1).is_err(), "no thread 3");

        // Reuse: everything reads zero again, pages are kept and handed
        // out zeroed to whichever thread stores next.
        m.reset_stack(2);
        assert_eq!(m.read(base + page - 3, 6).unwrap(), vec![0; 6]);
        assert_eq!(m.stack_resident_bytes(), 4 * STACK_PAGE);
        m.write(STACK_BASE + 5 * page + 1, &[7]).unwrap();
        assert_eq!(m.read(STACK_BASE + 5 * page, 3).unwrap(), vec![0, 7, 0]);
        assert_eq!(m.stack_resident_bytes(), 4 * STACK_PAGE);
    }
}
