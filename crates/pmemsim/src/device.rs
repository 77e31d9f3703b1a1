//! The raw simulated persistent-memory device.
//!
//! The device models the persistence semantics that matter for hard-fault
//! reproduction: stores land in a volatile CPU-cache overlay; an explicit
//! `flush` stages the affected cache lines for write-back; a `drain` (fence)
//! commits staged lines to durable *media*. A simulated [`crash`] discards
//! everything that has not reached media, according to a configurable
//! [`CrashPolicy`].
//!
//! [`crash`]: PmDevice::crash

use std::collections::btree_map::{BTreeMap, Entry};

use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;

use crate::error::{PmError, PmResult};
use crate::image::PmImage;

/// Size of a simulated CPU cache line in bytes.
pub const CACHE_LINE: u64 = 64;

/// What happens to *flushed but not yet drained* cache lines on a crash.
///
/// Dirty lines that were never flushed are always lost, matching real
/// hardware. Lines that were flushed but not fenced are in flight; real
/// platforms may or may not have written them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// In-flight lines are lost. The most adversarial, and the default.
    DropStaged,
    /// In-flight lines reach media, as on a platform with eADR.
    KeepStaged,
    /// Each in-flight line independently survives with probability 1/2,
    /// drawn from a deterministic RNG seeded with the given value.
    RandomStaged(u64),
}

/// Per-device event counters, used by the overhead experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Bytes written by stores.
    pub bytes_written: u64,
    /// Bytes read by loads.
    pub bytes_read: u64,
    /// Number of `flush` calls.
    pub flushes: u64,
    /// Number of `drain` calls.
    pub drains: u64,
    /// Number of cache lines written back to media.
    pub lines_written_back: u64,
    /// Number of simulated crashes.
    pub crashes: u64,
    /// Media pages copied because a write landed on a page another image
    /// (a fork, snapshot or replica) still shared.
    pub pages_copied: u64,
}

/// A line holding stores that have not reached media.
#[derive(Clone)]
struct DirtyLine {
    data: [u8; CACHE_LINE as usize],
    /// Flushed and awaiting a drain.
    staged: bool,
}

/// A simulated byte-addressable persistent-memory device.
///
/// All operations are bounds-checked and return [`PmError::OutOfBounds`] on
/// violation rather than panicking, so that the interpreter above can turn
/// them into precise traps.
///
/// Every operation costs in proportion to what it touches. The cache holds
/// dirty lines only — a clean line is byte-identical to media, which `read`
/// falls through to, so a drain removes what it writes back — and media is
/// a [`PmImage`], so `clone` copies page pointers and a write-back copies at
/// most the page it lands on.
#[derive(Clone)]
pub struct PmDevice {
    media: PmImage,
    cache: BTreeMap<u64, DirtyLine>,
    /// Lines flushed since the last drain. A line can appear twice, or have
    /// been stored to (un-staged) since; the line's own flag decides.
    staged: Vec<u64>,
    policy: CrashPolicy,
    stats: DeviceStats,
}

impl PmDevice {
    /// Creates a zero-filled device of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        PmDevice::from_image(PmImage::zeroed(capacity as usize))
    }

    /// Creates a device whose media is initialised from `image`.
    pub fn from_image(image: PmImage) -> Self {
        PmDevice {
            media: image,
            cache: BTreeMap::new(),
            staged: Vec::new(),
            policy: CrashPolicy::DropStaged,
            stats: DeviceStats::default(),
        }
    }

    /// Sets the crash policy for in-flight lines.
    pub fn set_crash_policy(&mut self, policy: CrashPolicy) {
        self.policy = policy;
    }

    /// The current crash policy for in-flight lines.
    pub fn crash_policy(&self) -> CrashPolicy {
        self.policy
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.media.len() as u64
    }

    /// Errs unless `[offset, offset + len)` lies inside the device.
    pub fn check_range(&self, offset: u64, len: u64) -> PmResult<()> {
        self.media.check(offset, len)
    }

    /// Returns a copy of the event counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn line_of(offset: u64) -> u64 {
        offset / CACHE_LINE
    }

    /// Bytes of `line` that lie inside the device: a full line except at
    /// the tail of a capacity that is not a line multiple.
    fn line_len(&self, line: u64) -> usize {
        u64::min(CACHE_LINE, self.capacity() - line * CACHE_LINE) as usize
    }

    fn load_line(&mut self, line: u64) -> &mut DirtyLine {
        let n = self.line_len(line);
        let media = &self.media;
        // Not a read a capture records: the copied bytes reach a program
        // only through a later (captured) read, or go back unchanged.
        self.cache.entry(line).or_insert_with(|| {
            let mut data = [0u8; CACHE_LINE as usize];
            data[..n].copy_from_slice(media.within_page((line * CACHE_LINE) as usize, n));
            DirtyLine {
                data,
                staged: false,
            }
        })
    }

    fn write_back(&mut self, line: u64, data: &[u8; CACHE_LINE as usize]) {
        let n = self.line_len(line);
        let copied = self
            .media
            .write(line * CACHE_LINE, &data[..n])
            .expect("a cached line lies inside the device");
        self.stats.pages_copied += copied as u64;
        self.stats.lines_written_back += 1;
    }

    /// Stores to `[offset, offset + len)` a cache line at a time: `put` is
    /// handed each line's part of the range and how far into the range it
    /// starts.
    fn store(
        &mut self,
        offset: u64,
        len: u64,
        mut put: impl FnMut(&mut [u8], usize),
    ) -> PmResult<()> {
        self.media.check(offset, len)?;
        self.stats.bytes_written += len;
        let mut done = 0;
        while done < len {
            let cur = offset + done;
            let in_line = (cur % CACHE_LINE) as usize;
            let n = u64::min(len - done, CACHE_LINE - in_line as u64) as usize;
            let cl = self.load_line(Self::line_of(cur));
            put(&mut cl.data[in_line..in_line + n], done as usize);
            // A store after a flush but before the drain invalidates the
            // staging: the new value needs its own flush.
            cl.staged = false;
            done += n as u64;
        }
        Ok(())
    }

    /// Stores `bytes` at `offset`. The store is visible to subsequent reads
    /// immediately but is *not* durable until flushed and drained.
    pub fn write(&mut self, offset: u64, bytes: &[u8]) -> PmResult<()> {
        self.store(offset, bytes.len() as u64, |line, done| {
            line.copy_from_slice(&bytes[done..done + line.len()])
        })
    }

    /// Stores `len` copies of `byte` at `offset`: [`PmDevice::write`] of a
    /// buffer nobody has to build.
    pub fn fill(&mut self, offset: u64, byte: u8, len: u64) -> PmResult<()> {
        self.store(offset, len, |line, _| line.fill(byte))
    }

    /// Reads `len` bytes at `offset`, observing cached (not yet durable)
    /// stores.
    pub fn read(&mut self, offset: u64, len: u64) -> PmResult<Vec<u8>> {
        self.media.check(offset, len)?;
        let mut out = vec![0; len as usize];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    /// [`PmDevice::read`] into a caller-provided buffer.
    #[inline]
    pub fn read_into(&mut self, offset: u64, buf: &mut [u8]) -> PmResult<()> {
        self.peek_into(offset, buf)?;
        self.stats.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Counts a read of `[offset, offset + len)` without producing the
    /// bytes: with [`PmDevice::peek_into`], one large read done in pieces
    /// is counted as the one read it is.
    pub fn note_read(&mut self, offset: u64, len: u64) -> PmResult<()> {
        self.media.check(offset, len)?;
        self.stats.bytes_read += len;
        Ok(())
    }

    /// The bytes [`PmDevice::read_into`] would produce, uncounted.
    #[inline]
    pub fn peek_into(&self, offset: u64, buf: &mut [u8]) -> PmResult<()> {
        self.media.read_into(offset, buf)?;
        if buf.is_empty() || self.cache.is_empty() {
            return Ok(());
        }
        let end = offset + buf.len() as u64;
        let lines = Self::line_of(offset)..=Self::line_of(end - 1);
        for (&line, cl) in self.cache.range(lines) {
            let base = line * CACHE_LINE;
            let lo = base.max(offset);
            let hi = (base + CACHE_LINE).min(end);
            buf[(lo - offset) as usize..(hi - offset) as usize]
                .copy_from_slice(&cl.data[(lo - base) as usize..(hi - base) as usize]);
        }
        Ok(())
    }

    /// Flushes the cache lines covering `[offset, offset + len)`, staging
    /// them for write-back at the next [`drain`](PmDevice::drain).
    pub fn flush(&mut self, offset: u64, len: u64) -> PmResult<()> {
        self.media.check(offset, len)?;
        self.stats.flushes += 1;
        if len == 0 {
            return Ok(());
        }
        let lines = Self::line_of(offset)..=Self::line_of(offset + len - 1);
        for (&line, cl) in self.cache.range_mut(lines) {
            if !cl.staged {
                cl.staged = true;
                self.staged.push(line);
            }
        }
        Ok(())
    }

    /// Drains (fences): commits every staged line to media and drops it
    /// from the cache.
    pub fn drain(&mut self) {
        self.stats.drains += 1;
        let mut staged = std::mem::take(&mut self.staged);
        for line in staged.drain(..) {
            if let Entry::Occupied(e) = self.cache.entry(line) {
                if e.get().staged {
                    let cl = e.remove();
                    self.write_back(line, &cl.data);
                }
            }
        }
        self.staged = staged;
    }

    /// Flush + drain for a range: the `pmem_persist` primitive.
    pub fn persist(&mut self, offset: u64, len: u64) -> PmResult<()> {
        self.flush(offset, len)?;
        self.drain();
        Ok(())
    }

    /// Simulates a power failure / process crash.
    ///
    /// Unflushed dirty lines are always lost. Staged (flushed but not
    /// drained) lines follow the device's [`CrashPolicy`]. After this call
    /// reads observe only what reached media.
    pub fn crash(&mut self) {
        self.stats.crashes += 1;
        let policy = self.policy;
        let mut rng = match policy {
            CrashPolicy::RandomStaged(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        self.staged.clear();
        let cache = std::mem::take(&mut self.cache);
        for (line, cl) in cache {
            if !cl.staged {
                continue;
            }
            let survive = match policy {
                CrashPolicy::DropStaged => false,
                CrashPolicy::KeepStaged => true,
                CrashPolicy::RandomStaged(_) => rng
                    .as_mut()
                    .map(|r| r.random_range(0..2u32) == 1)
                    .unwrap_or(false),
            };
            if survive {
                self.write_back(line, &cl.data);
            }
        }
    }

    /// Returns a point-in-time image of the durable media contents, sharing
    /// every page with the device until either side writes it.
    ///
    /// Used by the pmCRIU baseline to snapshot a pool.
    pub fn media_image(&self) -> PmImage {
        self.media.clone()
    }

    /// Replaces the durable media with `image` and discards the cache.
    ///
    /// Used by the pmCRIU baseline to restore a snapshot. Returns an error
    /// if the image size differs from the device capacity.
    pub fn restore_image(&mut self, image: &PmImage) -> PmResult<()> {
        if image.len() != self.media.len() {
            return Err(PmError::BadHeader(format!(
                "snapshot image size {} != device capacity {}",
                image.len(),
                self.media.len()
            )));
        }
        self.media = image.clone();
        self.cache.clear();
        self.staged.clear();
        Ok(())
    }

    /// Flips one bit of the byte at `offset`, in media and in any cached
    /// copy, so both durable state and subsequent reads observe it.
    ///
    /// Fault-injection helper modelling a hardware bit flip that corrupted
    /// persistent state (the paper's "Hardware Faults" root-cause class).
    pub fn corrupt_bit(&mut self, offset: u64, bit: u8) -> PmResult<()> {
        self.stats.pages_copied += self.media.flip_bit(offset, bit)? as u64;
        if let Some(cl) = self.cache.get_mut(&Self::line_of(offset)) {
            cl.data[(offset % CACHE_LINE) as usize] ^= 1 << (bit & 7);
        }
        Ok(())
    }

    /// Number of dirty (not yet durable) cache lines; diagnostic.
    pub fn dirty_lines(&self) -> usize {
        self.cache.len()
    }

    /// Number of lines the cache holds. Equal to [`dirty_lines`] by
    /// construction (clean lines are never kept), so it is zero once every
    /// store has been persisted, however many lines the device has seen.
    ///
    /// [`dirty_lines`]: PmDevice::dirty_lines
    pub fn cached_lines(&self) -> usize {
        self.cache.len()
    }
}

impl std::fmt::Debug for PmDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmDevice")
            .field("capacity", &self.capacity())
            .field("dirty_lines", &self.dirty_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_sees_cached_value() {
        let mut d = PmDevice::new(4096);
        d.write(100, &[1, 2, 3, 4]).unwrap();
        assert_eq!(d.read(100, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn unflushed_write_is_lost_on_crash() {
        let mut d = PmDevice::new(4096);
        d.write(0, &[0xAB; 8]).unwrap();
        d.crash();
        assert_eq!(d.read(0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn persisted_write_survives_crash() {
        let mut d = PmDevice::new(4096);
        d.write(0, &[0xAB; 8]).unwrap();
        d.persist(0, 8).unwrap();
        d.crash();
        assert_eq!(d.read(0, 8).unwrap(), vec![0xAB; 8]);
    }

    #[test]
    fn flushed_but_not_drained_follows_policy() {
        // DropStaged: lost.
        let mut d = PmDevice::new(4096);
        d.write(0, &[7; 4]).unwrap();
        d.flush(0, 4).unwrap();
        d.crash();
        assert_eq!(d.read(0, 4).unwrap(), vec![0; 4]);

        // KeepStaged: survives.
        let mut d = PmDevice::new(4096);
        d.set_crash_policy(CrashPolicy::KeepStaged);
        d.write(0, &[7; 4]).unwrap();
        d.flush(0, 4).unwrap();
        d.crash();
        assert_eq!(d.read(0, 4).unwrap(), vec![7; 4]);
    }

    #[test]
    fn store_after_flush_requires_new_flush() {
        let mut d = PmDevice::new(4096);
        d.write(0, &[1; 4]).unwrap();
        d.flush(0, 4).unwrap();
        // Overwrite before the drain: the line is re-dirtied and un-staged.
        d.write(0, &[2; 4]).unwrap();
        d.drain();
        d.crash();
        // Neither value was properly persisted as a whole; the line was
        // unstaged so the drain wrote nothing back.
        assert_eq!(d.read(0, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn cross_line_write_and_read() {
        let mut d = PmDevice::new(4096);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        d.write(60, &data).unwrap();
        assert_eq!(d.read(60, 200).unwrap(), data);
        d.persist(60, 200).unwrap();
        d.crash();
        assert_eq!(d.read(60, 200).unwrap(), data);
    }

    #[test]
    fn out_of_bounds_is_an_error_not_a_panic() {
        let mut d = PmDevice::new(128);
        assert!(matches!(
            d.write(120, &[0; 16]),
            Err(PmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            d.read(u64::MAX, 1),
            Err(PmError::OutOfBounds { .. })
        ));
        assert!(d.read(0, 0).is_ok());
    }

    #[test]
    fn snapshot_and_restore_round_trip() {
        let mut d = PmDevice::new(1024);
        d.write(0, b"hello").unwrap();
        d.persist(0, 5).unwrap();
        let img = d.media_image();
        d.write(0, b"world").unwrap();
        d.persist(0, 5).unwrap();
        d.restore_image(&img).unwrap();
        assert_eq!(d.read(0, 5).unwrap(), b"hello".to_vec());
    }

    #[test]
    fn random_staged_policy_is_deterministic() {
        let run = |seed| {
            let mut d = PmDevice::new(8192);
            d.set_crash_policy(CrashPolicy::RandomStaged(seed));
            for i in 0..16u64 {
                d.write(i * 64, &[i as u8 + 1; 64]).unwrap();
                d.flush(i * 64, 64).unwrap();
            }
            d.crash();
            d.read(0, 1024).unwrap()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn stats_count_events() {
        let mut d = PmDevice::new(4096);
        d.write(0, &[1; 10]).unwrap();
        d.read(0, 10).unwrap();
        d.persist(0, 10).unwrap();
        let s = d.stats();
        assert_eq!(s.bytes_written, 10);
        assert_eq!(s.bytes_read, 10);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.drains, 1);
        assert_eq!(s.lines_written_back, 1);
    }

    #[test]
    fn a_fence_leaves_nothing_cached_however_much_was_written() {
        let mut d = PmDevice::new(1 << 20);
        for i in 0..1000u64 {
            d.write(i * 100, &[i as u8; 100]).unwrap();
            d.persist(i * 100, 100).unwrap();
            assert_eq!(d.cached_lines(), 0);
        }
        // An unflushed store stays cached (and dirty) across fences.
        d.write(7, &[1]).unwrap();
        d.drain();
        assert_eq!((d.cached_lines(), d.dirty_lines()), (1, 1));
        d.crash();
        assert_eq!(d.cached_lines(), 0);
        assert_eq!(d.read(0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn a_clone_and_its_original_never_see_each_others_later_writes() {
        let mut a = PmDevice::new(3 * 4096);
        a.write(0, &[1; 8]).unwrap();
        a.persist(0, 8).unwrap(); // shared media page
        a.write(4096, &[2; 8]).unwrap(); // shared-at-clone dirty line
        let mut b = a.clone();
        assert_eq!(b.stats(), a.stats());

        // Cache, both directions.
        a.write(4096, &[3; 8]).unwrap();
        b.write(4100, &[4; 4]).unwrap();
        assert_eq!(a.read(4096, 8).unwrap(), vec![3; 8]);
        assert_eq!(b.read(4096, 8).unwrap(), vec![2, 2, 2, 2, 4, 4, 4, 4]);

        // Media, both directions, on the page they share.
        a.write(0, &[5; 8]).unwrap();
        a.persist(0, 8).unwrap();
        assert_eq!(b.media_image().read(0, 8).unwrap(), vec![1; 8]);
        b.write(8, &[6; 8]).unwrap();
        b.persist(8, 8).unwrap();
        assert_eq!(a.media_image().read(0, 16).unwrap()[8..], [0; 8]);
        assert_eq!(b.media_image().read(0, 16).unwrap()[..8], [1; 8]);
        b.corrupt_bit(2 * 4096, 0).unwrap();
        assert_eq!(a.read(2 * 4096, 1).unwrap(), vec![0]);
    }

    #[test]
    fn pages_copied_counts_only_writes_to_shared_pages() {
        let mut d = PmDevice::new(4 * 4096);
        d.write(0, &[1; 128]).unwrap();
        d.persist(0, 128).unwrap();
        assert_eq!(d.stats().pages_copied, 1, "the shared zero page");
        d.write(64, &[2; 64]).unwrap();
        d.persist(64, 64).unwrap();
        assert_eq!(d.stats().pages_copied, 1, "page 0 is private now");

        let image = d.media_image();
        d.write(0, &[3; 8]).unwrap();
        d.persist(0, 8).unwrap();
        assert_eq!(d.stats().pages_copied, 2, "the image still held page 0");
        d.corrupt_bit(4096, 1).unwrap();
        assert_eq!(d.stats().pages_copied, 3);
        d.restore_image(&image).unwrap();
        assert_eq!(d.stats().pages_copied, 3, "a restore copies no page");
        assert_eq!(d.read(0, 8).unwrap(), vec![1; 8]);
    }

    #[test]
    fn a_capacity_that_is_no_line_multiple_keeps_its_exact_bounds() {
        let mut d = PmDevice::new(4097);
        assert_eq!(d.capacity(), 4097);
        d.write(4090, &[9; 7]).unwrap();
        d.persist(4090, 7).unwrap();
        d.crash();
        assert_eq!(d.read(4090, 7).unwrap(), vec![9; 7]);
        assert_eq!(d.media_image().len(), 4097);
        assert!(matches!(
            d.write(4096, &[0; 2]),
            Err(PmError::OutOfBounds { capacity: 4097, .. })
        ));
        assert!(d.read(4097, 1).is_err() && d.flush(4096, 2).is_err());
        assert!(d.corrupt_bit(4097, 0).is_err());
    }

    #[test]
    fn fill_is_a_write_of_repeated_bytes() {
        let mut a = PmDevice::new(3 * 4096);
        let mut b = a.clone();
        for (offset, byte, len) in [
            (60u64, 7u8, 200u64),
            (4090, 0, 10),
            (100, 9, 0),
            (8000, 1, 64),
        ] {
            a.write(offset, &vec![byte; len as usize]).unwrap();
            b.fill(offset, byte, len).unwrap();
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.dirty_lines(), b.dirty_lines());
        }
        a.persist(0, 3 * 4096).unwrap();
        b.persist(0, 3 * 4096).unwrap();
        assert_eq!(a.media_image(), b.media_image());
        // Refused whole, like the write.
        assert!(b.fill(3 * 4096 - 4, 1, 8).is_err());
        assert!(b.fill(u64::MAX, 1, 2).is_err());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn a_read_in_pieces_is_counted_as_the_one_read_it_is() {
        let mut whole = PmDevice::new(2 * 4096);
        whole.write(4000, &(0..=255).collect::<Vec<u8>>()).unwrap();
        whole.persist(4000, 128).unwrap(); // half durable, half cached
        let mut pieces = whole.clone();

        let want = whole.read(3990, 300).unwrap();
        pieces.note_read(3990, 300).unwrap();
        let mut got = vec![0; 300];
        for (i, part) in got.chunks_mut(77).enumerate() {
            pieces.peek_into(3990 + 77 * i as u64, part).unwrap();
        }
        assert_eq!(got, want);
        assert_eq!(pieces.stats(), whole.stats());

        let mut buf = [0; 8];
        whole.read_into(4100, &mut buf).unwrap();
        assert_eq!(buf.to_vec(), pieces.read(4100, 8).unwrap());
        assert_eq!(pieces.stats(), whole.stats());
        // Out of bounds: refused before anything is counted.
        assert!(pieces.note_read(2 * 4096 - 1, 2).is_err());
        assert!(pieces.read_into(2 * 4096 - 1, &mut buf).is_err());
        assert_eq!(pieces.stats(), whole.stats());
    }
}
