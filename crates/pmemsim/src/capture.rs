//! Byte-exact capture of what a computation reads from PM images.
//!
//! [`capture_reads`] runs a closure and returns, with its result, every
//! byte range the closure read from any [`PmImage`] on the calling
//! thread. Every way bytes leave an image goes through here: `read` and
//! `read_into` (so every device and pool read or peek, the allocator's
//! walks, redo and undo recovery, [`PmPool::check`]), `to_vec`, and
//! equality. A store into part of a cache line copies the rest of the
//! line from media without capturing it: those bytes reach the program
//! only through a later read, which is captured, or go back to media
//! unchanged.
//!
//! The capture is per thread, so captures running on different threads
//! never see each other's reads. A computation that reads an image on
//! another thread is not covered.
//!
//! [`PmImage`]: crate::PmImage
//! [`PmPool::check`]: crate::PmPool::check

use std::cell::{Cell, RefCell};
use std::ops::Range;

use crate::image::PAGE;

/// Bits per bitmap word.
const WORD: usize = u64::BITS as usize;

type PageBits = [u64; PAGE / WORD];

thread_local! {
    /// Whether a capture is running on this thread: all a read outside a
    /// capture looks at.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static READS: RefCell<Bitmap> = const { RefCell::new(Bitmap { pages: Vec::new() }) };
}

/// Records a read of `len` bytes at `offset` into the running capture, if
/// any. The range has been bounds-checked against its image.
#[inline]
pub(crate) fn note(offset: u64, len: usize) {
    if ACTIVE.get() {
        record(offset, len);
    }
}

/// Kept out of line, so the check above is all a read site inlines.
#[inline(never)]
fn record(offset: u64, len: usize) {
    READS.with_borrow_mut(|bits| bits.insert(offset as usize, len));
}

/// Runs `f`, returning its result and every byte range it read from a
/// [`PmImage`](crate::PmImage) on this thread.
///
/// # Panics
///
/// When called inside a running capture on the same thread: captures do
/// not nest.
///
/// ```
/// use pmemsim::{capture_reads, PmImage};
///
/// let img = PmImage::from(vec![7u8; 8192]);
/// let (byte, reads) = capture_reads(|| img.read(4090, 10).unwrap()[0]);
/// assert_eq!(byte, 7);
/// assert_eq!(reads.ranges(), &[4090..4100]);
/// assert!(reads.contains(4095) && !reads.contains(4100));
/// ```
pub fn capture_reads<T>(f: impl FnOnce() -> T) -> (T, ReadSet) {
    assert!(!ACTIVE.replace(true), "read captures do not nest");
    let _end = End;
    let out = f();
    (out, READS.take().ranges())
}

/// Ends the running capture, also when its closure panics.
struct End;

impl Drop for End {
    fn drop(&mut self) {
        ACTIVE.set(false);
        READS.take();
    }
}

/// A set of byte offsets: one bitmap per image page, allocated when the
/// page is first read.
#[derive(Default)]
struct Bitmap {
    pages: Vec<Option<Box<PageBits>>>,
}

impl Bitmap {
    fn insert(&mut self, offset: usize, len: usize) {
        let (mut at, end) = (offset, offset + len);
        while at < end {
            let (page, mut bit) = (at / PAGE, at % PAGE);
            let stop = (end - page * PAGE).min(PAGE);
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, || None);
            }
            let bits = self.pages[page].get_or_insert_with(|| Box::new([0; PAGE / WORD]));
            while bit < stop {
                let (w, b) = (bit / WORD, bit % WORD);
                let n = (stop - bit).min(WORD - b);
                bits[w] |= (u64::MAX >> (WORD - n)) << b;
                bit += n;
            }
            at = page * PAGE + stop;
        }
    }

    /// The set bits as ascending, disjoint, non-adjacent ranges.
    fn ranges(&self) -> ReadSet {
        let mut ranges: Vec<Range<u64>> = Vec::new();
        for (page, bits) in self.pages.iter().enumerate() {
            let Some(bits) = bits else { continue };
            for (w, &word) in bits.iter().enumerate() {
                let base = (page * PAGE + w * WORD) as u64;
                let mut rest = word;
                while rest != 0 {
                    let lo = rest.trailing_zeros();
                    let hi = lo + (rest >> lo).trailing_ones();
                    let run = base + u64::from(lo)..base + u64::from(hi);
                    match ranges.last_mut() {
                        Some(last) if last.end == run.start => last.end = run.end,
                        _ => ranges.push(run),
                    }
                    rest = rest.checked_shr(hi).map_or(0, |r| r << hi);
                }
            }
        }
        ReadSet { ranges }
    }
}

/// The bytes a capture saw read, as ascending, disjoint, non-adjacent
/// ranges of image offsets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    ranges: Vec<Range<u64>>,
}

impl ReadSet {
    /// The ranges, ascending; no two touch.
    pub fn ranges(&self) -> &[Range<u64>] {
        &self.ranges
    }

    /// Whether the byte at `offset` was read.
    pub fn contains(&self, offset: u64) -> bool {
        let after = self.ranges.partition_point(|r| r.start <= offset);
        after > 0 && self.ranges[after - 1].end > offset
    }

    /// Bytes read, each counted once.
    pub fn bytes(&self) -> u64 {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PmImage;

    /// The ranges as `(start, end)` pairs.
    fn spans(reads: &ReadSet) -> Vec<(u64, u64)> {
        reads.ranges().iter().map(|r| (r.start, r.end)).collect()
    }

    #[test]
    fn reads_merge_into_disjoint_ranges_across_words_and_pages() {
        let img = PmImage::zeroed(4 * PAGE);
        let ((), reads) = capture_reads(|| {
            for (at, n) in [(10, 8), (18, 2), (60, 10), (PAGE - 3, 6), (3 * PAGE, 200)] {
                img.read(at as u64, n).unwrap();
            }
            img.read(70, 0).unwrap();
        });
        let p = PAGE as u64;
        assert_eq!(
            spans(&reads),
            [(10, 20), (60, 70), (p - 3, p + 3), (3 * p, 3 * p + 200)]
        );
        assert_eq!(reads.bytes(), 10 + 10 + 6 + 200);
        assert!(reads.contains(p) && !reads.contains(20) && !reads.contains(59));
    }

    #[test]
    fn nothing_is_recorded_outside_a_capture_and_a_capture_leaves_nothing_behind() {
        let img = PmImage::from(vec![1u8; PAGE]);
        img.read(0, 64).unwrap();
        let ((), reads) = capture_reads(|| {});
        assert_eq!(reads, ReadSet::default());
        let ((), reads) = capture_reads(|| drop(img.read(64, 64)));
        assert_eq!(spans(&reads), [(64, 128)]);
        assert!(!ACTIVE.get());
        assert!(READS.with_borrow(|b| b.pages.is_empty()));
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn captures_do_not_nest() {
        capture_reads(|| capture_reads(|| ()));
    }

    #[test]
    fn a_panicking_capture_is_ended() {
        let img = PmImage::zeroed(PAGE);
        let caught = std::panic::catch_unwind(|| {
            capture_reads(|| {
                img.read(0, 8).unwrap();
                panic!("re-execution panicked");
            })
        });
        assert!(caught.is_err());
        assert!(!ACTIVE.get());
        img.read(0, 8).unwrap();
        assert!(READS.with_borrow(|b| b.pages.is_empty()));
    }

    #[test]
    fn captures_on_other_threads_are_separate() {
        let img = PmImage::zeroed(2 * PAGE);
        let sets: Vec<ReadSet> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    let img = &img;
                    s.spawn(move || capture_reads(|| drop(img.read(i * 1000, 10))).1)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, set) in (0..4u64).zip(&sets) {
            assert_eq!(spans(set), [(i * 1000, i * 1000 + 10)]);
        }
    }

    #[test]
    fn whole_image_views_count_as_reads_of_every_byte() {
        let a = PmImage::zeroed(PAGE + 5);
        let b = a.clone();
        let (_, reads) = capture_reads(|| a.to_vec());
        assert_eq!(spans(&reads), [(0, PAGE as u64 + 5)]);
        let (same, reads) = capture_reads(|| a == b);
        assert!(same);
        assert_eq!(spans(&reads), [(0, PAGE as u64 + 5)]);
    }
}
