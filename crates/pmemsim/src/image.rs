//! Paged copy-on-write byte images: the durable media of a [`PmDevice`],
//! and the snapshot type every pool copy (fork, snapshot, replica, pmCRIU
//! dump) is made of.
//!
//! [`PmDevice`]: crate::PmDevice

use std::sync::Arc;

use crate::capture;
use crate::error::{PmError, PmResult};

/// Bytes per image page. A multiple of the cache-line size, so a line
/// never straddles two pages.
pub(crate) const PAGE: usize = 4096;

type Page = [u8; PAGE];

/// What every page no image has written reads as.
static ZERO: Page = [0; PAGE];

/// The bytes a page slot holds.
fn bytes(page: &Option<Arc<Page>>) -> &Page {
    page.as_deref().unwrap_or(&ZERO)
}

/// A byte image held as reference-counted 4 KiB pages.
///
/// Cloning copies page pointers, not bytes; a clone and its original share
/// every page until one of them writes it, and a write copies only the page
/// it lands on. A page never written is no page at all (`None`), so a fresh
/// image and a copy of its untouched pages touch no reference count.
/// Equality is by content: an unwritten page equals a written page of
/// zeros, and shared pages compare by pointer first, which `Arc<T: Eq>`
/// does on its own.
///
/// Bytes of the last page beyond [`PmImage::len`] are always zero: every
/// access is bounds-checked against `len`, so page equality never sees a
/// stray tail.
///
/// Every method that hands out bytes — `read`, `read_into`, `to_vec` and
/// equality — reports what it read to a running
/// [`capture_reads`](crate::capture_reads).
#[derive(Clone)]
pub struct PmImage {
    /// `None` for a page never written, which reads as [`ZERO`].
    pages: Vec<Option<Arc<Page>>>,
    len: usize,
}

impl PmImage {
    /// A zero-filled image of `len` bytes; allocates no page.
    pub fn zeroed(len: usize) -> Self {
        PmImage {
            pages: vec![None; len.div_ceil(PAGE)],
            len,
        }
    }

    /// Image size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the zero-length image.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The image as one contiguous buffer (file boundary, byte-wise diffs).
    pub fn to_vec(&self) -> Vec<u8> {
        capture::note(0, self.len);
        let mut out = Vec::with_capacity(self.len);
        for page in &self.pages {
            let n = PAGE.min(self.len - out.len());
            out.extend_from_slice(&bytes(page)[..n]);
        }
        out
    }

    /// Errs unless `[offset, offset + len)` lies inside the image; an empty
    /// range is always accepted.
    #[inline]
    pub(crate) fn check(&self, offset: u64, len: u64) -> PmResult<()> {
        let capacity = self.len as u64;
        if len != 0 && offset.checked_add(len).is_none_or(|end| end > capacity) {
            return Err(PmError::OutOfBounds {
                offset,
                len,
                capacity,
            });
        }
        Ok(())
    }

    /// `n` bytes at `start`; the range must lie inside one page.
    pub(crate) fn within_page(&self, start: usize, n: usize) -> &[u8] {
        &bytes(&self.pages[start / PAGE])[start % PAGE..][..n]
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(&self, offset: u64, len: usize) -> PmResult<Vec<u8>> {
        self.check(offset, len as u64)?;
        let mut out = vec![0; len];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    /// Fills `buf` with the bytes at `offset`.
    #[inline]
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> PmResult<()> {
        self.check(offset, buf.len() as u64)?;
        capture::note(offset, buf.len());
        let mut cur = offset as usize;
        let mut rest = buf;
        while !rest.is_empty() {
            let n = rest.len().min(PAGE - cur % PAGE);
            let (part, tail) = rest.split_at_mut(n);
            part.copy_from_slice(self.within_page(cur, n));
            cur += n;
            rest = tail;
        }
        Ok(())
    }

    /// Writes `bytes` at `offset`, first copying every page it lands on that
    /// another image still shares. Returns how many pages were copied.
    pub fn write(&mut self, offset: u64, bytes: &[u8]) -> PmResult<usize> {
        self.check(offset, bytes.len() as u64)?;
        let mut copied = 0;
        let mut cur = offset as usize;
        let mut rest = bytes;
        while !rest.is_empty() {
            let at = cur % PAGE;
            let n = rest.len().min(PAGE - at);
            let slot = &mut self.pages[cur / PAGE];
            copied += usize::from(slot.as_mut().is_none_or(|p| Arc::get_mut(p).is_none()));
            let page = slot.get_or_insert_with(|| Arc::new(ZERO));
            Arc::make_mut(page)[at..at + n].copy_from_slice(&rest[..n]);
            cur += n;
            rest = &rest[n..];
        }
        Ok(copied)
    }

    /// Flips bit `bit & 7` of the byte at `offset` (a media bit-flip fault).
    /// Returns how many pages were copied, as [`PmImage::write`] does.
    pub fn flip_bit(&mut self, offset: u64, bit: u8) -> PmResult<usize> {
        let mut byte = [0];
        self.read_into(offset, &mut byte)?;
        self.write(offset, &[byte[0] ^ (1 << (bit & 7))])
    }
}

impl PartialEq for PmImage {
    /// Content equality, a read of every byte of both sides.
    fn eq(&self, other: &Self) -> bool {
        capture::note(0, self.len);
        capture::note(0, other.len);
        self.len == other.len
            && (self.pages.iter().zip(&other.pages)).all(|pair| match pair {
                (None, None) => true,
                (Some(a), Some(b)) => a == b,
                (a, b) => bytes(a) == bytes(b),
            })
    }
}

impl Eq for PmImage {}

impl From<Vec<u8>> for PmImage {
    fn from(bytes: Vec<u8>) -> Self {
        let pages = bytes
            .chunks(PAGE)
            .map(|chunk| {
                let mut page = [0; PAGE];
                page[..chunk.len()].copy_from_slice(chunk);
                Some(Arc::new(page))
            })
            .collect();
        PmImage {
            pages,
            len: bytes.len(),
        }
    }
}

impl std::fmt::Debug for PmImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmImage")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + i / PAGE) as u8).collect()
    }

    #[test]
    fn vec_round_trip_at_page_and_non_page_sizes() {
        for len in [0, 1, 128, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 17] {
            let v = patterned(len);
            let img = PmImage::from(v.clone());
            assert_eq!(img.len(), len);
            assert_eq!(img.is_empty(), len == 0);
            assert_eq!(img.to_vec(), v);
            assert_eq!(PmImage::zeroed(len).to_vec(), vec![0; len]);
        }
    }

    #[test]
    fn read_and_write_straddle_pages() {
        let mut img = PmImage::zeroed(3 * PAGE + 5);
        let data = patterned(2 * PAGE);
        let at = PAGE as u64 - 3;
        assert_eq!(img.write(at, &data).unwrap(), 3, "three zero pages copied");
        assert_eq!(img.read(at, data.len()).unwrap(), data);
        assert_eq!(img.write(at, &data).unwrap(), 0, "now private");
        let mut want = vec![0; 3 * PAGE + 5];
        want[at as usize..at as usize + data.len()].copy_from_slice(&data);
        assert_eq!(img.to_vec(), want);
    }

    #[test]
    fn equality_is_by_content_across_shared_and_unshared_pages() {
        let v = patterned(2 * PAGE + 9);
        let a = PmImage::from(v.clone());
        let shared = a.clone();
        let unshared = PmImage::from(v);
        assert_eq!(a, shared);
        assert_eq!(a, unshared);

        let mut diverged = a.clone();
        diverged.write(PAGE as u64 + 1, &[0xEE]).unwrap();
        assert_ne!(a, diverged);
        assert_eq!(a, shared, "the write copied, it did not write through");
        diverged
            .write(PAGE as u64 + 1, &a.read(PAGE as u64 + 1, 1).unwrap())
            .unwrap();
        assert_eq!(a, diverged, "same bytes again, one page now unshared");

        assert_ne!(PmImage::zeroed(PAGE), PmImage::zeroed(PAGE + 1));
        assert_eq!(PmImage::zeroed(PAGE + 1), PmImage::from(vec![0; PAGE + 1]));
    }

    #[test]
    fn an_unwritten_page_equals_a_page_written_back_to_zeros() {
        let fresh = PmImage::zeroed(2 * PAGE);
        let mut written = fresh.clone();
        assert_eq!(written.write(PAGE as u64 + 7, &[0xAB; 3]).unwrap(), 1);
        assert_ne!(fresh, written);
        assert_eq!(written.write(PAGE as u64 + 7, &[0; 3]).unwrap(), 0);
        assert_eq!(fresh, written, "a zeroed page equals no page");
        assert_eq!(written, fresh, "in either order");
        assert_eq!(written.to_vec(), vec![0; 2 * PAGE]);
    }

    #[test]
    fn out_of_bounds_access_errs_and_never_panics() {
        let mut img = PmImage::from(patterned(PAGE + 10));
        let before = img.clone();
        let oob = |r: PmResult<_>| matches!(r, Err(PmError::OutOfBounds { .. }));
        assert!(oob(img.read(PAGE as u64 + 10, 1)));
        assert!(oob(img.read(PAGE as u64, 11)));
        assert!(oob(img.read(u64::MAX, 2)));
        assert!(oob(img.write(PAGE as u64 + 9, &[1, 2]).map(|_| vec![])));
        assert!(oob(img.write(u64::MAX, &[1]).map(|_| vec![])));
        assert_eq!(img, before, "a refused write changes nothing");
        assert_eq!(img.read(PAGE as u64 + 10, 0).unwrap(), vec![]);
        assert_eq!(img.read(u64::MAX, 0).unwrap(), vec![]);
        assert_eq!(img.write(u64::MAX, &[]).unwrap(), 0);
        assert!(oob(PmImage::zeroed(0).read(0, 1)));
    }

    #[test]
    fn images_cross_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<PmImage>();
    }
}
