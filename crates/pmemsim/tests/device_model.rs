//! Differential test of [`PmDevice`] against the layout it replaced: flat
//! `Vec<u8>` media and a line cache that keeps clean lines forever. The
//! old device is kept here as the reference model; a seeded random op
//! stream must leave both in the same observable state at every step.

use std::collections::BTreeMap;

use pmemsim::{CrashPolicy, DeviceStats, PmDevice, PmImage};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

const LINE: usize = 64;

#[derive(Clone)]
struct RefLine {
    data: [u8; LINE],
    dirty: bool,
    staged: bool,
}

/// The pre-paging device's semantics, written byte by byte; the last line
/// of a capacity that is not a line multiple is clamped to the device.
#[derive(Clone)]
struct RefDevice {
    media: Vec<u8>,
    cache: BTreeMap<usize, RefLine>,
    policy: CrashPolicy,
    stats: DeviceStats,
}

impl RefDevice {
    fn new(capacity: usize) -> Self {
        RefDevice {
            media: vec![0; capacity],
            cache: BTreeMap::new(),
            policy: CrashPolicy::DropStaged,
            stats: DeviceStats::default(),
        }
    }
    fn in_bounds(&self, offset: u64, len: u64) -> bool {
        len == 0
            || offset
                .checked_add(len)
                .is_some_and(|e| e <= self.media.len() as u64)
    }
    fn line_end(&self, line: usize) -> usize {
        ((line + 1) * LINE).min(self.media.len())
    }
    fn write(&mut self, offset: u64, bytes: &[u8]) -> bool {
        if !self.in_bounds(offset, bytes.len() as u64) {
            return false;
        }
        self.stats.bytes_written += bytes.len() as u64;
        for (i, &b) in bytes.iter().enumerate() {
            let at = offset as usize + i;
            let (start, end) = (at / LINE * LINE, self.line_end(at / LINE));
            let media = &self.media;
            let cl = self.cache.entry(at / LINE).or_insert_with(|| {
                let mut data = [0; LINE];
                data[..end - start].copy_from_slice(&media[start..end]);
                RefLine {
                    data,
                    dirty: false,
                    staged: false,
                }
            });
            cl.data[at % LINE] = b;
            cl.dirty = true;
            cl.staged = false;
        }
        true
    }
    fn read(&mut self, offset: u64, len: u64) -> Option<Vec<u8>> {
        if !self.in_bounds(offset, len) {
            return None;
        }
        self.stats.bytes_read += len;
        let range = offset as usize..(offset + len) as usize;
        Some(
            range
                .map(|at| match self.cache.get(&(at / LINE)) {
                    Some(cl) => cl.data[at % LINE],
                    None => self.media[at],
                })
                .collect(),
        )
    }
    fn flush(&mut self, offset: u64, len: u64) -> bool {
        if !self.in_bounds(offset, len) {
            return false;
        }
        self.stats.flushes += 1;
        if len != 0 {
            let lines = offset as usize / LINE..=(offset + len - 1) as usize / LINE;
            for (_, cl) in self.cache.range_mut(lines) {
                cl.staged |= cl.dirty;
            }
        }
        true
    }
    fn write_back(&mut self, line: usize, data: &[u8; LINE]) {
        let (start, end) = (line * LINE, self.line_end(line));
        self.media[start..end].copy_from_slice(&data[..end - start]);
        self.stats.lines_written_back += 1;
    }
    fn drain(&mut self) {
        self.stats.drains += 1;
        let mut cache = std::mem::take(&mut self.cache);
        for (&line, cl) in cache.iter_mut().filter(|(_, cl)| cl.staged) {
            self.write_back(line, &cl.data);
            cl.staged = false;
            cl.dirty = false;
        }
        self.cache = cache;
    }
    fn crash(&mut self) {
        self.stats.crashes += 1;
        let mut rng = match self.policy {
            CrashPolicy::RandomStaged(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        for (line, cl) in std::mem::take(&mut self.cache) {
            if !cl.staged {
                continue;
            }
            let survive = match self.policy {
                CrashPolicy::DropStaged => false,
                CrashPolicy::KeepStaged => true,
                CrashPolicy::RandomStaged(_) => rng.as_mut().unwrap().random_range(0..2u32) == 1,
            };
            if survive {
                self.write_back(line, &cl.data);
            }
        }
    }
    fn restore_image(&mut self, image: &[u8]) -> bool {
        if image.len() != self.media.len() {
            return false;
        }
        self.media.copy_from_slice(image);
        self.cache.clear();
        true
    }
    fn corrupt_bit(&mut self, offset: u64, bit: u8) -> bool {
        if !self.in_bounds(offset, 1) {
            return false;
        }
        let at = offset as usize;
        self.media[at] ^= 1 << (bit & 7);
        if let Some(cl) = self.cache.get_mut(&(at / LINE)) {
            cl.data[at % LINE] ^= 1 << (bit & 7);
        }
        true
    }
    fn dirty_lines(&self) -> usize {
        self.cache.values().filter(|c| c.dirty).count()
    }
}

/// An offset near a line, page or device boundary as often as not, and
/// past the end now and then.
fn offset(rng: &mut StdRng, cap: u64) -> u64 {
    let anchor = match rng.random_range(0..6u32) {
        0 => rng.random_range(0..cap / 64 + 1) * 64,
        1 => rng.random_range(0..cap / 4096 + 1) * 4096,
        2 => cap,
        _ => return rng.random_range(0..cap + 2),
    };
    (anchor + rng.random_range(0..9u64)).saturating_sub(4)
}

fn len(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..8u32) {
        0 => 0,
        1 => rng.random_range(4000..9000u64),
        _ => rng.random_range(1..200u64),
    }
}

fn assert_same(dev: &mut PmDevice, model: &mut RefDevice, what: &str) {
    let cap = model.media.len() as u64;
    assert_eq!(dev.capacity(), cap, "{what}");
    assert_eq!(dev.read(0, cap).ok(), model.read(0, cap), "{what}: reads");
    assert_eq!(dev.media_image().to_vec(), model.media, "{what}: media");
    assert_eq!(dev.dirty_lines(), model.dirty_lines(), "{what}: dirty");
    assert_eq!(dev.cached_lines(), dev.dirty_lines(), "{what}: cached");
    let stats = DeviceStats {
        pages_copied: 0,
        ..dev.stats()
    };
    assert_eq!(stats, model.stats, "{what}: stats");
}

fn run(cap: u64, seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Clones join the population and are driven like their originals, so a
    // write leaking between a clone and its source shows up as one of them
    // diverging from its own model.
    let mut devs = vec![(PmDevice::new(cap), RefDevice::new(cap as usize))];
    let mut images: Vec<(PmImage, Vec<u8>)> = Vec::new();
    for step in 0..steps {
        let which = rng.random_range(0..devs.len());
        let room = devs.len() < 4;
        let (dev, model) = &mut devs[which];
        let what = format!("cap {cap} seed {seed} step {step} dev {which}");
        match rng.random_range(0..16u32) {
            0..=4 => {
                let (at, n) = (offset(&mut rng, cap), len(&mut rng));
                let data: Vec<u8> = (0..n).map(|_| rng.random_range(0..256u32) as u8).collect();
                assert_eq!(
                    dev.write(at, &data).is_ok(),
                    model.write(at, &data),
                    "{what}"
                );
            }
            5..=6 => {
                let (at, n) = (offset(&mut rng, cap), len(&mut rng));
                assert_eq!(dev.read(at, n).ok(), model.read(at, n), "{what}");
            }
            7..=8 => {
                let (at, n) = (offset(&mut rng, cap), len(&mut rng));
                assert_eq!(dev.flush(at, n).is_ok(), model.flush(at, n), "{what}");
            }
            9 => {
                dev.drain();
                model.drain();
            }
            10..=11 => {
                let (at, n) = (offset(&mut rng, cap), len(&mut rng));
                let ok = model.flush(at, n);
                if ok {
                    model.drain();
                }
                assert_eq!(dev.persist(at, n).is_ok(), ok, "{what}");
            }
            12 => {
                let policy = match rng.random_range(0..3u32) {
                    0 => CrashPolicy::DropStaged,
                    1 => CrashPolicy::KeepStaged,
                    _ => CrashPolicy::RandomStaged(rng.next_u64()),
                };
                dev.set_crash_policy(policy);
                model.policy = policy;
                dev.crash();
                model.crash();
            }
            13 => {
                let (at, bit) = (offset(&mut rng, cap), rng.random_range(0..8u32) as u8);
                assert_eq!(
                    dev.corrupt_bit(at, bit).is_ok(),
                    model.corrupt_bit(at, bit),
                    "{what}"
                );
            }
            14 => {
                if images.is_empty() || rng.random_range(0..2u32) == 0 {
                    images.push((dev.media_image(), model.media.clone()));
                } else {
                    let (image, bytes) = &images[rng.random_range(0..images.len())];
                    assert_eq!(image.to_vec(), *bytes, "{what}: a held image changed");
                    assert_eq!(
                        dev.restore_image(image).is_ok(),
                        model.restore_image(bytes),
                        "{what}"
                    );
                }
            }
            _ => {
                if room {
                    let pair = (dev.clone(), model.clone());
                    devs.push(pair);
                }
            }
        }
        let (dev, model) = &mut devs[which];
        assert_eq!(dev.dirty_lines(), model.dirty_lines(), "{what}: dirty");
        if step % 16 == 0 {
            assert_same(dev, model, &what);
        }
    }
    for (which, (dev, model)) in devs.iter_mut().enumerate() {
        assert_same(
            dev,
            model,
            &format!("cap {cap} seed {seed} end dev {which}"),
        );
    }
    for (image, bytes) in &images {
        assert_eq!(image.to_vec(), *bytes, "cap {cap} seed {seed}: held image");
    }
    assert!(PmDevice::new(cap)
        .restore_image(&PmImage::zeroed(cap as usize + 1))
        .is_err());
}

#[test]
fn paged_device_matches_the_flat_reference_on_random_op_streams() {
    for cap in [128, 4096, 4097, pmemsim::layout::HEAP_OFF + (64 << 10)] {
        for seed in 0..6 {
            run(cap, seed, 600);
        }
    }
}
