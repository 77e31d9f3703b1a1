//! Seeded input generation. Every key, value and op choice the
//! benchmark sends comes from here, derived from `--seed`; the program
//! under test sees only the generated requests.

use serve::Cmd;

/// splitmix64: small, seedable, and good enough to shape a workload.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent seed for sub-stream `stream` of `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.next_u64()
}

/// Key popularity over `[0, n)`.
pub enum KeyDist {
    Uniform(u64),
    /// Exact zipfian by inverse CDF (the key spaces here are a few
    /// thousand keys, so the table is small).
    Zipf(Vec<f64>),
}

impl KeyDist {
    pub fn new(n: u64, theta: f64) -> KeyDist {
        assert!(n > 0, "key space must be non-empty");
        if theta == 0.0 {
            return KeyDist::Uniform(n);
        }
        let mut cdf = Vec::with_capacity(n as usize);
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        KeyDist::Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            KeyDist::Uniform(n) => rng.below(*n),
            KeyDist::Zipf(cdf) => {
                let u = rng.unit();
                (cdf.partition_point(|&c| c < u) as u64).min(cdf.len() as u64 - 1)
            }
        }
    }
}

/// A get/set traffic mix over one connection's slice of the key space.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Keys in the whole key space (all connections together).
    pub keys: u64,
    /// Percentage of gets.
    pub read_pct: u32,
    /// Zipfian skew; 0 is uniform.
    pub theta: f64,
}

/// First traffic key: clear of the fault scripts' keys (16, 7777) and
/// of the engine's canary and probe keys (900 001.., 999 983).
pub const KEY_BASE: u64 = 1_000;
/// Tracked-set keys: written once, read back after recovery.
pub const TRACK_BASE: u64 = 500_000;

pub fn get(key: u64) -> Cmd {
    Cmd::Get {
        keys: vec![key.to_string().into_bytes()],
    }
}

/// Values are `fill` repeated `len` times — the PM apps model a value
/// as (fill, len), so this is also what a get returns.
fn set(key: u64, fill: u8, len: usize) -> Cmd {
    Cmd::Set {
        key: key.to_string().into_bytes(),
        value: vec![fill; len],
        noreply: false,
    }
}

/// A value shape from one random word: fill in 1..=0x7E, 8–36 bytes.
fn value_shape(word: u64) -> (u8, usize) {
    (1 + (word % 0x7E) as u8, 8 + ((word >> 8) % 8) as usize * 4)
}

/// The keys connection `conn` of `conns` owns: every `conns`-th key, so
/// each connection can check every reply against its own model.
pub fn owned_key(idx: u64, conn: u64, conns: u64) -> u64 {
    KEY_BASE + idx * conns + conn
}

/// One generated request with what the benchmark needs to check it.
pub struct Request {
    pub cmd: Cmd,
    pub key: u64,
    /// `Some((fill, len))` for a set.
    pub set: Option<(u8, usize)>,
}

impl Request {
    pub fn get(key: u64) -> Request {
        Request {
            cmd: get(key),
            key,
            set: None,
        }
    }

    /// A set of `key` to the value shape drawn from `word`.
    pub fn set(key: u64, word: u64) -> Request {
        let (fill, len) = value_shape(word);
        Request {
            cmd: set(key, fill, len),
            key,
            set: Some((fill, len)),
        }
    }
}

/// The preload of one connection's key slice: one set per owned key.
pub fn preload(mix: &Mix, conn: u64, conns: u64, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(derive(seed, 0x50_0000 + conn));
    (0..mix.keys / conns)
        .map(|idx| Request::set(owned_key(idx, conn, conns), rng.next_u64()))
        .collect()
}

/// `n` requests of `mix` for connection `conn`. With `tracked_every`
/// non-zero, every that-many-th request is a set of a fresh tracked key.
pub fn requests(
    mix: &Mix,
    n: usize,
    conn: u64,
    conns: u64,
    seed: u64,
    tracked_every: usize,
    tracked_from: u64,
) -> Vec<Request> {
    let dist = KeyDist::new((mix.keys / conns).max(1), mix.theta);
    let mut rng = Rng::new(derive(seed, 0x0C_0000 + conn));
    let mut tracked = tracked_from;
    (0..n)
        .map(|j| {
            if tracked_every > 0 && j % tracked_every == tracked_every - 1 {
                let key = TRACK_BASE + tracked * conns + conn;
                tracked += 1;
                return Request::set(key, rng.next_u64());
            }
            let key = owned_key(dist.sample(&mut rng), conn, conns);
            if rng.below(100) < u64::from(mix.read_pct) {
                Request::get(key)
            } else {
                Request::set(key, rng.next_u64())
            }
        })
        .collect()
}
