//! Seeded randomness and latency sampling.

/// SplitMix64: small, fast and fully determined by its seed, so one
/// `--seed` always generates the same operation stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `stream` (client, round, ...) of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform pick from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// A fixed-size uniform sample of every latency a client observed
/// (Vitter's algorithm R). Fixed memory keeps the sample from growing with
/// the op rate, so it neither shows in `peak_rss_mb` nor varies it.
pub struct Reservoir {
    samples: Vec<u32>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    /// Samples kept per client per round.
    pub const CAP: usize = 1 << 17;

    /// An empty reservoir whose replacement picks follow `rng`.
    pub fn new(rng: Rng) -> Reservoir {
        // Touch the whole buffer up front, so the memory it takes does not
        // depend on how many operations a run completes.
        let mut samples = vec![u32::MAX; Self::CAP];
        samples.clear();
        Reservoir {
            samples,
            seen: 0,
            rng,
        }
    }

    /// Offers one latency in nanoseconds.
    pub fn push(&mut self, ns: u64) {
        let ns = u32::try_from(ns).unwrap_or(u32::MAX);
        self.seen += 1;
        if self.samples.len() < Self::CAP {
            self.samples.push(ns);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < Self::CAP {
                self.samples[j] = ns;
            }
        }
    }

    /// The kept sample.
    pub fn into_samples(self) -> Vec<u32> {
        self.samples
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; `v` must be sorted and
/// non-empty.
pub fn quantile<T: Copy>(v: &[T], q: f64) -> T {
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `v` (sorted in place), averaging the middle pair.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
