//! The crate-local deterministic generator.
//!
//! Fault streams must be reproducible byte-for-byte across PRs, so the
//! generator is pinned here rather than borrowed from a shim that might be
//! swapped for the real `rand` one day: SplitMix64 seed expansion feeding a
//! xorshift64* core. Statistical quality is more than enough for Bernoulli
//! fault draws and jitter; the contract that matters is determinism.

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A small deterministic PRNG (SplitMix64-seeded xorshift64*).
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Seed the generator. Distinct seeds give uncorrelated streams; the
    /// SplitMix64 expansion makes even adjacent seeds diverge immediately.
    pub fn new(seed: u64) -> ChaosRng {
        // SplitMix64: one round to spread the seed over the whole state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ChaosRng {
            // xorshift64* must never hold zero state.
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// Derive an independent stream for a named sub-domain (e.g. one fault
    /// site), so decision order at one site never perturbs another.
    pub fn derive(seed: u64, domain: &str) -> ChaosRng {
        ChaosRng::new(seed ^ fnv1a(FNV_BASIS, domain.as_bytes()))
    }

    /// A stream keyed by `parts` (e.g. one request's path, byte range and
    /// attempt) under `seed`: the same parts always give the same stream.
    pub fn keyed(seed: u64, parts: &[&[u8]]) -> ChaosRng {
        ChaosRng::new(parts.iter().fold(FNV_BASIS ^ seed, |h, p| fnv1a(h, p)))
    }

    pub fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Uniform integer in `[lo, hi]`. Requires `lo <= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi, "uniform_u64: empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_u64() % (span + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaosRng::new(1);
        let mut b = ChaosRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derived_domains_are_independent() {
        let mut get = ChaosRng::derive(7, "storage_get");
        let mut put = ChaosRng::derive(7, "storage_put");
        assert_ne!(get.next_u64(), put.next_u64());
        // Re-deriving reproduces the same stream.
        let mut again = ChaosRng::derive(7, "storage_get");
        let mut get2 = ChaosRng::derive(7, "storage_get");
        assert_eq!(again.next_u64(), get2.next_u64());
    }

    #[test]
    fn bernoulli_rate_is_roughly_honoured() {
        let mut rng = ChaosRng::new(99);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = ChaosRng::new(5);
        for _ in 0..1000 {
            let v = rng.uniform_u64(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(rng.uniform_u64(3, 3), 3);
    }
}
