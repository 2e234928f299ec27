//! Deterministic per-component RNG streams.
//!
//! Every model component asks the simulation for a stream by label
//! (`sim.rng("blob.frontend")`). The stream seed is derived from the
//! simulation seed and the label, so adding a new component (or drawing a
//! different number of samples in one component) never perturbs any other
//! component's stream — the property that keeps calibration stable while
//! the simulator grows.
//!
//! The generator is a self-contained xoshiro256++ (the algorithm behind
//! `rand 0.8`'s 64-bit `SmallRng`), seeded through SplitMix64 and sampled
//! with the same widening-multiply rejection scheme as `rand`'s uniform
//! integer sampler. Keeping the bit stream identical to the previous
//! `rand`-backed implementation means every calibrated experiment result
//! is unchanged, while the crate now builds with no external
//! dependencies (offline / no-registry environments included).

/// FNV-1a over the label bytes: cheap, stable, good enough for stream
/// separation (streams are further mixed through SplitMix64).
fn fnv1a(label: &str) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, label.as_bytes())
}

/// Continue an FNV-1a hash `h` over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a over `prefix` followed by the decimal digits of `index`: the
/// hash of `format!("{prefix}{index}")`, without building the string.
fn fnv1a_indexed(prefix: &str, index: u64) -> u64 {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = index;
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    fnv1a_extend(fnv1a(prefix), &digits[at..])
}

/// SplitMix64 finalizer: turns correlated inputs into well-mixed seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++ state (Blackman & Vigna). 64-bit output, 256-bit state;
/// tiny, fast, and more than adequate statistically for simulation.
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expand a 64-bit seed into the 256-bit state via a SplitMix64
    /// sequence (never all-zero).
    fn seed_from_u64(mut state: u64) -> Self {
        const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut s = [0u64; 4];
        for slot in &mut s {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *slot = z ^ (z >> 31);
        }
        Xoshiro256PlusPlus { s }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// `(hi, lo)` limbs of the 128-bit product `a * b`.
#[inline]
fn wmul(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

/// A seeded random stream for one simulation component.
pub struct SimRng {
    rng: Xoshiro256PlusPlus,
}

impl SimRng {
    /// Derive the stream for `label` under base seed `seed`.
    pub fn for_stream(seed: u64, label: &str) -> Self {
        Self::from_label_hash(seed, fnv1a(label))
    }

    /// The stream [`for_stream`](Self::for_stream) derives for the label
    /// `format!("{prefix}{index}")`, bit for bit, without allocating the
    /// label (per-arrival streams on a hot path).
    pub fn for_indexed_stream(seed: u64, prefix: &str, index: u64) -> Self {
        Self::from_label_hash(seed, fnv1a_indexed(prefix, index))
    }

    fn from_label_hash(seed: u64, label_hash: u64) -> Self {
        let derived = splitmix64(seed ^ splitmix64(label_hash));
        SimRng {
            rng: Xoshiro256PlusPlus::seed_from_u64(derived),
        }
    }

    /// Directly from a raw seed (tests, sub-streams).
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            rng: Xoshiro256PlusPlus::seed_from_u64(splitmix64(seed)),
        }
    }

    /// Fork a child stream; the child is independent of further draws from
    /// `self`.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let s = self.rng.next_u64();
        SimRng::for_stream(s, label)
    }

    /// Uniform in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub fn f64(&mut self) -> f64 {
        let scale = 1.0 / ((1u64 << 53) as f64);
        (self.rng.next_u64() >> 11) as f64 * scale
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, range)` by widening multiply with
    /// rejection of the biased zone (Lemire's method, as in `rand`).
    /// `range == 0` means "all 64 bits".
    #[inline]
    fn uniform_below(&mut self, range: u64) -> u64 {
        if range == 0 {
            return self.rng.next_u64();
        }
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.rng.next_u64();
            let (hi, lo) = wmul(v, range);
            if lo <= zone {
                return hi;
            }
        }
    }

    /// Uniform integer in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        self.uniform_below(bound)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "u64_in: lo > hi");
        let range = hi.wrapping_sub(lo).wrapping_add(1);
        lo.wrapping_add(self.uniform_below(range))
    }

    /// Uniform usize in `[0, bound)`.
    #[inline]
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Raw 64 random bits.
    #[inline]
    pub fn bits(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_below(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize_below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::for_stream(42, "blob");
        let mut b = SimRng::for_stream(42, "blob");
        for _ in 0..100 {
            assert_eq!(a.bits(), b.bits());
        }
    }

    #[test]
    fn different_labels_decorrelate() {
        let mut a = SimRng::for_stream(42, "blob");
        let mut b = SimRng::for_stream(42, "table");
        let same = (0..64).filter(|_| a.bits() == b.bits()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = SimRng::for_stream(1, "x");
        let mut b = SimRng::for_stream(2, "x");
        let same = (0..64).filter(|_| a.bits() == b.bits()).count();
        assert_eq!(same, 0);
    }

    /// Golden vector pinning the generator to the exact bit stream of the
    /// previous `rand::rngs::SmallRng` (xoshiro256++) implementation: any
    /// change to seeding or stepping shifts every calibrated result.
    #[test]
    fn bit_stream_matches_reference_smallrng() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
            ]
        );
    }

    #[test]
    fn uniform_f64_in_unit_interval_with_sane_mean() {
        let mut rng = SimRng::from_seed(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::from_seed(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut rng = SimRng::from_seed(11);
        let hits = (0..50_000).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / 50_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::from_seed(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut parent1 = SimRng::from_seed(9);
        let mut child1 = parent1.fork("c");
        let mut parent2 = SimRng::from_seed(9);
        let mut child2 = parent2.fork("c");
        for _ in 0..20 {
            assert_eq!(child1.bits(), child2.bits());
        }
        // Parent continues deterministically after fork too.
        for _ in 0..20 {
            assert_eq!(parent1.bits(), parent2.bits());
        }
    }

    #[test]
    fn u64_in_is_inclusive() {
        let mut rng = SimRng::from_seed(13);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            let v = rng.u64_in(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn u64_in_full_range_does_not_hang() {
        let mut rng = SimRng::from_seed(17);
        let v = rng.u64_in(0, u64::MAX);
        let w = rng.u64_in(0, u64::MAX);
        // Two full-range draws are raw 64-bit outputs; just exercise them.
        assert_ne!(v, w);
    }

    #[test]
    fn u64_below_is_unbiased_on_small_bound() {
        let mut rng = SimRng::from_seed(19);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.u64_below(3) as usize] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "counts={counts:?}");
        }
    }
}
