//! Minimal in-repo stand-in for the `rand` crate (0.8 API surface).
//!
//! Provides exactly what this workspace uses: [`rngs::StdRng`] (a
//! deterministic xoshiro256++ generator, seedable from a `u64`), the
//! [`Rng`]/[`RngCore`]/[`SeedableRng`] traits, the [`distributions`] module
//! with [`distributions::Standard`], and [`seq::SliceRandom`].
//!
//! Determinism notes: the stream produced for a given seed is fixed by this
//! implementation (it does not bit-match crates.io `rand`, which nothing in
//! this workspace requires) and is identical across platforms, which the
//! reproducibility suite does require.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: AsMut<[u8]> + Default;

    /// Construct from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` via splitmix64 expansion.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let v = splitmix64(&mut sm);
            let bytes = v.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counter-based (order-independent) randomness.
///
/// A sequential generator forces every consumer into one serial draw order;
/// a *counter-based* field instead derives each variate directly from
/// `(seed, counter)` through a stateless splitmix-style hash, so any subset
/// of the stream can be evaluated in any order — or in parallel — with
/// bit-identical results. The drift axes and the chaos schedule draw from
/// it; the renderer's noise field keys its own 32-bit counter hash.
pub mod counter {
    /// The splitmix64 finalizer: a full-avalanche bijective mix of 64 bits.
    #[inline]
    pub fn mix64(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The splitmix64 increment (the golden-ratio `gamma`).
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    /// The `index`-th word of the stream keyed by `seed`: the splitmix64
    /// construction (finalize `seed + index·gamma`) evaluated at an
    /// arbitrary position in O(1), with no shared state. (A sequential
    /// splitmix64 generator pre-increments before finalizing, so its
    /// output at position `i` is `hash(seed, i + 1)`.)
    #[inline]
    pub fn hash(seed: u64, index: u64) -> u64 {
        mix64(seed.wrapping_add(index.wrapping_mul(GAMMA)))
    }

    /// Map 64 random bits to a uniform f64 in the half-open interval
    /// `[0, 1)` via the mantissa trick: plant 52 random bits under a fixed
    /// exponent to build a float in `[1, 2)`, then subtract 1. Unlike the
    /// shift-and-scale construction this needs no u64→f64 conversion, so
    /// it auto-vectorizes.
    #[inline]
    pub fn unit_f64(bits: u64) -> f64 {
        f64::from_bits(0x3ff0_0000_0000_0000 | (bits >> 12)) - 1.0
    }
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> StdRng {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // A xoshiro state must not be all zero.
            if s == [0, 0, 0, 0] {
                s = [0x9e37_79b9_7f4a_7c15, 0x6a09_e667_f3bc_c909, 0xbb67_ae85_84ca_a73b, 1];
            }
            StdRng { s }
        }
    }
}

/// Distributions of random values.
pub mod distributions {
    use super::{Rng, RngCore};
    use std::marker::PhantomData;

    /// A distribution over values of `T`.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" distribution for primitives: uniform over all values
    /// for integers, uniform in `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 random mantissa bits in [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Iterator of samples, returned by [`Rng::sample_iter`].
    pub struct DistIter<D, R, T> {
        pub(crate) distr: D,
        pub(crate) rng: R,
        pub(crate) _marker: PhantomData<T>,
    }

    impl<D: Distribution<T>, R: RngCore, T> Iterator for DistIter<D, R, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            Some(self.distr.sample(&mut self.rng))
        }
    }
}

use distributions::{DistIter, Distribution, Standard};

/// A range that can be sampled uniformly (the `gen_range` argument).
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit: $t = Standard.sample(&mut Wrap(rng));
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let unit: $t = Standard.sample(&mut Wrap(rng));
                lo + unit * (hi - lo)
            }
        }
    )*};
}
range_float!(f32, f64);

/// Adapter giving `&mut dyn RngCore`-ish access the `Rng` methods that
/// distribution sampling needs.
struct Wrap<'a, R: RngCore + ?Sized>(&'a mut R);

impl<R: RngCore + ?Sized> RngCore for Wrap<'_, R> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// High-level generator interface (blanket-implemented for all [`RngCore`]).
pub trait Rng: RngCore {
    /// Draw a value from the [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// Draw uniformly from `range`.
    fn gen_range<T, B: SampleRange<T>>(&mut self, range: B) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        let unit: f64 = self.gen();
        unit < p
    }

    /// Draw from an explicit distribution.
    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }

    /// Consume the generator into an infinite iterator of samples.
    fn sample_iter<T, D: Distribution<T>>(self, distr: D) -> DistIter<D, Self, T>
    where
        Self: Sized,
    {
        DistIter { distr, rng: self, _marker: std::marker::PhantomData }
    }

    /// Fill a byte slice with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Random sequence operations.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

/// Crates.io `rand` re-exports this as the prelude; mirror the common names.
pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let i = rng.gen_range(3..17);
            assert!((3..17).contains(&i));
            let f = rng.gen_range(-2.0..=2.0f64);
            assert!((-2.0..=2.0).contains(&f));
            let n = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&n));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_iter_draws() {
        let rng = StdRng::seed_from_u64(4);
        let v: Vec<u32> = rng.sample_iter(crate::distributions::Standard).take(4).collect();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn gen_bool_edges() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn counter_hash_is_stateless_and_seed_keyed() {
        use crate::counter::hash;
        assert_eq!(hash(7, 123), hash(7, 123));
        assert_ne!(hash(7, 123), hash(8, 123));
        assert_ne!(hash(7, 123), hash(7, 124));
        // Order independence is structural (no state), but make the point:
        // evaluating indices backwards reproduces the forward values.
        let fwd: Vec<u64> = (0..64).map(|i| hash(42, i)).collect();
        let mut bwd: Vec<u64> = (0..64).rev().map(|i| hash(42, i)).collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn counter_hash_avalanches() {
        use crate::counter::hash;
        // Flipping one counter bit should flip roughly half the output bits.
        let mut total = 0u32;
        for i in 0..64u64 {
            total += (hash(1, i) ^ hash(1, i ^ 1)).count_ones();
        }
        let mean = total as f64 / 64.0;
        assert!((24.0..40.0).contains(&mean), "weak avalanche: mean {mean} bits");
    }

    #[test]
    fn counter_units_stay_in_their_intervals() {
        use crate::counter::{hash, unit_f64};
        for i in 0..4096u64 {
            let u = unit_f64(hash(3, i));
            assert!((0.0..1.0).contains(&u), "unit_f64 out of [0,1): {u}");
        }
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
    }
}
