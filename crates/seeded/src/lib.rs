//! The workspace's one seeded generator and its property-test runner.
//!
//! [`Rng`] is splitmix64. Every seeded stream in the repository — network
//! latencies, fault plans, workloads, random workflows, property cases —
//! is drawn from it, and [`mix64`] is the same step used statelessly
//! (recorder sampling, per-send latency in the parallel executor). The
//! mappings from raw outputs to ranges and coin flips are part of the
//! contract: committed seeds, digests and benchmark baselines depend on
//! them, and the golden tests below pin them.
//!
//! [`check`] runs a property over seeded cases of growing size and, on
//! failure, reports a `(seed, size)` pair that [`replay`] reproduces.

#![warn(missing_docs)]

mod prop;

pub use prop::{check, replay, Gen};

use std::ops::{Bound, RangeBounds};

/// One splitmix64 step: advance `state` and return its output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A sample from a non-empty integer range: `lo + next_u64() % span`
    /// (the full `u64` range returns the raw value). One draw per call.
    pub fn random_range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let lo = match range.start_bound() {
            Bound::Included(&lo) => lo.to_u64(),
            Bound::Excluded(&lo) => lo.to_u64() + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&hi) => hi.to_u64(),
            Bound::Excluded(&hi) => hi.to_u64().checked_sub(1).expect("cannot sample empty range"),
            Bound::Unbounded => T::MAX.to_u64(),
        };
        assert!(lo <= hi, "cannot sample empty range");
        let span = (hi - lo).wrapping_add(1);
        let v = if span == 0 { self.next_u64() } else { lo + self.next_u64() % span };
        T::from_u64(v)
    }

    /// `true` with probability `p`: the top 53 bits of one draw, as a
    /// fraction in `[0, 1)`, compared against `p`. So `1.0` is always
    /// true and `0.0` never.
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// One splitmix64 step as a stateless hash: the first output of the
/// generator seeded with `x`.
pub fn mix64(mut x: u64) -> u64 {
    splitmix64(&mut x)
}

/// Unsigned integer types [`Rng::random_range`] can sample.
pub trait Int: Copy {
    /// The largest value of the type.
    const MAX: Self;
    /// Narrow a sample back to `Self` (it fits by construction).
    fn from_u64(v: u64) -> Self;
    /// Widen for range arithmetic.
    fn to_u64(self) -> u64;
}

macro_rules! int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MAX: $t = <$t>::MAX;
            fn from_u64(v: u64) -> $t {
                v as $t
            }
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}
int!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream cannot move silently: raw outputs of seed 7, as the
    /// generator behind every committed seed, digest and baseline gave
    /// them before it moved into this crate.
    #[test]
    fn next_u64_golden() {
        let mut r = Rng::seed_from_u64(7);
        let got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        let want = [
            0x63CB_E1E4_5932_0DD7,
            0x044C_3CD7_F43C_661C,
            0xE698_4080_BAB1_2A02,
            0x953A_EB70_673E_29CB,
            0x73D3_3B66_6A1E_21DA,
            0x3FDA_BE86_CBBE_AA11,
            0x77CB_C4A1_33C2_D0F6,
            0x53FC_D651_3D02_BEFE,
        ];
        assert_eq!(got, want);
        assert_eq!(mix64(7), want[0]);
    }

    /// ... and the range and coin-flip mappings on top of them.
    #[test]
    fn range_and_bool_golden() {
        let mut r = Rng::seed_from_u64(7);
        let ranged: Vec<u64> = (0..8).map(|_| r.random_range(10..=20u64)).collect();
        assert_eq!(ranged, [12, 10, 10, 10, 17, 17, 11, 19]);
        let half_open: Vec<usize> = (0..8).map(|_| r.random_range(0..5usize)).collect();
        assert_eq!(half_open, [0, 0, 3, 1, 0, 4, 0, 0]);
        let flips: Vec<bool> = (0..8).map(|_| r.random_bool(0.3)).collect();
        assert_eq!(flips, [false, false, false, false, false, true, false, false]);
    }

    #[test]
    fn ranges_stay_in_bounds_and_extremes_hold() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..200 {
            assert!((3..10).contains(&r.random_range(3..10u32)));
            assert!(r.random_range(0..=4usize) <= 4);
            assert_eq!(r.random_range(9..=9u8), 9);
        }
        let _: u64 = r.random_range(..);
        assert!((0..50).all(|_| r.random_bool(1.0)));
        assert!((0..50).all(|_| !r.random_bool(0.0)));
    }
}
