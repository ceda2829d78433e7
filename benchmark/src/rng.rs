//! The benchmark's own seeded generator: splitmix64 (Steele, Lea & Flood
//! 2014), written out here so that no change to `rand`, its stand-in or
//! `testkit::workload` can move the inputs a seed names.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`. The modulo bias is below 2^-40 for every `n`
    /// the workloads use (all under 2^24) and is the same on every run.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// An independent stream for sub-input `ix` of this seed (one per
    /// arrival set), so adding a set never shifts the others.
    pub fn fork(seed: u64, ix: u64) -> SplitMix64 {
        let mut base = SplitMix64::new(seed ^ ix.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64::new(base.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs of splitmix64 for seed 1234567 (the vectors
    /// published with the xoshiro/splitmix reference code).
    #[test]
    fn matches_published_vectors() {
        let mut r = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..5).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423,
                4593380528125082431,
                16408922859458223821,
            ]
        );
    }

    #[test]
    fn zero_seed_vector() {
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn ranges_and_shuffle_are_deterministic_and_in_bounds() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = a.range_inclusive(3, 17);
            assert_eq!(x, b.range_inclusive(3, 17));
            assert!((3..=17).contains(&x));
        }
        let mut v: Vec<u32> = (0..50).collect();
        let mut w = v.clone();
        a.shuffle(&mut v);
        b.shuffle(&mut w);
        assert_eq!(v, w);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 items left in order is a 1/50! event");
    }

    #[test]
    fn forks_differ_by_index_and_seed() {
        let x = SplitMix64::fork(1, 0).next_u64();
        assert_ne!(x, SplitMix64::fork(1, 1).next_u64());
        assert_ne!(x, SplitMix64::fork(2, 0).next_u64());
        assert_eq!(x, SplitMix64::fork(1, 0).next_u64());
    }
}
