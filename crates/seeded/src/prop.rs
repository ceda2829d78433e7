//! A small property-test runner: seeded cases of growing size, failures
//! reported as a replayable `(seed, size)`, shrinking by size only. A
//! property is a closure over a [`Gen`] that panics — `assert!`, `expect`,
//! an index out of bounds — when it does not hold.

use crate::{mix64, Int, Rng};
use std::ops::RangeBounds;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Case sizes ramp from 1 up to this over a property's cases.
const MAX_SIZE: usize = 8;

/// Every case seed derives from this and the property's name, so a suite
/// explores the same cases on every run and on every machine.
const BASE_SEED: u64 = 0x5EED_CA5E_5EED_CA5E;

/// One test case's source of inputs: a seeded [`Rng`] and a *size* that
/// bounds how large the generated structures may grow. A generator must
/// make `size` bound what it builds — recursion depth, collection length —
/// because shrinking is nothing more than re-running the same seed at a
/// smaller size.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    size: usize,
}

impl Gen {
    /// A generator outside any property run: seeded, with no size bound.
    pub fn new(seed: u64) -> Gen {
        Gen { rng: Rng::seed_from_u64(seed), size: usize::MAX }
    }

    /// The size bound of this case.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The underlying generator.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// A sample from an integer range, independent of the size.
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        self.rng.random_range(range)
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.rng.random_bool(0.5)
    }

    /// A collection length in `lo..=hi`: the room above `lo` opens in
    /// proportion to the size, all of it at the largest size [`check`]
    /// uses (and for an unbounded [`Gen::new`]).
    pub fn len(&mut self, lo: usize, hi: usize) -> usize {
        let room = hi - lo;
        self.rng.random_range(lo..=lo + room.min(room.saturating_mul(self.size).div_ceil(MAX_SIZE)))
    }
}

/// Run one case; `Some(panic message)` if the property does not hold.
fn run(seed: u64, size: usize, prop: &impl Fn(&mut Gen)) -> Option<String> {
    let mut g = Gen { rng: Rng::seed_from_u64(seed), size };
    let panic = catch_unwind(AssertUnwindSafe(|| prop(&mut g))).err()?;
    let message = panic.downcast_ref::<String>().map(String::as_str);
    Some(message.or_else(|| panic.downcast_ref::<&str>().copied()).unwrap_or("panicked").into())
}

/// Check `prop` on `cases` seeded cases. On the first failure, re-run the
/// failing seed at every smaller size and panic naming the smallest size
/// that still fails, with the [`replay`] call that reproduces it.
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Gen)) {
    let base = name.bytes().fold(BASE_SEED, |h, b| mix64(h ^ u64::from(b)));
    for case in 0..cases {
        let seed = base.wrapping_add(u64::from(case));
        let size = 1 + case as usize * MAX_SIZE / cases as usize;
        let Some(why) = run(seed, size, &prop) else { continue };
        let (size, why) = (0..size)
            .find_map(|smaller| run(seed, smaller, &prop).map(|why| (smaller, why)))
            .unwrap_or((size, why));
        panic!(
            "property `{name}` failed at case {case} (seed {seed:#x}, size {size}): {why}\n\
             reproduce with: replay({seed:#x}, {size}, |g| ...)"
        );
    }
}

/// Re-run exactly one case of a property: the `(seed, size)` a failed
/// [`check`] printed. Keep the call as a named `#[test]` to pin a
/// counter-example.
pub fn replay(seed: u64, size: usize, prop: impl Fn(&mut Gen)) {
    if let Some(why) = run(seed, size, &prop) {
        panic!("replayed case (seed {seed:#x}, size {size}) fails: {why}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn true_properties_pass_and_see_growing_sizes() {
        let largest = Cell::new(0);
        check("sizes ramp", 64, |g| {
            largest.set(largest.get().max(g.size()));
            let n = g.len(2, 10);
            assert!((2..=2 + g.size()).contains(&n), "len {n} at size {}", g.size());
            assert_eq!(g.range(5..6u32), 5);
        });
        assert_eq!(largest.get(), MAX_SIZE);
    }

    /// A deliberately false property fails, names its seed, and reports a
    /// size no larger than the first failing one; replaying the reported
    /// pair fails the same way.
    #[test]
    fn false_property_reports_a_replayable_shrunk_case() {
        let first_failing = Cell::new(None);
        let prop = |g: &mut Gen| {
            let n = g.len(0, 100);
            if n >= 30 && first_failing.get().is_none() {
                first_failing.set(Some(g.size()));
            }
            assert!(n < 30, "drew {n}");
        };
        let panic = catch_unwind(AssertUnwindSafe(|| check("never thirty", 64, prop)))
            .expect_err("the property is false");
        let report = panic.downcast_ref::<String>().expect("check panics with a String");
        let field = |key: &str| -> &str {
            let rest = &report[report.find(key).expect(key) + key.len()..];
            &rest[..rest.find([',', ')']).expect("field end")]
        };
        let seed = u64::from_str_radix(field("seed 0x"), 16).expect("seed is hex");
        let size: usize = field("size ").parse().expect("size is decimal");
        assert!(report.contains("`never thirty`") && report.contains("drew "), "{report}");
        assert!(size <= first_failing.get().expect("the first failure was seen"), "{report}");
        assert!(size >= 3, "below size 3 fewer than 30 lengths are open: {report}");
        let again = catch_unwind(AssertUnwindSafe(|| replay(seed, size, prop)));
        assert!(again.is_err(), "the reported case replays");
        replay(seed, 2, prop);
    }
}
