//! A host-independent performance gate for the static checker: how many
//! heap allocations one whole check makes — spec text to `Report`, as the
//! `check_static` workload runs it — phase by phase. Counts repeat
//! exactly on every machine, so this runs under plain `cargo test` and
//! gates tier-1.
//!
//! The file holds one test on purpose: the counter is process-wide, and
//! a second test running beside it would be counted too.

use analyze::{analyze_workflow, AnalyzeOptions};
use guard::{CompiledWorkflow, GuardScope};
use speclang::LoweredWorkflow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    // Relaxed: a statistic that publishes no other data.
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink counts as one allocation.
        note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made while `f` runs (its result dropped inside the count).
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = COUNT.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    drop(f());
    ARMED.store(false, Ordering::Relaxed);
    COUNT.load(Ordering::Relaxed) - before
}

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The chain `e0 -> e1 -> … -> e11` of the benchmark's pipeline12 spec.
fn pipeline12() -> String {
    let mut src = String::from("workflow pipeline12 {\n");
    for i in 0..12 {
        src.push_str(&format!("    event e{i};\n"));
    }
    for i in 0..11 {
        src.push_str(&format!("    dep d{i}: e{i} -> e{};\n", i + 1));
    }
    src.push('}');
    src
}

/// A spec's allocations per check, by phase: text → `LoweredWorkflow`,
/// the guard compile, and the three passes with the report. The check
/// compiles inside `analyze_workflow`, so the passes' count is its count
/// less a standalone compile of the same dependencies.
fn phases(text: &str) -> [u64; 3] {
    let parse = allocations(|| LoweredWorkflow::parse(text).expect("spec parses"));
    let w = LoweredWorkflow::parse(text).expect("spec parses");
    let compile = allocations(|| CompiledWorkflow::compile(&w.ground_deps, GuardScope::Mentioning));
    let check = allocations(|| analyze_workflow(&w, &AnalyzeOptions::default()));
    [parse, compile, check - compile]
}

/// A check allocates per declaration, per shape and per diagnostic, and
/// no longer per machine table, per search round or per sort comparison.
///
/// Measured by this test, one check per spec after a warm-up, as parse /
/// compile / passes: "before" on the code it was written against,
/// "after" on the change that wrote it, both in the release profile (as the benchmark
/// builds; a debug build counts a few more in the compile). The ceilings
/// sit about 3 % above the debug counts:
///
/// | spec (`check_static` weight) |                before |                after | after, debug |       ceilings |
/// |------------------------------|----------------------:|---------------------:|-------------:|---------------:|
/// | travel (40)                  |   48 / 96 / 199 = 343 |   48 / 96 / 58 = 202 |          207 |  50 / 105 / 60 |
/// | pipeline10 (20)              | 78 / 142 / 812 = 1032 | 78 / 142 / 122 = 342 |          360 | 81 / 165 / 126 |
/// | pipeline12 (2)               | 91 / 163 / 806 = 1060 | 91 / 163 / 142 = 396 |          418 | 94 / 191 / 147 |
/// | weighted                     |                 588.4 |                253.4 |        263.2 |                |
///
/// A machine's tables copied per component, a table fill per search
/// round, a message cloned per sort comparison or a vector per Tarjan
/// component coming back trips the passes' ceiling.
#[test]
fn a_static_check_allocates_within_budget() {
    let (travel, pipeline10) = (example("travel"), example("pipeline10"));
    let pipeline12 = pipeline12();
    // Each spec with its `check_static` weight (per 62 checks) and its
    // ceilings per phase.
    let specs: [(&str, &str, u64, [u64; 3]); 3] = [
        ("travel", &travel, 40, [50, 105, 60]),
        ("pipeline10", &pipeline10, 20, [81, 165, 126]),
        ("pipeline12", &pipeline12, 2, [94, 191, 147]),
    ];
    let mut over = Vec::new();
    let (mut weighted, mut weights) = (0, 0);
    for (name, text, weight, ceilings) in specs {
        // The first check pays for what the process initialises once.
        phases(text);
        let counts = phases(text);
        let total: u64 = counts.iter().sum();
        println!(
            "{name}: {total} allocations per check: parse {} (ceiling {}), \
             compile {} (ceiling {}), passes {} (ceiling {})",
            counts[0], ceilings[0], counts[1], ceilings[1], counts[2], ceilings[2],
        );
        for ((phase, count), ceiling) in
            ["parse", "compile", "passes"].iter().zip(counts).zip(ceilings)
        {
            if count > ceiling {
                over.push(format!("{name} {phase}: {count} > {ceiling}"));
            }
        }
        weighted += weight * total;
        weights += weight;
    }
    println!("weighted: {:.1} allocations per static check", weighted as f64 / weights as f64);
    assert!(over.is_empty(), "over budget: {over:?}");
}
