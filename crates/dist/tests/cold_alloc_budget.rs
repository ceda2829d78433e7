//! A host-independent performance gate for the cold path: how many heap
//! allocations one whole solo operation makes — spec text or model
//! constructor to `Workflow`, every controllable free event driven, then
//! `run_workflow` with monitors armed (the compile, the run and the
//! metrics snapshot) — phase by phase. Counts repeat exactly on every
//! machine, so this runs under plain `cargo test` and gates tier-1.
//!
//! The file holds one test on purpose: the counter is process-wide, and
//! a second test running beside it would be counted too.

use constrained_events::{models, Workflow, WorkflowBuilder};
use dist::{build_workflow, run_workflow, ExecConfig};
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

fn text(name: &str) -> String {
    let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Where a template's workflow comes from: spec text or a model.
type Source<'a> = &'a dyn Fn() -> Workflow;

/// The first phase of a cold operation: the workflow from its source,
/// its controllable free events attempted at tick 1.
fn workflow(source: Source) -> Workflow {
    let mut wf = source();
    for f in &mut wf.spec.free_events {
        if f.attrs.controllable && f.attempt_after.is_none() {
            f.attempt_after = Some(1);
        }
    }
    wf
}

fn config() -> ExecConfig {
    let mut config = ExecConfig::seeded(1);
    config.monitor = Some(monitor::MonitorConfig::default());
    config
}

/// A template's allocations per cold operation, by phase: source →
/// `Workflow`, `build_workflow`, and the monitored run. `run_workflow`
/// builds through the same function `build_workflow` does, so the run's
/// count is `run_workflow`'s less `build_workflow`'s on the same spec.
fn phases(source: Source) -> [u64; 3] {
    let source_count = allocations(|| workflow(source));
    let wf = workflow(source);
    let build = allocations(|| build_workflow(&wf.spec, config()));
    let whole = allocations(|| {
        let report = run_workflow(&wf.spec, config());
        assert!(report.all_satisfied());
    });
    [source_count, build, whole - build]
}

/// A cold operation allocates per conjunct cell, per metric series, per
/// identifier, per template table and per residual no more.
///
/// Measured by this test, one operation per template, seed 1 (the
/// release profile, as the benchmark builds; a debug build counts a
/// little more), as source → `Workflow` / `build_workflow` / monitored
/// run, then the whole operation; ceilings per phase:
///
/// | template (`solo_cold` weight) |                  before |                  after |           after, debug |        ceilings |
/// |-------------------------------|------------------------:|-----------------------:|-----------------------:|----------------:|
/// | travel (300)                  |    98 / 319 / 177 = 594 |   90 / 150 / 162 = 402 |   90 / 155 / 162 = 407 |  93 / 160 / 167 |
/// | pipeline10 (300)              |    96 / 381 / 365 = 842 |   79 / 247 / 334 = 660 |   79 / 265 / 334 = 678 |  81 / 273 / 344 |
/// | diamond(3) (200)              |  223 / 601 / 362 = 1186 |  204 / 264 / 331 = 799 |  204 / 276 / 331 = 811 | 210 / 284 / 341 |
/// | contingency(3) (80)           |   111 / 341 / 172 = 624 |  103 / 159 / 157 = 419 |  103 / 164 / 157 = 424 | 106 / 169 / 162 |
/// | saga(3, 3, Some(1)) (100)     | 307 / 1048 / 516 = 1871 | 281 / 515 / 470 = 1266 | 281 / 540 / 470 = 1291 | 289 / 555 / 484 |
/// | saga(4) (20)                  | 433 / 1311 / 760 = 2504 | 397 / 646 / 693 = 1736 | 397 / 682 / 693 = 1772 | 409 / 701 / 714 |
/// | weighted                      |                   955.1 |                  673.2 |                  686.2 |                 |
///
/// "Before" is this test on the code it was written against, whose
/// allocations were mostly the template's scaffolding: every
/// residual state a tree, reverse edges and avoidance rows as vectors
/// of vectors, a heap list per interned node, symbol-keyed maps and sets
/// in the build, a copied task skeleton and three vectors per skeleton
/// state per agent, a string per name in the copied symbol table. The
/// ceilings sit about 3 % above the debug counts: any of those coming
/// back on one phase trips that phase's.
#[test]
fn a_cold_solo_operation_allocates_within_budget() {
    let (travel, pipeline) = (text("travel"), text("pipeline10"));
    let from_text = |src: &str| WorkflowBuilder::from_spec(src).expect("spec parses").build();
    // Each template with its `solo_cold` weight (per 1000 operations) and
    // its ceilings per phase.
    let templates: [(&str, Source, u64, [u64; 3]); 6] = [
        ("travel", &|| from_text(&travel), 300, [93, 160, 167]),
        ("pipeline10", &|| from_text(&pipeline), 300, [81, 273, 344]),
        ("diamond(3)", &|| models::diamond(3), 200, [210, 284, 341]),
        ("contingency(3)", &|| models::contingency(3, false), 80, [106, 169, 162]),
        ("saga(3, 3, Some(1))", &|| models::saga(3, 3, Some(1)), 100, [289, 555, 484]),
        ("saga(4)", &|| models::saga(4, 3, None), 20, [409, 701, 714]),
    ];
    let mut over = Vec::new();
    let mut weighted = 0;
    for (name, source, weight, ceilings) in templates {
        // The first operation pays for what the process initialises once.
        phases(source);
        let counts = phases(source);
        let total: u64 = counts.iter().sum();
        println!(
            "{name}: {total} allocations per cold operation: source {} (ceiling {}), \
             build {} (ceiling {}), run {} (ceiling {})",
            counts[0], ceilings[0], counts[1], ceilings[1], counts[2], ceilings[2],
        );
        for ((phase, count), ceiling) in ["source", "build", "run"].iter().zip(counts).zip(ceilings)
        {
            if count > ceiling {
                over.push(format!("{name} {phase}: {count} > {ceiling}"));
            }
        }
        weighted += weight * total;
    }
    println!("weighted: {:.1} allocations per cold operation", weighted as f64 / 1000.0);
    assert!(over.is_empty(), "over budget: {over:?}");
}
