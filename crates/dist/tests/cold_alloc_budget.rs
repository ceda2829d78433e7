//! A host-independent performance gate for the cold path: how many heap
//! allocations one whole solo operation makes — spec text or model
//! constructor to `Workflow`, every controllable free event driven, then
//! `run_workflow` with monitors armed (the compile, the run and the
//! metrics snapshot). Counts repeat exactly on every machine, so this
//! runs under plain `cargo test` and gates tier-1.
//!
//! The file holds one test on purpose: the counter is process-wide, and
//! a second test running beside it would be counted too.

use constrained_events::{models, Workflow, WorkflowBuilder};
use dist::{run_workflow, ExecConfig};
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
fn allocations(f: impl FnOnce()) -> u64 {
    let before = COUNT.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    COUNT.load(Ordering::Relaxed) - before
}

fn text(name: &str) -> String {
    let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// One cold operation: the workflow from its source, its controllable
/// free events attempted at tick 1, one monitored run.
fn cold_op(source: &dyn Fn() -> Workflow) {
    let mut wf = source();
    for f in &mut wf.spec.free_events {
        if f.attrs.controllable && f.attempt_after.is_none() {
            f.attempt_after = Some(1);
        }
    }
    let mut config = ExecConfig::seeded(1);
    config.monitor = Some(monitor::MonitorConfig::default());
    let report = run_workflow(&wf.spec, config);
    assert!(report.all_satisfied());
}

/// A cold operation allocates per conjunct cell, per metric series and
/// per identifier no more.
///
/// Measured by this test, one operation per template, seed 1 (the
/// release profile, as the benchmark builds; a debug build counts up to
/// 2 % more):
///
/// | template (`solo_cold` weight) | before | after | after, debug | ceiling |
/// |-------------------------------|-------:|------:|-------------:|--------:|
/// | travel (300)                  |    910 |   601 |          606 |     625 |
/// | pipeline10 (300)              |   1298 |   851 |          869 |     895 |
/// | diamond(3) (200)              |   1653 |  1202 |         1214 |    1250 |
/// | contingency(3) (80)           |    894 |   637 |          642 |     665 |
/// | saga(3, 3, Some(1)) (100)     |   3286 |  1911 |         1936 |    1995 |
/// | saga(4) (20)                  |   4180 |  2526 |         2562 |    2640 |
///
/// "Before" is this test on the code it was written against, which fails
/// it: conjunct cells in a vector each, metric names owned per series and
/// sorted with scratch, identifiers copied per token, and a fresh alphabet
/// and guard per synthesis step. The ceilings sit about 3 % above the debug count:
/// any of those coming back on one path trips them.
#[test]
fn a_cold_solo_operation_allocates_within_budget() {
    let (travel, pipeline) = (text("travel"), text("pipeline10"));
    let from_text = |src: &str| WorkflowBuilder::from_spec(src).expect("spec parses").build();
    let templates: [(&str, &dyn Fn() -> Workflow, u64); 6] = [
        ("travel", &|| from_text(&travel), 625),
        ("pipeline10", &|| from_text(&pipeline), 895),
        ("diamond(3)", &|| models::diamond(3), 1250),
        ("contingency(3)", &|| models::contingency(3, false), 665),
        ("saga(3, 3, Some(1))", &|| models::saga(3, 3, Some(1)), 1995),
        ("saga(4)", &|| models::saga(4, 3, None), 2640),
    ];
    let mut over = Vec::new();
    for (name, source, ceiling) in templates {
        // The first operation pays for what the process initialises once.
        cold_op(source);
        let count = allocations(|| cold_op(source));
        println!("{name}: {count} allocations per cold operation (ceiling {ceiling})");
        if count > ceiling {
            over.push(format!("{name}: {count} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
