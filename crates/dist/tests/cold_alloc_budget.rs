//! A host-independent performance gate for the cold path: how many heap
//! allocations one whole solo operation makes — spec text or model
//! constructor to `Workflow`, every controllable free event driven, then
//! `run_workflow` with monitors armed (the compile and the run) — phase
//! by phase, and beside them the first read of the report's metrics
//! snapshot, which renders it. Counts repeat exactly on every machine,
//! so this runs under plain `cargo test` and gates tier-1.
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
/// `Workflow`, `build_workflow`, the monitored run, and then, outside the
/// operation, the first read of its report's metrics snapshot (the
/// render). `run_workflow` builds through the same function
/// `build_workflow` does, so the run's count is `run_workflow`'s less
/// `build_workflow`'s on the same spec.
fn phases(source: Source) -> [u64; 4] {
    let source_count = allocations(|| workflow(source));
    let wf = workflow(source);
    let build = allocations(|| build_workflow(&wf.spec, config()));
    let mut report = None;
    let whole = allocations(|| report = Some(run_workflow(&wf.spec, config())));
    let report = report.expect("the run returned");
    assert!(report.all_satisfied());
    let render = allocations(|| assert!(report.metrics.counters.len() > 20));
    [source_count, build, whole - build, render]
}

/// A cold operation allocates per conjunct cell, per identifier, per
/// template table and per residual no more, and its report's metrics
/// snapshot, which no timed operation reads, is rendered only on first
/// read.
///
/// Measured by this test, one operation per template, seed 1 (the
/// release profile, as the benchmark builds; a debug build counts a
/// little more in the build), as source → `Workflow` / `build_workflow`
/// / monitored run, then the whole operation, and the render; ceilings
/// per phase:
///
/// | template (`solo_cold` weight) |                 before |                  after | after, debug | render |              ceilings |
/// |-------------------------------|-----------------------:|-----------------------:|-------------:|-------:|----------------------:|
/// | travel (300)                  |   90 / 150 / 159 = 399 |    90 / 150 / 67 = 307 |          312 |     97 |   93 / 160 / 69 / 100 |
/// | pipeline10 (300)              |   79 / 247 / 325 = 651 |   79 / 247 / 128 = 454 |          472 |    201 |  81 / 273 / 132 / 207 |
/// | diamond(3) (200)              |  204 / 264 / 323 = 791 |  204 / 264 / 117 = 585 |          597 |    210 | 210 / 284 / 121 / 216 |
/// | contingency(3) (80)           |  103 / 159 / 157 = 419 |   103 / 159 / 54 = 316 |          321 |    108 |  106 / 169 / 56 / 111 |
/// | saga(3, 3, Some(1)) (100)     | 281 / 515 / 463 = 1259 |  281 / 515 / 160 = 956 |          981 |    307 | 289 / 555 / 165 / 316 |
/// | saga(4) (20)                  | 397 / 646 / 677 = 1720 | 397 / 646 / 250 = 1293 |         1329 |    430 | 409 / 701 / 258 / 443 |
/// | weighted                      |                  667.0 |                  492.0 |        505.0 |  179.3 |                       |
///
/// "Before" is this test on the code it was written against, whose run
/// rendered the snapshot eagerly, in the run: every labelled series a
/// label vector and two strings. The run now keeps only the numbers the
/// snapshot is written from, six allocations on every template. The
/// source and build ceilings sit about 3 % above the debug counts, the
/// run and render ceilings about 3 % above the counts, which are the
/// same in both profiles: a scaffolding table, an owned metric name or an
/// eager render coming back trips its phase's.
#[test]
fn a_cold_solo_operation_allocates_within_budget() {
    let (travel, pipeline) = (text("travel"), text("pipeline10"));
    let from_text = |src: &str| WorkflowBuilder::from_spec(src).expect("spec parses").build();
    // Each template with its `solo_cold` weight (per 1000 operations) and
    // its ceilings per phase.
    let templates: [(&str, Source, u64, [u64; 4]); 6] = [
        ("travel", &|| from_text(&travel), 300, [93, 160, 69, 100]),
        ("pipeline10", &|| from_text(&pipeline), 300, [81, 273, 132, 207]),
        ("diamond(3)", &|| models::diamond(3), 200, [210, 284, 121, 216]),
        ("contingency(3)", &|| models::contingency(3, false), 80, [106, 169, 56, 111]),
        ("saga(3, 3, Some(1))", &|| models::saga(3, 3, Some(1)), 100, [289, 555, 165, 316]),
        ("saga(4)", &|| models::saga(4, 3, None), 20, [409, 701, 258, 443]),
    ];
    let mut over = Vec::new();
    let (mut weighted, mut weighted_render) = (0, 0);
    for (name, source, weight, ceilings) in templates {
        // The first operation pays for what the process initialises once.
        phases(source);
        let counts = phases(source);
        let total: u64 = counts[..3].iter().sum();
        println!(
            "{name}: {total} allocations per cold operation: source {} (ceiling {}), \
             build {} (ceiling {}), run {} (ceiling {}); render {} (ceiling {})",
            counts[0],
            ceilings[0],
            counts[1],
            ceilings[1],
            counts[2],
            ceilings[2],
            counts[3],
            ceilings[3],
        );
        let phase_names = ["source", "build", "run", "render"];
        for ((phase, count), ceiling) in phase_names.iter().zip(counts).zip(ceilings) {
            if count > ceiling {
                over.push(format!("{name} {phase}: {count} > {ceiling}"));
            }
        }
        weighted += weight * total;
        weighted_render += weight * counts[3];
    }
    println!("weighted: {:.1} allocations per cold operation", weighted as f64 / 1000.0);
    println!(
        "weighted render: {:.1} allocations per first read of its metrics",
        weighted_render as f64 / 1000.0
    );
    assert!(over.is_empty(), "over budget: {over:?}");
}
