//! The plain types `dist::run_parallel_fleet` is configured and reported
//! with. There is no second executor behind them: every workflow instance
//! — solo, tenant or "parallel" — runs on the one event loop in
//! [`Network`], and the threads sit *between* instances, because events
//! interact only through the guards they share and two instances share
//! none (DESIGN.md §10).
//!
//! [`Network`]: crate::Network

use crate::net::Time;

/// Configuration of fleet parallelism.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Workflow instances in flight: the threads `dist::run_parallel_fleet`
    /// runs whole instances on (`0` counts as `1`).
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig { workers: 1 }
    }
}

impl ParallelConfig {
    /// `workers` instances in flight.
    pub fn new(workers: usize) -> ParallelConfig {
        ParallelConfig { workers }
    }
}

/// What one fleet worker thread did. Wall-clock and load split are
/// scheduler-dependent: they are *excluded* from the determinism
/// guarantee (everything in [`ParallelStats`] outside `per_worker`,
/// `steals`, `busy_ns`, `merge_ns` and `wall_ns` is worker-count
/// invariant).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerLoad {
    /// Messages this worker delivered.
    pub delivered: u64,
    /// Nanoseconds this worker spent on its instances: instantiate, run
    /// and collect.
    pub busy_ns: u64,
    /// Instances claimed whose round-robin home was another worker.
    pub steals: u64,
}

/// Statistics of one `dist::run_parallel_fleet` call.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Threads used.
    pub workers: usize,
    /// Retired with the sharded round executor: always 0. Kept as a field
    /// only until the benchmark stops reading it (ROADMAP item 11).
    pub rounds: u64,
    /// Instances claimed off their round-robin home worker
    /// (`arrival index % workers`).
    pub steals: u64,
    /// Retired with the sharded round executor: always 0. Kept as a field
    /// only until the benchmark stops reading it (ROADMAP item 11).
    pub max_round_width: usize,
    /// Nanoseconds inside `Network::run_to_quiescence`, one clock pair per
    /// instance, summed over the fleet's instances.
    pub busy_ns: u64,
    /// Nanoseconds the coordinator spent, after its workers returned and
    /// their outcomes were put in arrival order, rolling the instances up
    /// into the fleet report — the serial tail.
    pub merge_ns: u64,
    /// Wall-clock nanoseconds of the whole call, template compilation
    /// included.
    pub wall_ns: u64,
    /// Fleet-clock time at which the last instance finished.
    pub duration: Time,
    /// Per-thread load breakdown.
    pub per_worker: Vec<WorkerLoad>,
}
