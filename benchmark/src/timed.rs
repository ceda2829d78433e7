//! The untraced pass: set-up, the timed rounds, and the end-to-end metrics.

use crate::metrics::Values;
use crate::stats::{grouped_quantile, nearest_rank, sorted, spread, BestOf, Spread};
use crate::workloads::{
    companion_sim, make_inputs, run_round, worker_divergence, Inputs, Kind, RunOpts, Shape,
    SimStats,
};
use std::time::Instant;

/// Set-up is repeated inside a run and the median reported. The
/// repetitions come in bursts at this many points spread evenly over the
/// run, because the host slows down for seconds at a time: five set-ups
/// back to back would all see the same moment.
const SETUP_POINTS: usize = 5;
/// A burst repeats set-up until this much time has gone or
const SETUP_BURST_SECS: f64 = 0.25;
/// this many set-ups are done, so cheap set-ups get many samples.
const SETUP_BURST_MAX: usize = 8;

/// Every input set runs at least this often, however slow the host, so a
/// best-of always has something to choose from.
pub const MIN_REPEATS: usize = 3;

/// What the untraced pass hands to `main`.
pub struct Outcome {
    pub values: Values,
    /// Per-round values of the host rates and latencies, summarised: what
    /// the rounds of this run looked like before the best-of.
    pub spreads: Vec<(&'static str, Spread)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every sim statistic of a repeated input set repeated exactly.
    pub repeatable: bool,
    pub rounds: usize,
    pub setup_s_all: Vec<f64>,
}

/// One set-up: read the specs, generate every input from the seed, build
/// the templates, and run one untimed warm-up round.
fn set_up(shape: &'static Shape, opts: &RunOpts) -> Result<(Inputs, f64), String> {
    let started = Instant::now();
    let inputs = make_inputs(shape, opts)?;
    std::hint::black_box(run_round(&inputs, 0));
    Ok((inputs, started.elapsed().as_secs_f64()))
}

/// One burst of set-ups; their times go to `all`, the last inputs back.
fn set_up_burst(
    shape: &'static Shape,
    opts: &RunOpts,
    all: &mut Vec<f64>,
) -> Result<Inputs, String> {
    let burst = Instant::now();
    let mut done = 0;
    loop {
        let (inputs, secs) = set_up(shape, opts)?;
        all.push(secs);
        done += 1;
        // Never more than a burst's share of the run (tiny self-check runs).
        let enough = SETUP_BURST_SECS.min(opts.seconds / SETUP_POINTS as f64);
        if done == SETUP_BURST_MAX || burst.elapsed().as_secs_f64() >= enough {
            return Ok(inputs);
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `VmHWM` of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

pub fn run(shape: &'static Shape, opts: &RunOpts) -> Result<Outcome, String> {
    let mut setup_s_all = Vec::new();
    let inputs = set_up_burst(shape, opts, &mut setup_s_all)?;
    let mut setup_points = 1;
    let n_sets = inputs.sets.len();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut repeatable = true;
    // Per distinct input set: its sim statistics (filled the first time
    // the set runs, compared every time it runs again), its operation and
    // event counts, and the best time of each of its units.
    let mut sims: Vec<Option<SimStats>> = vec![None; n_sets];
    let mut counts: Vec<(u64, u64)> = vec![(0, 0); n_sets];
    let mut best: Vec<BestOf> = vec![BestOf::default(); n_sets];

    // Untimed verification that is not part of any round.
    match shape.kind {
        Kind::Parallel => {
            let set = &inputs.sets[0];
            attempted += set.len() as u64;
            failed += worker_divergence(&inputs, set);
        }
        Kind::Check => {
            let (sim, bad) = companion_sim(&inputs, &inputs.companion);
            attempted += inputs.companion.len() as u64;
            failed += bad;
            let (again, _) = companion_sim(&inputs, &inputs.companion);
            repeatable &= again == sim;
            sims[0] = Some(sim);
        }
        Kind::Solo | Kind::Tenant => {}
    }

    let mut ops_rate = Vec::new();
    let mut events_rate = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let phase = Instant::now();
    let min_rounds = MIN_REPEATS * n_sets;
    let mut round_ix = 0usize;
    while round_ix < min_rounds || phase.elapsed().as_secs_f64() < opts.seconds {
        let due = opts.seconds * setup_points as f64 / SETUP_POINTS as f64;
        if setup_points < SETUP_POINTS && phase.elapsed().as_secs_f64() >= due {
            set_up_burst(shape, opts, &mut setup_s_all)?;
            setup_points += 1;
        }
        let set_ix = round_ix % n_sets;
        let round = run_round(&inputs, round_ix);
        attempted += round.ops;
        failed += round.failed;
        round_ix += 1;
        if round.unit_ns.is_empty() {
            continue; // the round panicked: counted as failed, nothing to time
        }
        let secs = round.wall_ns() as f64 / 1e9;
        ops_rate.push(round.ops as f64 / secs);
        events_rate.push(round.events as f64 / secs);
        let lat = sorted(&round.unit_ns.iter().map(|&ns| us(ns)).collect::<Vec<_>>());
        p50.push(nearest_rank(&lat, 0.5));
        p99.push(nearest_rank(&lat, 0.99));
        best[set_ix].absorb(&round.unit_ns);
        counts[set_ix] = (round.ops, round.events);
        if let Some(sim) = round.sim {
            match &sims[set_ix] {
                Some(first) => repeatable &= *first == sim,
                None => sims[set_ix] = Some(sim),
            }
        }
    }

    let mut fire: Vec<u64> = Vec::new();
    let (mut sim_events, mut msgs) = (0u64, 0u64);
    for sim in sims.iter().flatten() {
        fire.extend_from_slice(&sim.fire);
        sim_events += sim.events;
        msgs += sim.msgs;
    }
    if fire.is_empty() || sim_events == 0 {
        return Err(format!("{}: no workflow event occurred in any round", shape.name));
    }

    // One pass over every distinct set with each unit at its best time.
    let best_secs = best.iter().map(BestOf::total_ns).sum::<u64>() as f64 / 1e9;
    let ops: u64 = counts.iter().map(|c| c.0).sum();
    let events: u64 = counts.iter().map(|c| c.1).sum();
    let best_units =
        sorted(&best.iter().flat_map(|b| b.units().iter().map(|&ns| us(ns))).collect::<Vec<_>>());

    let mut setups = setup_s_all.clone();
    setups.sort_by(f64::total_cmp);
    let mut values = Values::default();
    values.set("setup_s", setups[setups.len() / 2]);
    values.set("events_per_s", events as f64 / best_secs);
    values.set("ops_per_s", ops as f64 / best_secs);
    values.set("op_latency_p50_us", nearest_rank(&best_units, 0.5));
    values.set("op_latency_p99_us", nearest_rank(&best_units, 0.99));
    values.set("sim_fire_p50_ticks", grouped_quantile(&mut fire, 0.5));
    values.set("sim_fire_p99_ticks", grouped_quantile(&mut fire, 0.99));
    values.set("msgs_per_event", msgs as f64 / sim_events as f64);
    values.set("peak_rss_mb", peak_rss_mb()?);
    let spreads = vec![
        ("events_per_s", spread(&events_rate)),
        ("ops_per_s", spread(&ops_rate)),
        ("op_latency_p50_us", spread(&p50)),
        ("op_latency_p99_us", spread(&p99)),
    ];
    Ok(Outcome { values, spreads, attempted, failed, repeatable, rounds: round_ix, setup_s_all })
}
