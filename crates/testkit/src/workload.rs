//! Open-loop multi-tenant workload generator.
//!
//! Produces the seeded [`Arrival`] streams the tenant engine
//! ([`dist::run_tenant`]) and its conformance audit consume: arrivals
//! with random interarrival gaps, a mixed template population drawn by
//! weight, per-instance network seeds, and heavy-tailed think-time
//! overrides on the driven free events. Everything is a pure function of
//! [`WorkloadConfig::seed`], so a workload names a reproducible fleet
//! the same way a seed names a reproducible run.

use dist::{Arrival, WorkflowSpec};
use seeded::Rng;
use sim::Time;

/// Parameters of one generated workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of instances to admit.
    pub instances: u64,
    /// Master seed: arrivals, template picks, per-instance seeds and
    /// think times all derive from it.
    pub seed: u64,
    /// Mean interarrival gap on the fleet clock (gaps are uniform in
    /// `[0, 2 * mean_gap]`, so this is exact in expectation).
    pub mean_gap: Time,
    /// Scale of the heavy-tailed think times (the distribution's head).
    pub think_scale: Time,
    /// Cap on any single think time (the distribution's truncation).
    pub think_max: Time,
    /// Relative admission weight per template; empty means uniform.
    pub weights: Vec<u32>,
}

impl WorkloadConfig {
    /// A workload of `instances` arrivals from `seed`, with the default
    /// shape: mean gap 8 ticks, think scale 4, think cap 200, uniform
    /// template mix.
    pub fn new(instances: u64, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            instances,
            seed,
            mean_gap: 8,
            think_scale: 4,
            think_max: 200,
            weights: Vec::new(),
        }
    }
}

/// A template made drivable: every controllable free event that the
/// spec leaves unattempted (`attempt_after: None`, as
/// `core::WorkflowBuilder::from_spec` emits) is attempted at start.
/// Think-time overrides then move individual attempts later per
/// instance. Events the spec itself schedules keep their times.
pub fn drive(spec: &WorkflowSpec) -> WorkflowSpec {
    let mut out = spec.clone();
    for f in &mut out.free_events {
        if f.attrs.controllable && f.attempt_after.is_none() {
            f.attempt_after = Some(1);
        }
    }
    out
}

/// The per-instance seed derivation: pure arithmetic on `(master, i)`,
/// not a draw from the workload RNG, so admitting more instances never
/// moves the network seed of an earlier one.
fn instance_seed(master: u64, i: u64) -> u64 {
    let mut z = master ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate the arrival stream for `specs` (pass them through [`drive`]
/// first — think overrides only attach to driven free events).
///
/// Think times are heavy-tailed: `think_scale * 64 / u` for uniform
/// `u in [1, 64]`, truncated at `think_max` — a discrete Pareto-ish
/// tail, so most instances think briefly and a few think two orders of
/// magnitude longer, which is what keeps many instances concurrently
/// live in an open-loop fleet.
pub fn generate(specs: &[WorkflowSpec], config: &WorkloadConfig) -> Vec<Arrival> {
    assert!(!specs.is_empty(), "workload needs at least one template");
    if !config.weights.is_empty() {
        assert_eq!(config.weights.len(), specs.len(), "one weight per template");
        assert!(config.weights.iter().any(|&w| w > 0), "all-zero weights");
    }
    let mut rng = Rng::seed_from_u64(config.seed);
    let total_weight: u32 = config.weights.iter().sum();
    let mut at: Time = 0;
    let mut arrivals = Vec::with_capacity(config.instances as usize);
    for i in 0..config.instances {
        at += rng.random_range(0..=config.mean_gap.max(1) * 2);
        let spec_ix = if config.weights.is_empty() {
            rng.random_range(0..specs.len())
        } else {
            let mut r = rng.random_range(0..total_weight);
            config
                .weights
                .iter()
                .position(|&w| {
                    if r < w {
                        true
                    } else {
                        r -= w;
                        false
                    }
                })
                .expect("weights sum to total_weight")
        };
        let mut arrival = Arrival::new(i, spec_ix, at, instance_seed(config.seed, i));
        for f in &specs[spec_ix].free_events {
            // Half the driven events keep the template's schedule; the
            // other half get an instance-specific heavy-tailed delay.
            if f.attempt_after.is_some() && f.attrs.controllable && rng.random_bool(0.5) {
                let u = rng.random_range(1..=64u64);
                let think = (config.think_scale * 64 / u).clamp(1, config.think_max.max(1));
                arrival.think.push((f.lit, think));
            }
        }
        arrivals.push(arrival);
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use agent::EventAttrs;
    use dist::FreeEventSpec;
    use event_algebra::{parse_expr, SymbolTable};
    use sim::SiteId;

    fn template(n: u32) -> WorkflowSpec {
        let mut table = SymbolTable::new();
        let mut deps = Vec::new();
        for i in 0..n.saturating_sub(1) {
            deps.push(
                parse_expr(&format!("~e{i} + ~e{} + e{i}.e{}", i + 1, i + 1), &mut table).unwrap(),
            );
        }
        let free_events = (0..n)
            .map(|i| FreeEventSpec {
                site: SiteId(i),
                lit: table.event(&format!("e{i}")),
                attrs: EventAttrs::controllable(),
                // As produced by the spec pipeline: not yet driven.
                attempt_after: None,
            })
            .collect();
        WorkflowSpec { table, dependencies: deps, agents: vec![], free_events }
    }

    #[test]
    fn drive_attempts_every_controllable_event() {
        let spec = drive(&template(4));
        assert!(spec.free_events.iter().all(|f| f.attempt_after == Some(1)));
        // Idempotent, and never touches already-scheduled events.
        let mut scheduled = spec.clone();
        scheduled.free_events[0].attempt_after = Some(77);
        assert_eq!(drive(&scheduled).free_events[0].attempt_after, Some(77));
    }

    #[test]
    fn workload_is_a_pure_function_of_its_seed() {
        let specs = [drive(&template(3)), drive(&template(5))];
        let cfg = WorkloadConfig::new(40, 0xFEED);
        let a = generate(&specs, &cfg);
        let b = generate(&specs, &cfg);
        assert_eq!(a, b);
        let c = generate(&specs, &WorkloadConfig::new(40, 0xFEED + 1));
        assert_ne!(a, c, "different seed, different fleet");
    }

    #[test]
    fn workload_is_structurally_sound() {
        let specs = [drive(&template(3)), drive(&template(5))];
        let mut cfg = WorkloadConfig::new(64, 7);
        cfg.weights = vec![3, 1];
        let arrivals = generate(&specs, &cfg);
        assert_eq!(arrivals.len(), 64);
        let mut last = 0;
        let mut seen = std::collections::BTreeSet::new();
        let mut population = [0usize; 2];
        for a in &arrivals {
            assert!(seen.insert(a.instance), "duplicate id {}", a.instance);
            assert!(a.at >= last, "arrivals out of order");
            last = a.at;
            population[a.spec_ix] += 1;
            for &(lit, t) in &a.think {
                assert!((1..=cfg.think_max).contains(&t), "think {t} out of range");
                assert!(specs[a.spec_ix].free_events.iter().any(|f| f.lit == lit));
            }
        }
        // 64 draws at 3:1 odds: both templates appear.
        assert!(population[0] > 0 && population[1] > 0, "{population:?}");
    }

    #[test]
    fn think_times_are_heavy_tailed() {
        let specs = [drive(&template(6))];
        let mut cfg = WorkloadConfig::new(128, 11);
        cfg.think_scale = 8;
        cfg.think_max = 1_000;
        let thinks: Vec<_> = generate(&specs, &cfg)
            .into_iter()
            .flat_map(|a| a.think.into_iter().map(|(_, t)| t))
            .collect();
        assert!(!thinks.is_empty());
        let head = thinks.iter().filter(|&&t| t <= cfg.think_scale * 2).count();
        let tail = thinks.iter().filter(|&&t| t >= cfg.think_scale * 16).count();
        // Most mass near the scale, but a real tail exists.
        assert!(head > thinks.len() / 3, "head too light: {head}/{}", thinks.len());
        assert!(tail > 0, "no tail at all");
    }
}
