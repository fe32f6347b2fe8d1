//! The four workloads. Each builds its cells in a set-up closure (timed
//! and repeated), then hands one batch body to [`crate::phases`].

use std::sync::Arc;

use beeps_bench::{trial_seed, Trial};
use beeps_channel::{run_noiseless, NoiseModel, Protocol, LANES};
use beeps_core::{
    CodeCache, HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator,
    RepetitionSimulator, RewindSimulator, Simulator, SimulatorConfig, SoaScratch,
};
use beeps_metrics::Stopwatch;
use beeps_protocols::{Broadcast, InputSet, RollCall};
use rand::rngs::StdRng;
use rand::Rng;

use crate::meter::{lane_call, mc_batch, scale_cell, CellInfo, Draw, Fixed, Group, Plan};
use crate::{phases, Ctx, Run};

/// Noise rate of every workload (the experiments' ε).
const EPS: f64 = 0.1;

fn input_set(p: &InputSet, rng: &mut StdRng) -> Vec<usize> {
    let n = p.num_parties();
    (0..n).map(|_| rng.gen_range(0..2 * n)).collect()
}

fn roll_call(p: &RollCall, rng: &mut StdRng) -> Vec<bool> {
    (0..p.num_parties()).map(|_| rng.gen_bool(0.5)).collect()
}

/// The broadcaster (party 0) draws a 16-bit value; everyone else is idle.
fn broadcast(p: &Broadcast, rng: &mut StdRng) -> Vec<usize> {
    let mut inputs = vec![0usize; p.num_parties()];
    inputs[0] = rng.gen_range(0..1usize << SCALE_WIDTH);
    inputs
}

/// A sized config sharing `cache`.
fn config(n: usize, model: NoiseModel, cache: &Arc<CodeCache>) -> SimulatorConfig {
    SimulatorConfig::builder(n)
        .model(model)
        .code_cache(Arc::clone(cache))
        .build()
}

/// Builds each config's code through the cache; returns the build time
/// in seconds.
fn build_codes(configs: &[&SimulatorConfig]) -> f64 {
    let sw = Stopwatch::start();
    for c in configs {
        c.build_code();
    }
    sw.elapsed().as_secs_f64()
}

fn info(n: usize, model: NoiseModel, config: Option<&SimulatorConfig>, lanes: bool) -> CellInfo {
    CellInfo {
        n,
        model,
        code: config.map(|c| (c.build_code(), c.resolve(model).metric)),
        decoders: if model.is_shared() || lanes {
            1
        } else {
            n as u64
        },
        lanes,
        span: config.map_or(1, |c| c.repetitions),
    }
}

/// Warm-up seed stream, disjoint from every batch's trials.
fn warm_seed(ctx: &Ctx, cell: u64) -> u64 {
    trial_seed(trial_seed(ctx.seed, 0x5EED_0000 + cell), 0)
}

const MC_N: usize = 64;

/// Per-trial random inputs under shared noise, one worker: rewind and
/// hierarchical on `InputSet(64)`, owned-rounds on `RollCall(64)` (all
/// correlated), one-to-zero on `InputSet(64)` under 1→0 noise.
pub fn shared_mc(ctx: &Ctx) -> Run {
    let set = InputSet::new(MC_N);
    let roll = RollCall::new(MC_N);
    let corr = NoiseModel::Correlated { epsilon: EPS };
    let down = NoiseModel::OneSidedOneToZero { epsilon: EPS };
    let plan = Plan {
        trials_per_call: 16,
        prefix_batches: 8,
        spec_batches: 4,
        tail_window: 1000,
    };
    let (ready, setup_s) = ctx.set_up(|| {
        let cache = Arc::new(CodeCache::new());
        let c_set = config(MC_N, corr, &cache);
        let c_roll = config(MC_N, corr, &cache);
        let build_s = build_codes(&[&c_set, &c_roll]);
        let rewind = RewindSimulator::new(&set, c_set.clone());
        let hier = HierarchicalSimulator::new(&set, c_set.clone());
        let owned = OwnedRoundsSimulator::new(&roll, c_roll.clone());
        let otz = OneToZeroSimulator::new(&set, 2, 32.0);
        let mut rng = Trial::new(ctx.seed, 0).sub_rng(0x3A);
        let si = input_set(&set, &mut rng);
        let ri = roll_call(&roll, &mut rng);
        let _ = rewind.simulate(&si, corr, warm_seed(ctx, 0));
        let _ = hier.simulate(&si, corr, warm_seed(ctx, 1));
        let _ = owned.simulate(&ri, corr, warm_seed(ctx, 2));
        let _ = otz.simulate(&si, down, warm_seed(ctx, 3));
        (cache, build_s, c_set, c_roll, rewind, hier, owned, otz)
    });
    let (cache, build_s, c_set, c_roll, rewind, hier, owned, otz) = &ready;
    let sets = Group::new(
        &set,
        input_set,
        0,
        vec![(rewind, corr), (hier, corr), (otz, down)],
    );
    let rolls = Group::new(&roll, roll_call, 1, vec![(owned, corr)]);
    let infos = vec![
        info(MC_N, corr, Some(c_set), false),
        info(MC_N, corr, Some(c_set), false),
        info(MC_N, down, None, false),
        info(MC_N, corr, Some(c_roll), false),
    ];
    let groups: [&dyn Draw; 2] = [&sets, &rolls];
    phases(ctx, plan, infos, cache, setup_s, *build_s, |m| {
        mc_batch(m, &groups);
    })
}

const INDEP_N: usize = 32;

/// The same shape under independent per-party noise on `InputSet(32)` /
/// `RollCall(32)`: rewind, hierarchical and owned-rounds, which run the
/// per-party scalar engines there, one worker.
pub fn independent_mc(ctx: &Ctx) -> Run {
    let set = InputSet::new(INDEP_N);
    let roll = RollCall::new(INDEP_N);
    let model = NoiseModel::Independent { epsilon: EPS };
    let plan = Plan {
        trials_per_call: 4,
        prefix_batches: 8,
        spec_batches: 2,
        tail_window: 200,
    };
    let (ready, setup_s) = ctx.set_up(|| {
        let cache = Arc::new(CodeCache::new());
        let c_set = config(INDEP_N, model, &cache);
        let c_roll = config(INDEP_N, model, &cache);
        let build_s = build_codes(&[&c_set, &c_roll]);
        let rewind = RewindSimulator::new(&set, c_set.clone());
        let hier = HierarchicalSimulator::new(&set, c_set.clone());
        let owned = OwnedRoundsSimulator::new(&roll, c_roll.clone());
        let mut rng = Trial::new(ctx.seed, 0).sub_rng(0x3A);
        let si = input_set(&set, &mut rng);
        let ri = roll_call(&roll, &mut rng);
        let _ = rewind.simulate(&si, model, warm_seed(ctx, 0));
        let _ = hier.simulate(&si, model, warm_seed(ctx, 1));
        let _ = owned.simulate(&ri, model, warm_seed(ctx, 2));
        (cache, build_s, c_set, c_roll, rewind, hier, owned)
    });
    let (cache, build_s, c_set, c_roll, rewind, hier, owned) = &ready;
    let sets = Group::new(&set, input_set, 0, vec![(rewind, model), (hier, model)]);
    let rolls = Group::new(&roll, roll_call, 1, vec![(owned, model)]);
    let infos = vec![
        info(INDEP_N, model, Some(c_set), false),
        info(INDEP_N, model, Some(c_set), false),
        info(INDEP_N, model, Some(c_roll), false),
    ];
    let groups: [&dyn Draw; 2] = [&sets, &rolls];
    phases(ctx, plan, infos, cache, setup_s, *build_s, |m| {
        mc_batch(m, &groups);
    })
}

const LANE_N: usize = 32;
/// Fixed inputs per lane cell.
const FIXED_INPUTS: usize = 2;
/// Workers of the lane workload.
pub const LANE_WORKERS: usize = 2;

fn fixed<P: Protocol>(
    ctx: &Ctx,
    cell: u64,
    p: &P,
    gen: fn(&P, &mut StdRng) -> Vec<P::Input>,
) -> Vec<Fixed<P::Input>> {
    (0..FIXED_INPUTS)
        .map(|f| {
            let inputs = gen(
                p,
                &mut Trial::new(trial_seed(ctx.seed, cell), f).sub_rng(0xF1),
            );
            let truth = run_noiseless(p, &inputs).into_parts().0;
            Fixed { inputs, truth }
        })
        .collect()
}

fn warm_batch<I, O, S: Simulator<I, O>>(ctx: &Ctx, cell: u64, sim: &S, m: NoiseModel, i: &[I]) {
    let seeds: Vec<u64> = (0..LANES as u64)
        .map(|l| trial_seed(warm_seed(ctx, cell), l))
        .collect();
    let _ = sim.simulate_batch(i, m, &seeds);
}

/// Fixed-input failure-rate estimates on two workers through
/// `run_simulations_with_metrics` (the lane engines): repetition,
/// rewind, hierarchical and owned-rounds under correlated noise,
/// one-to-zero under 1→0 noise, repetition under independent noise.
pub fn lane_batch(ctx: &Ctx) -> Run {
    let set = InputSet::new(LANE_N);
    let roll = RollCall::new(LANE_N);
    let corr = NoiseModel::Correlated { epsilon: EPS };
    let down = NoiseModel::OneSidedOneToZero { epsilon: EPS };
    let indep = NoiseModel::Independent { epsilon: EPS };
    let plan = Plan {
        trials_per_call: 1024,
        prefix_batches: 2,
        spec_batches: 2,
        tail_window: 40,
    };
    let (ready, setup_s) = ctx.set_up(|| {
        let cache = Arc::new(CodeCache::new());
        let c_set = config(LANE_N, corr, &cache);
        let c_roll = config(LANE_N, corr, &cache);
        let c_indep = config(LANE_N, indep, &cache);
        let build_s = build_codes(&[&c_set, &c_roll]);
        let rep = RepetitionSimulator::new(&set, c_set.clone());
        let rewind = RewindSimulator::new(&set, c_set.clone());
        let hier = HierarchicalSimulator::new(&set, c_set.clone());
        let owned = OwnedRoundsSimulator::new(&roll, c_roll.clone());
        let otz = OneToZeroSimulator::new(&set, 2, 32.0);
        let rep_indep = RepetitionSimulator::new(&set, c_indep);
        let sets = |cell| fixed(ctx, cell, &set, input_set);
        let inputs = (
            sets(0),
            sets(1),
            sets(2),
            fixed(ctx, 3, &roll, roll_call),
            sets(4),
            sets(5),
        );
        warm_batch(ctx, 0, &rep, corr, &inputs.0[0].inputs);
        warm_batch(ctx, 1, &rewind, corr, &inputs.1[0].inputs);
        warm_batch(ctx, 2, &hier, corr, &inputs.2[0].inputs);
        warm_batch(ctx, 3, &owned, corr, &inputs.3[0].inputs);
        warm_batch(ctx, 4, &otz, down, &inputs.4[0].inputs);
        warm_batch(ctx, 5, &rep_indep, indep, &inputs.5[0].inputs);
        let sims = (rep, rewind, hier, owned, otz, rep_indep);
        (cache, build_s, c_set, c_roll, sims, inputs)
    });
    let (cache, build_s, c_set, c_roll, sims, inputs) = &ready;
    let (rep, rewind, hier, owned, otz, rep_indep) = sims;
    let infos = vec![
        info(LANE_N, corr, None, true),
        info(LANE_N, corr, Some(c_set), true),
        info(LANE_N, corr, Some(c_set), true),
        info(LANE_N, corr, Some(c_roll), true),
        info(LANE_N, down, None, true),
        info(LANE_N, indep, None, true),
    ];
    phases(ctx, plan, infos, cache, setup_s, *build_s, |m| {
        for f in 0..FIXED_INPUTS {
            let ns = lane_call(m, 0, f, rep, corr, &inputs.0[f])
                + lane_call(m, 1, f, rewind, corr, &inputs.1[f])
                + lane_call(m, 2, f, hier, corr, &inputs.2[f])
                + lane_call(m, 3, f, owned, corr, &inputs.3[f])
                + lane_call(m, 4, f, otz, down, &inputs.4[f])
                + lane_call(m, 5, f, rep_indep, indep, &inputs.5[f]);
            m.latencies.push(ns);
        }
    })
}

/// Parties of the scale workload.
pub const SCALE_N: usize = 100_000;
/// Broadcast width, and the chunk length.
const SCALE_WIDTH: usize = 16;

/// `Broadcast(10⁵, 16-bit)` with `chunk_len = 16` under correlated
/// noise, through `run_with_scratch` + `simulate_with_scratch`, one
/// worker (fig_scale's scale regime).
pub fn scale(ctx: &Ctx) -> Run {
    let p = Broadcast::new(SCALE_N, 0, SCALE_WIDTH);
    let corr = NoiseModel::Correlated { epsilon: EPS };
    // No specification re-runs at this size; see `scale_cell`.
    let plan = Plan {
        trials_per_call: 4,
        prefix_batches: 4,
        spec_batches: 0,
        tail_window: 100,
    };
    let (ready, setup_s) = ctx.set_up(|| {
        let cache = Arc::new(CodeCache::new());
        let c = SimulatorConfig::builder(SCALE_N)
            .model(corr)
            .chunk_len(SCALE_WIDTH)
            .code_cache(Arc::clone(&cache))
            .build();
        let build_s = build_codes(&[&c]);
        let sim = RewindSimulator::new(&p, c.clone());
        let inputs = broadcast(&p, &mut Trial::new(ctx.seed, 0).sub_rng(0x3A));
        let _ =
            sim.simulate_with_scratch(&inputs, corr, warm_seed(ctx, 0), &mut SoaScratch::default());
        (cache, build_s, c, sim)
    });
    let (cache, build_s, c, sim) = &ready;
    let infos = vec![info(SCALE_N, corr, Some(c), false)];
    phases(ctx, plan, infos, cache, setup_s, *build_s, |m| {
        scale_cell(m, &p, sim, corr, broadcast);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> Ctx {
        Ctx {
            seed,
            seconds: 0.01,
            trace: false,
            workers: 1,
        }
    }

    #[test]
    fn a_different_seed_changes_the_inputs() {
        let set = InputSet::new(LANE_N);
        let a = fixed(&ctx(1), 1, &set, input_set);
        let b = fixed(&ctx(2), 1, &set, input_set);
        assert_eq!(a.len(), FIXED_INPUTS);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.inputs, y.inputs);
        }
        // The Monte Carlo draws come from each trial's sub-stream, and the
        // trial seeds from the workload seed.
        let draw = |seed: u64| {
            let base = trial_seed(trial_seed(seed, 0), 0);
            input_set(&set, &mut Trial::new(base, 0).sub_rng(0))
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
