//! Cross-scheme determinism contract for the metrics layer: the merged
//! [`MetricsRegistry`] a [`TrialRunner`] produces must be bitwise
//! identical at any thread count, for every simulation scheme; and
//! noise-free runs must report zero corruption and zero rewinds.
//! Attaching the full observer stack (progress + profiler + run log)
//! must not move a single bit of either results or metrics, and
//! neither must the scaling knobs (windowed transcript retention, the
//! sparse flip-list channel).

use std::sync::Arc;

use beeps_bench::{trial_seed, TrialRunner};
use beeps_channel::NoiseModel;
use beeps_core::{
    HierarchicalSimulator, NakedSimulator, OneToZeroSimulator, OwnedRoundsSimulator,
    RepetitionSimulator, RewindSimulator, Simulator, SimulatorConfig,
};
use beeps_metrics::MetricsRegistry;
use beeps_protocols::{InputSet, RollCall};
use rand::Rng;

const N: usize = 6;
const TRIALS: usize = 9;

/// Runs `TRIALS` trials of `sim` under `model` at the given thread count
/// and returns the merged registry.
fn merged_registry<I: Clone + Sync, O>(
    sim: &(dyn Simulator<I, O> + Sync),
    model: NoiseModel,
    gen: &(dyn Fn(&mut rand::rngs::StdRng) -> Vec<I> + Sync),
    threads: usize,
) -> MetricsRegistry {
    let runner = TrialRunner::new(threads);
    let (_, merged) = runner.run_with_metrics(trial_seed(0xD37, N as u64), TRIALS, |trial, m| {
        let mut rng = trial.sub_rng(0);
        let inputs = gen(&mut rng);
        let _ = sim.simulate_with_metrics(&inputs, model, trial.seed, m);
    });
    merged
}

fn input_set_gen(rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    (0..N).map(|_| rng.gen_range(0..2 * N)).collect()
}

fn roll_call_gen(rng: &mut rand::rngs::StdRng) -> Vec<bool> {
    (0..N).map(|_| rng.gen_bool(0.5)).collect()
}

/// Every scheme's merged registry is bitwise identical at 1, 2, and 8
/// threads (PartialEq covers the full deterministic section).
#[test]
fn merged_registries_are_thread_count_invariant_for_every_scheme() {
    let p = InputSet::new(N);
    let owned_p = RollCall::new(N);
    let two = NoiseModel::Correlated { epsilon: 0.05 };
    let down = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    let config = || SimulatorConfig::builder(N).model(two).build();

    let naked = NakedSimulator::new(&p);
    let repetition = RepetitionSimulator::new(&p, config());
    let rewind = RewindSimulator::new(&p, config());
    let hierarchical = HierarchicalSimulator::new(&p, config());
    let one_to_zero = OneToZeroSimulator::new(&p, 2, 32.0);
    let owned = OwnedRoundsSimulator::new(&owned_p, SimulatorConfig::builder(N).model(two).build());

    let generic: [(
        &(dyn Simulator<usize, std::collections::BTreeSet<usize>> + Sync),
        NoiseModel,
    ); 5] = [
        (&naked, two),
        (&repetition, two),
        (&rewind, two),
        (&hierarchical, two),
        (&one_to_zero, down),
    ];
    for (sim, model) in generic {
        let serial = merged_registry(sim, model, &input_set_gen, 1);
        assert!(
            serial.counter(&format!("sim.{}.runs", sim.name())) == TRIALS as u64,
            "{}: every trial must be counted",
            sim.name()
        );
        for threads in [2, 8] {
            let parallel = merged_registry(sim, model, &input_set_gen, threads);
            assert_eq!(serial, parallel, "scheme {} threads {threads}", sim.name());
        }
    }

    let serial = merged_registry(&owned, two, &roll_call_gen, 1);
    for threads in [2, 8] {
        let parallel = merged_registry(&owned, two, &roll_call_gen, threads);
        assert_eq!(serial, parallel, "scheme owned_rounds threads {threads}");
    }
}

/// Independent noise exercises the batched 64-round mask blocks, the
/// per-party delivery path, and the consensus engines with their scalar
/// replays; the merged registry must stay bitwise identical at 1, 2,
/// and 8 threads there too (the batched sampler is seeded per trial, so
/// scheduling cannot leak into the masks or into which trials replay).
#[test]
fn merged_registries_are_thread_count_invariant_under_independent_noise() {
    let p = InputSet::new(N);
    let owned_p = RollCall::new(N);
    let indep = NoiseModel::Independent { epsilon: 0.05 };
    let config = SimulatorConfig::builder(N).model(indep).build();

    let naked = NakedSimulator::new(&p);
    let repetition = RepetitionSimulator::new(&p, config.clone());
    let rewind = RewindSimulator::new(&p, config.clone());
    let hierarchical = HierarchicalSimulator::new(&p, config.clone());
    let owned = OwnedRoundsSimulator::new(&owned_p, config);

    let serial = merged_registry(&owned, indep, &roll_call_gen, 1);
    for threads in [2, 8] {
        let parallel = merged_registry(&owned, indep, &roll_call_gen, threads);
        assert_eq!(
            serial, parallel,
            "owned_rounds threads {threads} under independent noise"
        );
    }
    let schemes: [&(dyn Simulator<usize, std::collections::BTreeSet<usize>> + Sync); 4] =
        [&naked, &repetition, &rewind, &hierarchical];
    for sim in schemes {
        let serial = merged_registry(sim, indep, &input_set_gen, 1);
        assert!(
            serial.counter(&format!("sim.{}.runs", sim.name())) == TRIALS as u64,
            "{}: every trial must be counted",
            sim.name()
        );
        for threads in [2, 8] {
            let parallel = merged_registry(sim, indep, &input_set_gen, threads);
            assert_eq!(
                serial,
                parallel,
                "scheme {} threads {threads} under independent noise",
                sim.name()
            );
        }
    }
}

/// The scaling knobs — a minimal committed-transcript retention window
/// (heavy rematerialization) and the sparse flip-list channel under
/// independent noise — must not open any thread-count dependence: the
/// merged registry stays bitwise identical at 1, 2, and 8 threads with
/// either knob engaged, for both collapsed-engine schemes that honor
/// the window.
#[test]
fn merged_registries_are_thread_count_invariant_with_scaling_knobs() {
    let p = InputSet::new(N);
    let two = NoiseModel::Correlated { epsilon: 0.05 };
    let indep = NoiseModel::Independent { epsilon: 0.05 };
    let windowed = |model: NoiseModel| {
        SimulatorConfig::builder(N)
            .model(model)
            .verify_window(1)
            .build()
    };

    let rewind_windowed = RewindSimulator::new(&p, windowed(two));
    let hier_windowed = HierarchicalSimulator::new(&p, windowed(two));
    let rewind_sparse = RewindSimulator::new(&p, windowed(indep));

    type SetSim<'a> = &'a (dyn Simulator<usize, std::collections::BTreeSet<usize>> + Sync);
    let cases: [(SetSim, NoiseModel, &str); 3] = [
        (&rewind_windowed, two, "rewind window=1"),
        (&hier_windowed, two, "hierarchical window=1"),
        (&rewind_sparse, indep, "rewind sparse channel"),
    ];
    for (sim, model, label) in cases {
        let serial = merged_registry(sim, model, &input_set_gen, 1);
        for threads in [2, 8] {
            let parallel = merged_registry(sim, model, &input_set_gen, threads);
            assert_eq!(serial, parallel, "{label} threads {threads}");
        }
    }
}

/// Adversarial cost skew: trial difficulty varies ~100x with the trial
/// index (party count 2 vs [`N`]·4, plus a rewind-prone channel), so
/// the dynamic chunk scheduler's trial-to-worker assignment genuinely
/// shifts between thread counts — including far more workers than
/// trials (64). Results and the merged registry must not move.
#[test]
fn merged_registries_survive_adversarial_cost_skew_up_to_64_threads() {
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let small = InputSet::new(2);
    let large = InputSet::new(N * 4);
    let small_sim = RewindSimulator::new(&small, SimulatorConfig::builder(2).model(model).build());
    let large_sim =
        RewindSimulator::new(&large, SimulatorConfig::builder(N * 4).model(model).build());

    let run = |threads: usize| {
        let runner = TrialRunner::new(threads);
        runner.run_with_metrics(trial_seed(0x5EED, 1), 21, |trial, m| {
            // Every 4th trial simulates the 12x-larger network.
            let (n, sim): (usize, &(dyn Simulator<usize, _> + Sync)) = if trial.index % 4 == 0 {
                (N * 4, &large_sim)
            } else {
                (2, &small_sim)
            };
            let mut rng = trial.sub_rng(0);
            let inputs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2 * n)).collect();
            sim.simulate_with_metrics(&inputs, model, trial.seed, m)
                .map(|out| out.outputs().to_vec())
                .ok()
        })
    };

    let (serial_results, serial_metrics) = run(1);
    for threads in [2, 8, 64] {
        let (results, metrics) = run(threads);
        assert_eq!(results, serial_results, "{threads} threads: results moved");
        assert_eq!(metrics, serial_metrics, "{threads} threads: metrics moved");
        let a: Vec<u64> = metrics.events().iter().map(|e| e.round).collect();
        let b: Vec<u64> = serial_metrics.events().iter().map(|e| e.round).collect();
        assert_eq!(a, b, "{threads} threads: event order moved");
    }
}

/// The lane-grouped batch path: for every scheme and every noise
/// regime, `run_simulations_with_metrics` must return per-trial results
/// bitwise equal to scalar `simulate` calls with the same derived
/// seeds, and a merged registry that is identical at 1, 2, and 8
/// threads (chunk boundaries become lane-group boundaries, which must
/// not be observable).
#[test]
fn batch_dispatch_matches_per_trial_at_every_thread_count() {
    let p = InputSet::new(N);
    let owned_p = RollCall::new(N);
    let two = NoiseModel::Correlated { epsilon: 0.05 };
    let config = || SimulatorConfig::builder(N).model(two).build();

    let naked = NakedSimulator::new(&p);
    let repetition = RepetitionSimulator::new(&p, config());
    let rewind = RewindSimulator::new(&p, config());
    let hierarchical = HierarchicalSimulator::new(&p, config());
    let one_to_zero = OneToZeroSimulator::new(&p, 2, 32.0);
    let owned = OwnedRoundsSimulator::new(&owned_p, SimulatorConfig::builder(N).model(two).build());

    let models = [
        NoiseModel::Noiseless,
        NoiseModel::Correlated { epsilon: 0.1 },
        NoiseModel::OneSidedZeroToOne { epsilon: 0.2 },
        NoiseModel::OneSidedOneToZero { epsilon: 0.2 },
        NoiseModel::Independent { epsilon: 0.05 },
    ];
    let base = trial_seed(0xBA7C, 1);
    let trials = TRIALS * 8; // spans several parallel chunks

    let inputs: Vec<usize> = vec![3, 0, 8, 8, 11, 5];
    let generic: [&(dyn Simulator<usize, std::collections::BTreeSet<usize>> + Sync); 5] =
        [&naked, &repetition, &rewind, &hierarchical, &one_to_zero];
    for sim in generic {
        for model in models {
            let reference: Vec<_> = (0..trials)
                .map(|i| sim.simulate(&inputs, model, trial_seed(base, i as u64)))
                .collect();
            let (serial, serial_metrics) =
                TrialRunner::new(1).run_simulations_with_metrics(base, trials, sim, &inputs, model);
            assert_eq!(
                serial,
                reference,
                "{} over {model}: batch diverged from per-trial simulate",
                sim.name()
            );
            for threads in [2, 8] {
                let (parallel, metrics) = TrialRunner::new(threads)
                    .run_simulations_with_metrics(base, trials, sim, &inputs, model);
                assert_eq!(parallel, reference, "{} {threads} threads", sim.name());
                assert_eq!(
                    metrics,
                    serial_metrics,
                    "{} over {model}: merged registry moved at {threads} threads",
                    sim.name()
                );
            }
        }
    }

    let inputs: Vec<bool> = vec![true, false, true, true, false, false];
    for model in models {
        let reference: Vec<_> = (0..trials)
            .map(|i| Simulator::simulate(&owned, &inputs, model, trial_seed(base, i as u64)))
            .collect();
        for threads in [1, 2, 8] {
            let (results, _) = TrialRunner::new(threads)
                .run_simulations_with_metrics(base, trials, &owned, &inputs, model);
            assert_eq!(results, reference, "owned_rounds {threads} threads");
        }
    }
}

/// The full production observer stack: progress tracker + phase
/// profiler + run log writing to an in-memory sink, fanned out exactly
/// like `--progress --profile` builds it.
fn full_observer_stack() -> Arc<dyn beeps_observe::Observer> {
    use beeps_observe::{MultiObserver, Observer, PhaseProfiler, ProgressTracker, RunLog, RunMeta};

    let meta = RunMeta {
        run_id: "determinism_check".to_owned(),
        config_digest: beeps_observe::config_digest(&["determinism_check"]),
        base_seed: 0,
    };
    let runlog = RunLog::to_writer(Box::new(std::io::sink()), &meta);
    Arc::new(
        MultiObserver::new()
            .with(Arc::new(ProgressTracker::new()) as Arc<dyn Observer>)
            .with(Arc::new(PhaseProfiler::new()) as Arc<dyn Observer>)
            .with(Arc::new(runlog) as Arc<dyn Observer>),
    )
}

/// Observing a run is a pure side channel: for every scheme, per-trial
/// results AND the merged registry from a fully observed runner
/// (progress + profiler + run log) are bitwise identical to the
/// unobserved ones at 1, 2, and 8 threads — through both the scalar
/// metrics path and the lane-grouped batch path.
#[test]
fn observed_runs_are_bitwise_identical_to_unobserved_runs() {
    let p = InputSet::new(N);
    let owned_p = RollCall::new(N);
    let two = NoiseModel::Correlated { epsilon: 0.05 };
    let config = || SimulatorConfig::builder(N).model(two).build();

    let naked = NakedSimulator::new(&p);
    let repetition = RepetitionSimulator::new(&p, config());
    let rewind = RewindSimulator::new(&p, config());
    let hierarchical = HierarchicalSimulator::new(&p, config());
    let one_to_zero = OneToZeroSimulator::new(&p, 2, 32.0);
    let owned = OwnedRoundsSimulator::new(&owned_p, SimulatorConfig::builder(N).model(two).build());
    let down = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };

    let base = trial_seed(0x0B5E, 7);
    let trials = TRIALS * 4;
    let inputs: Vec<usize> = vec![3, 0, 8, 8, 11, 5];

    let generic: [(
        &(dyn Simulator<usize, std::collections::BTreeSet<usize>> + Sync),
        NoiseModel,
    ); 5] = [
        (&naked, two),
        (&repetition, two),
        (&rewind, two),
        (&hierarchical, two),
        (&one_to_zero, down),
    ];
    for (sim, model) in generic {
        // Scalar per-trial path, unobserved baseline at one thread.
        let scalar = |threads: usize, observed: bool| {
            let mut runner = TrialRunner::new(threads);
            if observed {
                runner = runner.with_observer(full_observer_stack());
            }
            runner.run_with_metrics(base, trials, |trial, m| {
                let mut rng = trial.sub_rng(0);
                let trial_inputs = input_set_gen(&mut rng);
                sim.simulate_with_metrics(&trial_inputs, model, trial.seed, m)
                    .map(|out| out.outputs().to_vec())
                    .ok()
            })
        };
        let (base_results, base_metrics) = scalar(1, false);
        for threads in [1, 2, 8] {
            let (results, metrics) = scalar(threads, true);
            assert_eq!(
                results,
                base_results,
                "{}: observed scalar results moved at {threads} threads",
                sim.name()
            );
            assert_eq!(
                metrics,
                base_metrics,
                "{}: observed scalar metrics moved at {threads} threads",
                sim.name()
            );
        }

        // Lane-grouped batch path.
        let batch = |threads: usize, observed: bool| {
            let mut runner = TrialRunner::new(threads);
            if observed {
                runner = runner.with_observer(full_observer_stack());
            }
            runner.run_simulations_with_metrics(base, trials, sim, &inputs, model)
        };
        let (batch_results, batch_metrics) = batch(1, false);
        for threads in [1, 2, 8] {
            let (results, metrics) = batch(threads, true);
            assert_eq!(
                results,
                batch_results,
                "{}: observed batch results moved at {threads} threads",
                sim.name()
            );
            assert_eq!(
                metrics,
                batch_metrics,
                "{}: observed batch metrics moved at {threads} threads",
                sim.name()
            );
        }
    }

    // The sixth scheme has a distinct input type; same contract.
    let bool_inputs: Vec<bool> = vec![true, false, true, true, false, false];
    let owned_batch = |threads: usize, observed: bool| {
        let mut runner = TrialRunner::new(threads);
        if observed {
            runner = runner.with_observer(full_observer_stack());
        }
        runner.run_simulations_with_metrics(base, trials, &owned, &bool_inputs, two)
    };
    let (owned_results, owned_metrics) = owned_batch(1, false);
    for threads in [1, 2, 8] {
        let (results, metrics) = owned_batch(threads, true);
        assert_eq!(
            results, owned_results,
            "owned_rounds: observed results moved at {threads} threads"
        );
        assert_eq!(
            metrics, owned_metrics,
            "owned_rounds: observed metrics moved at {threads} threads"
        );
    }
}

/// At ε = 0 no round is ever corrupted, so every scheme reports zero
/// `corrupted_rounds` and zero `rewinds`.
#[test]
fn epsilon_zero_runs_report_zero_flip_and_rewind_counters() {
    let p = InputSet::new(N);
    let quiet = NoiseModel::Correlated { epsilon: 0.0 };
    let config = || SimulatorConfig::builder(N).model(quiet).build();

    let naked = NakedSimulator::new(&p);
    let repetition = RepetitionSimulator::new(&p, config());
    let rewind = RewindSimulator::new(&p, config());
    let hierarchical = HierarchicalSimulator::new(&p, config());
    let schemes: [&(dyn Simulator<usize, std::collections::BTreeSet<usize>> + Sync); 4] =
        [&naked, &repetition, &rewind, &hierarchical];

    for sim in schemes {
        let merged = merged_registry(sim, quiet, &input_set_gen, 2);
        let name = sim.name();
        assert_eq!(
            merged.counter(&format!("sim.{name}.corrupted_rounds")),
            0,
            "{name}: quiet channel must corrupt nothing"
        );
        assert_eq!(
            merged.counter(&format!("sim.{name}.rewinds")),
            0,
            "{name}: nothing to repair without noise"
        );
        assert_eq!(
            merged.counter(&format!("sim.{name}.failures.budget_exhausted")),
            0
        );

        // The lane-grouped batch path must report the same quiet
        // channel: zero flips and zero rewinds through simulate_batch.
        let inputs: Vec<usize> = vec![1, 4, 9, 2, 0, 7];
        let (_, batch_merged) = TrialRunner::new(2).run_simulations_with_metrics(
            trial_seed(0xD37, N as u64),
            TRIALS,
            sim,
            &inputs,
            quiet,
        );
        assert_eq!(
            batch_merged.counter(&format!("sim.{name}.corrupted_rounds")),
            0,
            "{name}: quiet batch path must corrupt nothing"
        );
        assert_eq!(batch_merged.counter(&format!("sim.{name}.rewinds")), 0);
    }
}
