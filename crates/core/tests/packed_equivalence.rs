//! Property tests for the word-packed delivery path: every scheme must
//! behave **bit-identically** whether per-party deliveries travel as the
//! packed [`BitVec`] the channel produces or are round-tripped through a
//! plain `Vec<bool>` and re-packed.
//!
//! This pins the `BitVec` adapter layer (`to_bools` / `from_bools` /
//! `uniform`) against the reference representation: if packing, tail
//! masking, or the uniform-delivery fast path ever disagreed with the
//! boolean semantics, some scheme's transcript would diverge here.

use beeps_channel::{
    run_protocol, run_protocol_over, BitVec, Channel, Delivery, IndependentLaneChannel, NoiseModel,
    StochasticChannel,
};
use beeps_core::{
    HierarchicalSimulator, OneToZeroSimulator, OwnedRoundsSimulator, RepetitionSimulator,
    RewindSimulator, SimError, SimOutcome, Simulator, SimulatorConfig,
};
use beeps_ecc::BitMetric;
use beeps_protocols::{InputSet, MultiOr, RollCall};
use proptest::prelude::*;

/// Delegates to a [`StochasticChannel`] but re-materialises every
/// per-party delivery through `Vec<bool>`, so downstream code consumes a
/// freshly re-packed `BitVec` instead of the channel's original words.
struct RoundtripChannel {
    inner: StochasticChannel,
}

impl RoundtripChannel {
    fn new(n: usize, model: NoiseModel, seed: u64) -> Self {
        Self {
            inner: StochasticChannel::new(n, model, seed),
        }
    }
}

impl Channel for RoundtripChannel {
    fn num_parties(&self) -> usize {
        self.inner.num_parties()
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        match self.inner.transmit(true_or) {
            Delivery::Shared(bit) => Delivery::Shared(bit),
            Delivery::PerParty(bits) => {
                let bools = bits.to_bools();
                assert_eq!(bits, bools, "packed bits disagree with bool view");
                Delivery::PerParty(BitVec::from_bools(&bools))
            }
            Delivery::Sparse(sparse) => {
                // Expand the flip list through the boolean reference
                // representation, so consumers of this channel exercise
                // the dense path on bits the sparse path produced.
                let bools: Vec<bool> = (0..sparse.len()).map(|i| sparse.heard_by(i)).collect();
                let dense = BitVec::from_bools(&bools);
                assert_eq!(sparse, dense, "sparse delivery disagrees with dense view");
                Delivery::PerParty(dense)
            }
        }
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        self.inner.corrupted_rounds()
    }
}

/// The noise regimes to sweep: every shared regime plus the only regime
/// that produces genuinely per-party (divergent) deliveries.
fn models() -> Vec<NoiseModel> {
    vec![
        NoiseModel::Noiseless,
        NoiseModel::Correlated { epsilon: 0.1 },
        NoiseModel::OneSidedZeroToOne { epsilon: 0.2 },
        NoiseModel::OneSidedOneToZero { epsilon: 0.2 },
        NoiseModel::Independent { epsilon: 0.05 },
    ]
}

/// Runs `simulate_batch` and asserts it equals, seed by seed, the
/// scalar specification: `simulate_over` on a fresh `StochasticChannel`
/// seeded like that trial — transcripts, outputs, statistics and errors
/// all compared by value. Returns how many trials ended in an error.
fn batch_matches_spec<I, O: PartialEq + std::fmt::Debug>(
    sim: &dyn Simulator<I, O>,
    inputs: &[I],
    model: NoiseModel,
    seeds: &[u64],
) -> usize {
    let name = sim.name();
    let batch = sim.simulate_batch(inputs, model, seeds);
    assert_eq!(batch.len(), seeds.len(), "{name} over {model}");
    let mut errors = 0;
    for (&seed, sliced) in seeds.iter().zip(batch) {
        let mut fresh = StochasticChannel::new(inputs.len(), model, seed);
        let spec = sim.simulate_over(inputs, model, &mut fresh);
        errors += usize::from(spec.is_err());
        assert_eq!(sliced, spec, "{name} over {model} seed {seed}");
    }
    errors
}

#[test]
fn naked_execution_matches_roundtrip() {
    let p = InputSet::new(6);
    let inputs = [3, 0, 8, 8, 11, 5];
    for model in models() {
        for seed in 0..4 {
            let packed = run_protocol(&p, &inputs, model, seed);
            let mut rt = RoundtripChannel::new(6, model, seed);
            let unpacked = run_protocol_over(&p, &inputs, &mut rt);
            for i in 0..6 {
                assert_eq!(
                    packed.views().view(i),
                    unpacked.views().view(i),
                    "party {i} view diverged over {model} seed {seed}"
                );
            }
            assert_eq!(packed.outputs(), unpacked.outputs());
            assert_eq!(packed.energy(), unpacked.energy());
            assert_eq!(packed.corrupted_rounds(), unpacked.corrupted_rounds());
        }
    }
}

#[test]
fn repetition_scheme_matches_roundtrip() {
    let p = InputSet::new(5);
    let inputs = [2, 9, 0, 0, 4];
    let config = SimulatorConfig::builder(5)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = RepetitionSimulator::new(&p, config);
    for model in models() {
        for seed in 0..3 {
            let packed = sim.simulate(&inputs, model, seed).unwrap();
            let mut rt = RoundtripChannel::new(5, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt).unwrap();
            assert_eq!(packed.transcript(), unpacked.transcript());
            assert_eq!(packed.outputs(), unpacked.outputs());
            assert_eq!(packed.stats(), unpacked.stats());
        }
    }
}

#[test]
fn rewind_scheme_matches_roundtrip() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let config = SimulatorConfig::builder(4)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = RewindSimulator::new(&p, config);
    for model in models() {
        for seed in 0..2 {
            let packed = sim.simulate(&inputs, model, seed);
            let mut rt = RoundtripChannel::new(4, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt);
            match (packed, unpacked) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.transcript(), b.transcript());
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(a.err(), b.err(), "error mismatch over {model}"),
            }
        }
    }
}

#[test]
fn hierarchical_scheme_matches_roundtrip() {
    let p = InputSet::new(4);
    let inputs = [1, 6, 6, 3];
    let config = SimulatorConfig::builder(4)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = HierarchicalSimulator::new(&p, config);
    for model in models() {
        for seed in 0..2 {
            let packed = sim.simulate(&inputs, model, seed);
            let mut rt = RoundtripChannel::new(4, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt);
            match (packed, unpacked) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.transcript(), b.transcript());
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(a.err(), b.err(), "error mismatch over {model}"),
            }
        }
    }
}

#[test]
fn owned_rounds_scheme_matches_roundtrip() {
    let p = RollCall::new(8);
    let inputs = [true, false, true, true, false, false, true, false];
    let config = SimulatorConfig::builder(8)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = OwnedRoundsSimulator::new(&p, config);
    for model in models() {
        for seed in 0..2 {
            let packed = sim.simulate(&inputs, model, seed);
            let mut rt = RoundtripChannel::new(8, model, seed);
            let unpacked = sim.simulate_over(&inputs, model, &mut rt);
            match (packed, unpacked) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.transcript(), b.transcript());
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(a.err(), b.err(), "error mismatch over {model}"),
            }
        }
    }
}

/// Transposition proof for the lane-sliced repetition engine: a 64-lane
/// batch must be bitwise equal, trial by trial, to the scalar
/// specification in every regime.
#[test]
fn repetition_batch_matches_per_trial() {
    let p = InputSet::new(5);
    let inputs = [2, 9, 0, 0, 4];
    let config = SimulatorConfig::builder(5)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = RepetitionSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..9).map(|i| i * 1_000_003 + 17).collect();
    for model in models() {
        assert_eq!(batch_matches_spec(&sim, &inputs, model, &seeds), 0);
    }
}

/// Transposition proof for the rewind batch path, including the
/// `BudgetExhausted` error path (transcripts, stats, and errors must all
/// be bitwise equal to the scalar specification, trial by trial).
#[test]
fn rewind_batch_matches_per_trial() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let config = SimulatorConfig::builder(4)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = RewindSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..9).map(|i| i * 6_700_417 + 3).collect();
    for model in models() {
        batch_matches_spec(&sim, &inputs, model, &seeds);
    }
}

/// A rewind batch under a starved budget must reproduce the scalar
/// specification's `BudgetExhausted` errors exactly (rounds and
/// committed count).
#[test]
fn rewind_batch_matches_per_trial_when_budget_starved() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let config = SimulatorConfig::builder(4)
        .model(NoiseModel::Correlated { epsilon: 0.2 })
        .budget_factor(1.0)
        .build();
    let sim = RewindSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..16).collect();
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let exhausted = batch_matches_spec(&sim, &inputs, model, &seeds);
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// Degenerate party counts: a single party (every delivery word is all
/// tail) and 65 parties (one bit past a word boundary, so the packed
/// path straddles two words). The rewind scheme must stay bitwise
/// identical between the packed and roundtrip representations at both,
/// in every noise regime.
#[test]
fn degenerate_party_counts_match_roundtrip() {
    for n in [1usize, 65] {
        let p = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|i| (7 * i + 1) % (2 * n)).collect();
        let config = SimulatorConfig::builder(n)
            .model(NoiseModel::Correlated { epsilon: 0.1 })
            .build();
        let sim = RewindSimulator::new(&p, config);
        for model in models() {
            for seed in 0..2 {
                let packed = sim.simulate(&inputs, model, seed);
                let mut rt = RoundtripChannel::new(n, model, seed);
                let unpacked = sim.simulate_over(&inputs, model, &mut rt);
                match (packed, unpacked) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.transcript(), b.transcript(), "n={n} {model} seed {seed}");
                        assert_eq!(a.outputs(), b.outputs());
                        assert_eq!(a.stats(), b.stats());
                    }
                    (a, b) => assert_eq!(
                        a.err(),
                        b.err(),
                        "error mismatch n={n} over {model} seed {seed}"
                    ),
                }
            }
        }
    }
}

/// Sparse flip lists and forced-dense rows are two encodings of the
/// same delivery: round by round they must compare equal (the semantic
/// `Delivery` equality) in every regime and at the degenerate party
/// counts. The saturated case drives noise hard enough that rounds
/// where *every* party's bit flips occur, forcing the sparse→dense
/// fallback — both encodings must agree through the crossover too.
#[test]
fn sparse_and_forced_dense_deliveries_agree_across_regimes() {
    let mut cases = models();
    cases.push(NoiseModel::Independent { epsilon: 0.97 });
    for n in [1usize, 65] {
        for &model in &cases {
            let mut sparse = StochasticChannel::new(n, model, 0xD15E);
            let mut dense = StochasticChannel::new(n, model, 0xD15E);
            dense.set_dense_deliveries(true);
            let mut fallbacks = 0usize;
            let mut all_flipped = 0usize;
            for round in 0..400 {
                let or = round % 3 == 0;
                let a = sparse.transmit(or);
                let b = dense.transmit(or);
                assert_eq!(a, b, "n={n} round {round} over {model}");
                if let Delivery::PerParty(_) = a {
                    fallbacks += 1;
                }
                if (0..n).all(|i| a.heard_by(i) != or) {
                    all_flipped += 1;
                }
            }
            if n == 65 && matches!(model, NoiseModel::Independent { epsilon } if epsilon > 0.5) {
                assert!(
                    fallbacks > 0,
                    "saturated noise never tripped the dense fallback"
                );
                assert!(
                    all_flipped > 0,
                    "saturated noise never flipped all parties in one round"
                );
            }
        }
    }
}

/// Windowed committed-transcript retention is a pure memory
/// optimization: sweeping the verification window from its minimum to
/// effectively unbounded must not move a bit of any collapsed scheme's
/// transcript, outputs, or stats relative to the default window, in any
/// regime.
#[test]
fn windowed_retention_matches_full_for_every_scheme() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let owned_p = RollCall::new(8);
    let owned_inputs = [true, false, true, true, false, false, true, false];
    let config = |window: Option<usize>| {
        let mut b = SimulatorConfig::builder(4).model(NoiseModel::Correlated { epsilon: 0.1 });
        if let Some(w) = window {
            b = b.verify_window(w);
        }
        b.build()
    };
    for model in models() {
        for seed in 0..2 {
            let reference = RewindSimulator::new(&p, config(None)).simulate(&inputs, model, seed);
            let hier_ref =
                HierarchicalSimulator::new(&p, config(None)).simulate(&inputs, model, seed);
            for window in [1usize, 2, usize::MAX] {
                let windowed =
                    RewindSimulator::new(&p, config(Some(window))).simulate(&inputs, model, seed);
                match (&reference, &windowed) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.transcript(),
                            b.transcript(),
                            "rewind window {window} over {model} seed {seed}"
                        );
                        assert_eq!(a.outputs(), b.outputs());
                        assert_eq!(a.stats(), b.stats());
                    }
                    (a, b) => assert_eq!(a.is_err(), b.is_err(), "window {window} over {model}"),
                }
                let hier = HierarchicalSimulator::new(&p, config(Some(window)))
                    .simulate(&inputs, model, seed);
                match (&hier_ref, &hier) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.transcript(),
                            b.transcript(),
                            "hierarchical window {window} over {model} seed {seed}"
                        );
                        assert_eq!(a.stats(), b.stats());
                    }
                    (a, b) => assert_eq!(a.is_err(), b.is_err(), "window {window} over {model}"),
                }
            }
            let owned_config = |window: Option<usize>| {
                let mut b =
                    SimulatorConfig::builder(8).model(NoiseModel::Correlated { epsilon: 0.1 });
                if let Some(w) = window {
                    b = b.verify_window(w);
                }
                b.build()
            };
            let owned_ref = OwnedRoundsSimulator::new(&owned_p, owned_config(None)).simulate(
                &owned_inputs,
                model,
                seed,
            );
            for window in [1usize, usize::MAX] {
                let owned = OwnedRoundsSimulator::new(&owned_p, owned_config(Some(window)))
                    .simulate(&owned_inputs, model, seed);
                match (&owned_ref, &owned) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.transcript(),
                            b.transcript(),
                            "owned_rounds window {window} over {model} seed {seed}"
                        );
                        assert_eq!(a.stats(), b.stats());
                    }
                    (a, b) => assert_eq!(a.is_err(), b.is_err(), "window {window} over {model}"),
                }
            }
        }
    }
}

/// A starved budget must exhaust at the identical round regardless of
/// the retention window: `BudgetExhausted { rounds_used, committed }`
/// is part of the bitwise contract, and rematerializing evicted window
/// entries must not perturb it.
#[test]
fn windowed_retention_matches_full_when_budget_starved() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let config = |window: Option<usize>| {
        let mut b = SimulatorConfig::builder(4).model(model).budget_factor(1.0);
        if let Some(w) = window {
            b = b.verify_window(w);
        }
        b.build()
    };
    let mut exhausted = 0usize;
    for seed in 0..16 {
        let reference = RewindSimulator::new(&p, config(None)).simulate(&inputs, model, seed);
        if reference.is_err() {
            exhausted += 1;
        }
        for window in [1usize, usize::MAX] {
            let windowed =
                RewindSimulator::new(&p, config(Some(window))).simulate(&inputs, model, seed);
            match (&reference, &windowed) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.transcript(),
                        b.transcript(),
                        "window {window} seed {seed}"
                    );
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(
                    a.as_ref().err(),
                    b.as_ref().err(),
                    "budget error mismatch window {window} seed {seed}"
                ),
            }
        }
    }
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// Transposition proof for the hierarchical batch path: a batch must be
/// bitwise equal, trial by trial, to the scalar specification in every
/// regime (independent noise falls back to the per-seed loop, which
/// must be equally invisible).
#[test]
fn hierarchical_batch_matches_per_trial() {
    let p = InputSet::new(4);
    let inputs = [1, 6, 6, 3];
    let config = SimulatorConfig::builder(4)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = HierarchicalSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..9).map(|i| i * 999_983 + 29).collect();
    for model in models() {
        batch_matches_spec(&sim, &inputs, model, &seeds);
    }
}

/// A hierarchical batch under a starved budget must reproduce the
/// scalar specification's `BudgetExhausted` errors exactly (rounds and
/// committed count).
#[test]
fn hierarchical_batch_matches_per_trial_when_budget_starved() {
    let p = InputSet::new(8);
    let inputs = [1, 5, 5, 2, 9, 0, 12, 3];
    let model = NoiseModel::Correlated { epsilon: 0.2 };
    let config = SimulatorConfig::builder(8)
        .model(model)
        .budget_factor(0.5)
        .build();
    let sim = HierarchicalSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..32).collect();
    let exhausted = batch_matches_spec(&sim, &inputs, model, &seeds);
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// Transposition proof for the owned-rounds batch path across every
/// regime (shared regimes ride the lane channel, independent noise the
/// per-seed fallback — both must match the scalar specification).
#[test]
fn owned_rounds_batch_matches_per_trial() {
    let p = RollCall::new(8);
    let inputs = [true, false, true, true, false, false, true, false];
    let config = SimulatorConfig::builder(8)
        .model(NoiseModel::Correlated { epsilon: 0.1 })
        .build();
    let sim = OwnedRoundsSimulator::new(&p, config);
    let seeds: Vec<u64> = (0..9).map(|i| i * 104_729 + 7).collect();
    for model in models() {
        batch_matches_spec(&sim, &inputs, model, &seeds);
    }
}

/// Transposition proof for the one-to-zero batch path. The sweep
/// includes the regimes the scheme rejects: those must surface the
/// identical `UnsupportedNoise` error from the batch path. (An accepted
/// regime with an invalid ε, which the lane channel refuses, is a row
/// of `partial_final_lane_group_matches_per_trial`.)
#[test]
fn one_to_zero_batch_matches_per_trial() {
    let p = InputSet::new(5);
    let inputs = [2, 8, 8, 1, 0];
    let sim = OneToZeroSimulator::new(&p, 2, 32.0);
    let seeds: Vec<u64> = (0..9).map(|i| i * 15_485_863 + 11).collect();
    for model in models() {
        batch_matches_spec(&sim, &inputs, model, &seeds);
    }
}

/// A one-to-zero batch at the minimum legal budget under heavy erasure
/// must reproduce the scalar specification's `BudgetExhausted` errors
/// exactly.
#[test]
fn one_to_zero_batch_matches_per_trial_when_budget_starved() {
    let p = InputSet::new(5);
    let inputs = [2, 8, 8, 1, 0];
    let sim = OneToZeroSimulator::new(&p, 2, 2.0);
    let model = NoiseModel::OneSidedOneToZero { epsilon: 0.45 };
    let seeds: Vec<u64> = (0..24).collect();
    let exhausted = batch_matches_spec(&sim, &inputs, model, &seeds);
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// Routing edge cases of every scheme's `simulate_batch`, one row per
/// scheme: an empty seed slice gives an empty batch; an invalid ε gives
/// exactly `simulate`'s per-seed `UnsupportedNoise` errors (no channel
/// can be built for it, so `simulate` is the reference here); and 65
/// seeds (one full lane group plus a single-lane remainder) match the
/// scalar specification seed by seed.
#[test]
fn partial_final_lane_group_matches_per_trial() {
    fn edge_cases<I, O: PartialEq + std::fmt::Debug>(
        sim: &dyn Simulator<I, O>,
        inputs: &[I],
        model: NoiseModel,
        invalid: NoiseModel,
    ) {
        let name = sim.name();
        assert!(sim.simulate_batch(inputs, model, &[]).is_empty(), "{name}");
        let seeds: Vec<u64> = (0..65).map(|i| i * 2_097_593 + 41).collect();
        let batch = sim.simulate_batch(inputs, invalid, &seeds);
        assert_eq!(batch.len(), seeds.len(), "{name} over {invalid}");
        for (&seed, sliced) in seeds.iter().zip(batch) {
            let scalar = sim.simulate(inputs, invalid, seed);
            assert!(
                matches!(scalar, Err(SimError::UnsupportedNoise { .. })),
                "{name} accepted {invalid}"
            );
            assert_eq!(sliced, scalar, "{name} over {invalid} seed {seed}");
        }
        batch_matches_spec(sim, inputs, model, &seeds);
    }

    let set = InputSet::new(5);
    let set_inputs = [2, 9, 0, 0, 4];
    let roll = RollCall::new(5);
    let roll_inputs = [true, false, true, false, false];
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let invalid = NoiseModel::Correlated { epsilon: 1.5 };
    let down = NoiseModel::OneSidedOneToZero { epsilon: 0.2 };
    let invalid_down = NoiseModel::OneSidedOneToZero { epsilon: 1.5 };
    let config = SimulatorConfig::builder(5).model(model).build();
    let rep = RepetitionSimulator::new(&set, config.clone());
    let rewind = RewindSimulator::new(&set, config.clone());
    let hier = HierarchicalSimulator::new(&set, config.clone());
    let otz = OneToZeroSimulator::new(&set, 2, 32.0);
    let owned = OwnedRoundsSimulator::new(&roll, config);
    type SetSim<'a> = &'a dyn Simulator<usize, std::collections::BTreeSet<usize>>;
    let set_rows: [(SetSim<'_>, NoiseModel, NoiseModel); 4] = [
        (&rep, model, invalid),
        (&rewind, model, invalid),
        (&hier, model, invalid),
        (&otz, down, invalid_down),
    ];
    for (sim, model, invalid) in set_rows {
        edge_cases(sim, &set_inputs, model, invalid);
    }
    edge_cases(&owned, &roll_inputs, model, invalid);
}

/// Independent noise through the repetition lane engine at the
/// degenerate party counts: one party (a delivery word that is all
/// tail) and 65 parties (the flip calendar straddles a word boundary).
/// Both must stay bitwise identical to the scalar specification.
#[test]
fn independent_repetition_batch_matches_at_degenerate_party_counts() {
    let model = NoiseModel::Independent { epsilon: 0.05 };
    for n in [1usize, 65] {
        let p = InputSet::new(n);
        let inputs: Vec<usize> = (0..n).map(|i| (7 * i + 1) % (2 * n)).collect();
        let config = SimulatorConfig::builder(n).model(model).build();
        let sim = RepetitionSimulator::new(&p, config);
        let seeds: Vec<u64> = (0..6).map(|i| i * 32_452_843 + 13).collect();
        assert_eq!(batch_matches_spec(&sim, &inputs, model, &seeds), 0);
    }
}

#[test]
fn one_to_zero_scheme_matches_roundtrip() {
    let p = InputSet::new(5);
    let inputs = [2, 8, 8, 1, 0];
    let sim = OneToZeroSimulator::new(&p, 2, 32.0);
    let model = NoiseModel::OneSidedOneToZero { epsilon: 1.0 / 3.0 };
    for seed in 0..4 {
        let packed = sim.simulate(&inputs, model, seed);
        let mut rt = RoundtripChannel::new(5, model, seed);
        let unpacked = sim.simulate_over(&inputs, model, &mut rt);
        match (packed, unpacked) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.transcript(), b.transcript());
                assert_eq!(a.outputs(), b.outputs());
                assert_eq!(a.stats(), b.stats());
            }
            (a, b) => assert_eq!(a.err(), b.err(), "error mismatch seed {seed}"),
        }
    }
}

// --- Independent noise: the consensus engines against the scalar
// specification. `simulate` runs the collapsed body over the consensus
// backend and replays on the scalar engine when a party would have
// decoded differently; either way its result must be bitwise
// `simulate_over` on a fresh `StochasticChannel` with the same seed.

/// Deterministic per-seed inputs in `0..domain` for `n` parties.
fn seeded_inputs(n: usize, domain: usize, seed: u64) -> Vec<usize> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % domain as u64) as usize
        })
        .collect()
}

/// Counts `sim.<scheme>.replay` marks fired on this thread.
#[derive(Default)]
struct ReplayCounter {
    replays: std::sync::atomic::AtomicUsize,
}

impl beeps_observe::Observer for ReplayCounter {
    fn on_mark(&self, _worker: usize, name: &'static str, _at: u64) {
        if name.ends_with(".replay") {
            self.replays
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }
}

/// Runs `run` with a [`ReplayCounter`] installed on this thread and
/// returns how many trials replayed.
fn count_replays(run: impl FnOnce()) -> usize {
    let counter = std::sync::Arc::new(ReplayCounter::default());
    {
        let _guard = beeps_observe::install(
            std::sync::Arc::clone(&counter) as std::sync::Arc<dyn beeps_observe::Observer>,
            0,
        );
        run();
    }
    counter.replays.load(std::sync::atomic::Ordering::SeqCst)
}

/// Asserts one consensus trial equals its scalar replay; returns
/// whether it ended in an error (`BudgetExhausted`).
fn same_result<O: PartialEq + std::fmt::Debug>(
    label: &str,
    fast: Result<SimOutcome<O>, SimError>,
    slow: Result<SimOutcome<O>, SimError>,
) -> bool {
    assert_eq!(fast, slow, "{label}");
    fast.is_err()
}

/// The three consensus cells under one config: rewind and hierarchical
/// on `MultiOr(n, 5)` (each party beeps a round with probability about
/// `1/n`, so both ORs occur), owned rounds on `RollCall(n)`, each
/// compared with `simulate_over` on a fresh channel for every seed.
/// Returns the number of replayed and of budget-exhausted trials.
fn consensus_cells_match_scalar(
    n: usize,
    model: NoiseModel,
    config: &SimulatorConfig,
    seeds: std::ops::Range<u64>,
) -> (usize, usize) {
    let rounds = 5;
    let multi = MultiOr::new(n, rounds);
    let roll = RollCall::new(n);
    let rewind = RewindSimulator::new(&multi, config.clone());
    let hier = HierarchicalSimulator::new(&multi, config.clone());
    let owned = OwnedRoundsSimulator::new(&roll, config.clone());
    let mut exhausted = 0usize;
    let replays = count_replays(|| {
        for seed in seeds {
            let draws = seeded_inputs(n * rounds, 2 * n, seed);
            let inputs: Vec<Vec<bool>> = draws
                .chunks(rounds)
                .map(|party| party.iter().map(|&x| x < 2).collect())
                .collect();
            let roll_inputs: Vec<bool> = draws.iter().take(n).map(|&x| x % 2 == 0).collect();
            let fresh = || StochasticChannel::new(n, model, seed);
            let label = |scheme: &str| format!("{scheme} n={n} {model} seed {seed}");
            let errs = [
                same_result(
                    &label("rewind"),
                    rewind.simulate(&inputs, model, seed),
                    rewind.simulate_over(&inputs, model, &mut fresh()),
                ),
                same_result(
                    &label("hierarchical"),
                    hier.simulate(&inputs, model, seed),
                    hier.simulate_over(&inputs, model, &mut fresh()),
                ),
                same_result(
                    &label("owned_rounds"),
                    owned.simulate(&roll_inputs, model, seed),
                    owned.simulate_over(&roll_inputs, model, &mut fresh()),
                ),
            ];
            exhausted += errs.iter().filter(|&&e| e).count();
        }
    });
    (replays, exhausted)
}

/// A compact config for the sweeps: short chunks, votes and codewords
/// keep the scalar replays affordable at `n = 65` while every phase,
/// tail chunks and rewinds included, still runs.
fn compact_config(n: usize, model: NoiseModel) -> SimulatorConfig {
    let mut config = SimulatorConfig::builder(n).model(model).build();
    config.chunk_len = 4;
    config.repetitions = 9;
    config.verify_repetitions = 9;
    config.code_len = 12;
    config.budget_factor = 1.2;
    config
}

/// One cell of the sweep: 256 seeds of all three schemes.
fn sweep(n: usize, epsilon: f64) {
    let model = NoiseModel::Independent { epsilon };
    consensus_cells_match_scalar(n, model, &compact_config(n, model), 0..256);
}

// The sweep: every party count the packed paths special-case (one
// party, two, one word, one bit past a word) at a light, the
// benchmark's, and a heavy noise rate.
#[test]
fn consensus_engines_match_scalar_up_to_one_word_of_parties() {
    for n in [1, 2, 32] {
        for epsilon in [0.01, 0.1, 0.25] {
            sweep(n, epsilon);
        }
    }
}

#[test]
fn consensus_engines_match_scalar_past_a_word_at_light_noise() {
    sweep(65, 0.01);
}

#[test]
fn consensus_engines_match_scalar_past_a_word_at_benchmark_noise() {
    sweep(65, 0.1);
}

#[test]
fn consensus_engines_match_scalar_past_a_word_at_heavy_noise() {
    sweep(65, 0.25);
}

/// The benchmark's cell: the default config at `n = 32`, `ε = 0.1`.
#[test]
fn consensus_engines_match_scalar_at_the_default_config() {
    let n = 32;
    let model = NoiseModel::Independent { epsilon: 0.1 };
    let config = SimulatorConfig::builder(n).model(model).build();
    consensus_cells_match_scalar(n, model, &config, 0..16);
}

/// A starved budget: `BudgetExhausted { rounds_used, committed }` must
/// come out of the consensus engine exactly as out of the scalar one.
#[test]
fn consensus_engines_match_scalar_when_budget_starved() {
    let n = 8;
    let model = NoiseModel::Independent { epsilon: 0.05 };
    let mut config = compact_config(n, model);
    config.budget_factor = 1.0;
    let (_, exhausted) = consensus_cells_match_scalar(n, model, &config, 0..256);
    assert!(exhausted > 0, "starved budget never exhausted: weak test");
}

/// Single-round votes at `ε = 0.3` over 32 parties: some party misreads
/// the first chunk round in every trial, so every trial replays — and
/// still equals the scalar run.
#[test]
fn consensus_engines_replay_every_trial_when_divergence_is_certain() {
    let n = 32;
    let model = NoiseModel::Independent { epsilon: 0.3 };
    let mut config = compact_config(n, model);
    config.repetitions = 1;
    config.verify_repetitions = 1;
    let trials = 32;
    let (replays, _) = consensus_cells_match_scalar(n, model, &config, 0..trials);
    assert_eq!(
        replays,
        3 * trials as usize,
        "every trial of every scheme replays"
    );
}

/// A constant-weight code knows no decoding radius, so the backend
/// decodes every flipped party's word.
#[test]
fn consensus_engines_match_scalar_with_a_constant_weight_code() {
    let n = 32;
    let model = NoiseModel::Independent { epsilon: 0.05 };
    let mut config = compact_config(n, model);
    config.code_weight = Some(4);
    let trials = 256;
    let (replays, _) = consensus_cells_match_scalar(n, model, &config, 0..trials);
    assert!(
        0 < replays && replays < 3 * trials as usize,
        "{replays} replays: both paths must run"
    );
}

/// The reproducer of the hierarchical `boundary - 1` underflow: noise
/// flagged a check vote at boundary 0 with no chunk committed. Both
/// entry points now keep 0 chunks there, agree, and do not panic.
#[test]
fn hierarchical_flagged_boundary_zero_keeps_zero_chunks() {
    let p = InputSet::new(32);
    let model = NoiseModel::Independent { epsilon: 0.1 };
    let config = SimulatorConfig::builder(32).model(model).build();
    let sim = HierarchicalSimulator::new(&p, config);
    let seed = 0x5165_43be_1bc4_b66a;
    let inputs = [
        30, 3, 62, 26, 48, 17, 34, 41, 56, 60, 14, 33, 0, 48, 17, 62, 39, 62, 49, 38, 63, 43, 37,
        54, 16, 9, 28, 53, 6, 30, 43, 8,
    ];
    let fast = sim.simulate(&inputs, model, seed);
    let slow = sim.simulate_over(&inputs, model, &mut StochasticChannel::new(32, model, seed));
    assert_eq!(fast, slow);
}

/// The span API the consensus backend draws through reproduces
/// `StochasticChannel::transmit` flip for flip — spans crossing the
/// 64-round mask-block boundary and the corrupted-round count included.
#[test]
fn span_flips_match_scalar_transmit_round_for_round() {
    let model = NoiseModel::Independent { epsilon: 0.1 };
    for n in [1usize, 32, 65] {
        for seed in 0..8u64 {
            let mut lanes = IndependentLaneChannel::new(n, model, &[seed]).expect("independent");
            let mut scalar = StochasticChannel::new(n, model, seed);
            for span in [5u64, 62, 1, 130, 64, 63, 2] {
                let (counts, events) = lanes.span_flip_events(0, span);
                let mut want_events = Vec::new();
                let mut want_counts = vec![0u32; n];
                for round in 0..span {
                    let or = round % 3 == 0;
                    let delivery = scalar.transmit(or);
                    for (p, count) in want_counts.iter_mut().enumerate() {
                        if delivery.heard_by(p) != or {
                            want_events.push((round as u32, p as u32));
                            *count += 1;
                        }
                    }
                }
                assert_eq!(events, &want_events[..], "n={n} seed {seed} span {span}");
                let want_counts: Vec<(u32, u32)> = (0..n as u32)
                    .zip(want_counts)
                    .filter(|&(_, f)| f > 0)
                    .collect();
                assert_eq!(counts, &want_counts[..], "n={n} seed {seed} span {span}");
                assert_eq!(lanes.corrupted(0), scalar.corrupted_rounds() as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every error of weight at most the decoding radius (below
    /// `d_min / 2`) decodes to the sent symbol — the fact that lets the
    /// consensus backend skip those parties' decodes.
    #[test]
    fn errors_within_the_radius_decode_to_the_sent_symbol(
        n in 1usize..70,
        symbol_seed in 0usize..1_000,
        positions in proptest::collection::vec(0usize..10_000, 0..12),
    ) {
        let config = SimulatorConfig::builder(n)
            .model(NoiseModel::Independent { epsilon: 0.1 })
            .build();
        let code = config.build_code();
        let radius = code.unique_decoding_radius().expect("random codes know their radius");
        let symbol = symbol_seed % code.alphabet_size();
        let mut word = code.encode_packed(symbol);
        let mut flipped = std::collections::BTreeSet::new();
        for &p in &positions {
            if flipped.len() < radius as usize && flipped.insert(p % word.len()) {
                word.flip(p % word.len());
            }
        }
        prop_assert_eq!(code.decode_packed(&word, BitMetric::Hamming), symbol);
    }
}
