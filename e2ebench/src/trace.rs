//! Benchmark-side tracing: span accumulators around calls into each
//! layer, an [`Observer`] that sums the phase spans the fast engines
//! already emit, a timing [`Channel`] wrapper, a timing [`Simulator`]
//! wrapper, and the per-op calibrations behind the inner-layer budgets.
//!
//! None of this changes what the engines compute: the wrappers delegate
//! every call unchanged, and the traced run checks that its simulated
//! results and registry digest equal the untraced run's.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use beeps_channel::{
    Channel, Delivery, IndependentLaneChannel, LaneChannel, NoiseModel, StochasticChannel, LANES,
};
use beeps_core::{SimError, SimOutcome, Simulator};
use beeps_ecc::bits::PackedBits;
use beeps_ecc::BitMetric;
use beeps_metrics::Stopwatch;
use beeps_observe::Observer;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A nanosecond (or event) accumulator shared across worker threads.
#[derive(Debug, Default)]
pub struct Acc(AtomicU64);

impl Acc {
    /// Adds `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::AcqRel);
    }

    /// Adds the time elapsed on `sw`, in nanoseconds.
    pub fn add_since(&self, sw: &Stopwatch) {
        self.add(sw.elapsed().as_nanos() as u64);
    }

    /// The accumulated total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// The accumulated total read as nanoseconds, in seconds.
    pub fn secs(&self) -> f64 {
        self.get() as f64 * 1e-9
    }
}

/// Span totals of one traced phase, one accumulator per layer boundary.
#[derive(Debug, Default)]
pub struct Tally {
    /// Σ wall of runner calls.
    pub runner_wall: Acc,
    /// Σ wall × workers of runner calls (worker-time the runner held).
    pub runner_capacity: Acc,
    /// Σ time inside the runner's per-trial closures or batch calls.
    pub runner_busy: Acc,
    /// Input generation and `run_noiseless`.
    pub protocols: Acc,
    /// Calls into `simulate*` / `simulate_batch`.
    pub simulate: Acc,
    /// `record_simulation` and registry merges.
    pub metrics: Acc,
    /// Time inside `Channel::transmit` (timing-channel workloads only).
    pub channel: Acc,
    /// `Channel::transmit` calls seen by the timing channel.
    pub channel_calls: Acc,
    /// Of those, deliveries in sparse form.
    pub sparse: Acc,
    /// `sim.<scheme>.chunk` spans.
    pub chunk: Acc,
    /// `sim.<scheme>.owners` spans.
    pub owners: Acc,
    /// `sim.<scheme>.verify` spans.
    pub verify: Acc,
    /// `runner.merge` spans.
    pub merge: Acc,
}

impl Observer for Tally {
    fn on_phase(&self, _worker: usize, name: &'static str, start_micros: u64, end_micros: u64) {
        let ns = end_micros.saturating_sub(start_micros) * 1000;
        let slot = if name == "runner.merge" {
            &self.merge
        } else if !name.starts_with("sim.") {
            return;
        } else if name.ends_with(".chunk") {
            &self.chunk
        } else if name.ends_with(".owners") {
            &self.owners
        } else if name.ends_with(".verify") {
            &self.verify
        } else {
            return;
        };
        slot.add(ns);
    }
}

/// A [`Channel`] that times every `transmit` of the channel it wraps and
/// counts sparse deliveries; the deliveries themselves pass through
/// untouched.
pub struct TimedChannel<C> {
    inner: C,
    ns: u64,
    calls: u64,
    sparse: u64,
}

impl<C: Channel> TimedChannel<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            ns: 0,
            calls: 0,
            sparse: 0,
        }
    }

    /// Adds this channel's totals to `tally`.
    pub fn flush(&self, tally: &Tally) {
        tally.channel.add(self.ns);
        tally.channel_calls.add(self.calls);
        tally.sparse.add(self.sparse);
    }
}

impl<C: Channel> Channel for TimedChannel<C> {
    fn num_parties(&self) -> usize {
        self.inner.num_parties()
    }

    fn transmit(&mut self, true_or: bool) -> Delivery {
        let sw = Stopwatch::start();
        let delivery = self.inner.transmit(true_or);
        self.ns += sw.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.sparse += u64::from(matches!(delivery, Delivery::Sparse(_)));
        delivery
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn corrupted_rounds(&self) -> usize {
        self.inner.corrupted_rounds()
    }
}

/// A [`Simulator`] that times each `simulate_batch` call of the scheme
/// it wraps (the runner's lane path calls it from every worker). The
/// name is the wrapped scheme's, so the `sim.<name>.*` registry keys are
/// unchanged.
pub struct TimedSim<'a, S: ?Sized> {
    inner: &'a S,
    tally: &'a Tally,
}

impl<'a, S: ?Sized> TimedSim<'a, S> {
    /// Wraps `inner`, reporting into `tally`.
    pub fn new(inner: &'a S, tally: &'a Tally) -> Self {
        Self { inner, tally }
    }
}

impl<I, O, S: Simulator<I, O> + ?Sized> Simulator<I, O> for TimedSim<'_, S> {
    fn simulate(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
    ) -> Result<SimOutcome<O>, SimError> {
        self.inner.simulate(inputs, model, seed)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn simulate_over(
        &self,
        inputs: &[I],
        model: NoiseModel,
        channel: &mut dyn Channel,
    ) -> Result<SimOutcome<O>, SimError> {
        self.inner.simulate_over(inputs, model, channel)
    }

    fn simulate_batch(
        &self,
        inputs: &[I],
        model: NoiseModel,
        seeds: &[u64],
    ) -> Vec<Result<SimOutcome<O>, SimError>> {
        let sw = Stopwatch::start();
        let out = self.inner.simulate_batch(inputs, model, seeds);
        let ns = sw.elapsed().as_nanos() as u64;
        self.tally.simulate.add(ns);
        self.tally.runner_busy.add(ns);
        out
    }
}

/// Channel rounds per calibration sample.
const CAL_ROUNDS: u64 = 2_048;

/// Nanoseconds per round of `StochasticChannel::transmit` at `n`
/// parties under `model`, over an alternating true-OR pattern.
#[must_use]
pub fn transmit_ns(n: usize, model: NoiseModel, seed: u64) -> f64 {
    let mut channel = StochasticChannel::new(n, model, seed);
    let sw = Stopwatch::start();
    for r in 0..CAL_ROUNDS {
        black_box(channel.transmit(black_box(r & 1 == 1)));
    }
    sw.elapsed().as_nanos() as f64 / CAL_ROUNDS as f64
}

/// Nanoseconds per trial-round of the 64-lane channels the lane engines
/// draw from, as `(owners, other)`: owners-phase rounds step one lane at
/// a time (`LaneChannel::step`); chunk and verification rounds come in
/// constant-OR spans of `span` rounds (`LaneChannel::flips_in_span`, or
/// `IndependentLaneChannel::span_flips` under independent noise, where
/// owners rounds are spans of 1).
#[must_use]
pub fn lane_round_ns(n: usize, model: NoiseModel, span: usize, seed: u64) -> (f64, f64) {
    let seeds: Vec<u64> = (0..LANES as u64)
        .map(|l| beeps_bench::trial_seed(seed, l))
        .collect();
    let span = span.max(1) as u64;
    let lane = |k: u64| (k % LANES as u64) as usize;
    let per_round = |ns: u128, rounds: u64| ns as f64 / rounds as f64;
    if let Some(mut ch) = IndependentLaneChannel::new(n, model, &seeds) {
        let mut spans = |len: u64| {
            let count = CAL_ROUNDS / len;
            let sw = Stopwatch::start();
            for k in 0..count {
                black_box(ch.span_flips(lane(k), len).len());
            }
            per_round(sw.elapsed().as_nanos(), count * len)
        };
        return (spans(1), spans(span));
    }
    let Some(mut ch) = LaneChannel::shared(model, &seeds) else {
        return (0.0, 0.0);
    };
    let sw = Stopwatch::start();
    for r in 0..CAL_ROUNDS {
        black_box(ch.step(lane(r), r & 1 == 1));
    }
    let step = per_round(sw.elapsed().as_nanos(), CAL_ROUNDS);
    let count = CAL_ROUNDS / span;
    let sw = Stopwatch::start();
    for k in 0..count {
        black_box(ch.flips_in_span(lane(k), span, k & 1 == 1));
    }
    (step, per_round(sw.elapsed().as_nanos(), count * span))
}

/// Decodes per calibration sample.
const CAL_DECODES: u64 = 256;

/// Nanoseconds per `SymbolCode::decode_packed` of `code` under `metric`,
/// over uniformly random received words.
#[must_use]
pub fn decode_ns(code: &beeps_core::owners::SharedCode, metric: BitMetric, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let words: Vec<PackedBits> = (0..64)
        .map(|_| {
            let mut w = PackedBits::new();
            for _ in 0..code.codeword_len() {
                w.push(rng.gen_bool(0.5));
            }
            w
        })
        .collect();
    let sw = Stopwatch::start();
    for i in 0..CAL_DECODES {
        black_box(code.decode_packed(black_box(&words[i as usize % words.len()]), metric));
    }
    sw.elapsed().as_nanos() as f64 / CAL_DECODES as f64
}
