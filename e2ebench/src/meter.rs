//! The timed loop shared by every workload, and the per-cell helpers
//! that drive the repository's public trial APIs through it.
//!
//! A *cell* is one (protocol, scheme, noise model) combination; a
//! *batch* runs every cell of a workload once. Batch `b` draws its trial
//! seeds from `trial_seed(trial_seed(seed, c), b)`, where `c` is the
//! cell for a lane estimate and 0 for a Monte Carlo mix (whose schemes
//! share each trial's seed), so a run is a pure function of the
//! workload seed up to how many batches fit in the time budget.
//! Simulated metrics and the registry digest are taken over the first
//! [`Plan::prefix_batches`] batches only, which every run completes, so
//! they repeat exactly for a seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use beeps_bench::{metrics_json, trial_seed, Trial, TrialRunner};
use beeps_channel::{run_noiseless, NoiseModel, Protocol, StochasticChannel};
use beeps_core::{record_simulation, CodeCache, SimError, SimOutcome, Simulator};
use beeps_metrics::{MetricsRegistry, Stopwatch};
use rand::rngs::StdRng;

use crate::stats::fnv1a_hex;
use crate::trace::{Tally, TimedChannel};

/// Simulated (seed-deterministic) totals of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Trials run.
    pub trials: u64,
    /// Trials that returned an outcome.
    pub completed: u64,
    /// Completed trials whose transcript equals `run_noiseless`.
    pub exact: u64,
    /// Trials that ran out of round budget (a simulated outcome).
    pub budget_exhausted: u64,
    /// Channel rounds: `SimStats::channel_rounds`, or `rounds_used` for
    /// a budget-exhausted trial.
    pub channel_rounds: u64,
    /// Noiseless protocol rounds the trials simulate.
    pub protocol_rounds: u64,
    /// Σ per-trial overhead over completed trials.
    pub overhead_sum: f64,
    /// Phase breakdown of completed trials' channel rounds.
    pub chunk: u64,
    /// Owners-phase rounds.
    pub owners: u64,
    /// Verification rounds.
    pub verify: u64,
    /// Rewinds.
    pub rewinds: u64,
    /// Chunks committed.
    pub committed: u64,
    /// Rounds in which noise corrupted at least one party's bit.
    pub corrupted: u64,
    /// Trials that panicked or returned an `UnsupportedNoise` (every cell
    /// runs a regime its scheme supports).
    pub failed: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.trials += other.trials;
        self.completed += other.completed;
        self.exact += other.exact;
        self.budget_exhausted += other.budget_exhausted;
        self.channel_rounds += other.channel_rounds;
        self.protocol_rounds += other.protocol_rounds;
        self.overhead_sum += other.overhead_sum;
        self.chunk += other.chunk;
        self.owners += other.owners;
        self.verify += other.verify;
        self.rewinds += other.rewinds;
        self.committed += other.committed;
        self.corrupted += other.corrupted;
        self.failed += other.failed;
    }

    /// Sum over cells.
    #[must_use]
    pub fn total(cells: &[Counts]) -> Counts {
        let mut t = Counts::default();
        for c in cells {
            t.add(c);
        }
        t
    }
}

/// What the layer budget needs to know about a cell.
#[derive(Clone)]
pub struct CellInfo {
    /// Parties.
    pub n: usize,
    /// Noise model the cell runs under.
    pub model: NoiseModel,
    /// The owners-phase code, with its length and decoding metric, for
    /// schemes that have an owners phase.
    pub code: Option<(beeps_core::owners::SharedCode, beeps_ecc::BitMetric)>,
    /// Codeword decodes per owners iteration: 1 for the collapsed and
    /// lane engines (one shared decode), `n` for the per-party scalar
    /// engines.
    pub decoders: u64,
    /// The cell runs on the 64-lane engines (budget its channel with the
    /// lane channels' per-trial-round costs).
    pub lanes: bool,
    /// Channel rounds per simulated round in the chunk and verification
    /// phases (the config's repetitions; 1 without a config).
    pub span: usize,
}

impl CellInfo {
    /// Owners-phase codeword decodes implied by `counts`.
    #[must_use]
    pub fn decodes(&self, counts: &Counts) -> u64 {
        match &self.code {
            Some((code, _)) => counts.owners / code.codeword_len() as u64 * self.decoders,
            None => 0,
        }
    }
}

/// Fixed sizes of a workload's loop.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Trials per runner call.
    pub trials_per_call: usize,
    /// Batches every run completes; simulated metrics cover these.
    pub prefix_batches: usize,
    /// Batches whose first trial of each cell is re-run through the
    /// scalar specification path.
    pub spec_batches: usize,
    /// Latency samples per tail window; fixes the tail percentile.
    pub tail_window: usize,
}

/// One timed phase of a run (untraced, or traced with a [`Tally`]).
pub struct Meter {
    plan: Plan,
    seed: u64,
    deadline_ns: u64,
    runner: TrialRunner,
    tally: Option<Arc<Tally>>,
    batch: usize,
    /// Σ wall of timed work, nanoseconds.
    pub wall_ns: u64,
    /// Worker-time capacity of the timed work (wall × workers), ns.
    pub capacity_ns: u64,
    /// Per-unit latencies, nanoseconds.
    pub latencies: Vec<u64>,
    /// Per-cell totals over the whole phase.
    pub cells: Vec<Counts>,
    /// Per-cell totals over the prefix.
    pub prefix: Vec<Counts>,
    /// Trials attempted (all cells, all batches).
    pub attempted: u64,
    /// Trials that panicked, returned an unexpected `UnsupportedNoise`,
    /// or diverged from the scalar specification path.
    pub failed: u64,
    /// Of those, trials that diverged from the specification path.
    pub diverged: u64,
    /// Trials re-run through the scalar specification path.
    pub spec_checked: u64,
    registry: MetricsRegistry,
    /// Digest of the deterministic registry section after the prefix.
    pub digest: String,
    /// `CodeCache` hits during the prefix.
    pub prefix_cache_hits: u64,
}

impl Meter {
    /// A phase of `seconds` over `cells` cells on `workers` workers,
    /// traced when `tally` is set (the tally is also attached to the
    /// runner as its observer).
    #[must_use]
    pub fn new(
        plan: Plan,
        seed: u64,
        seconds: f64,
        cells: usize,
        workers: usize,
        tally: Option<Arc<Tally>>,
    ) -> Self {
        let mut runner = TrialRunner::new(workers);
        if let Some(t) = &tally {
            runner = runner.with_observer(Arc::clone(t) as Arc<dyn beeps_observe::Observer>);
        }
        Self {
            plan,
            seed,
            deadline_ns: (seconds * 1e9) as u64,
            runner,
            tally,
            batch: 0,
            wall_ns: 0,
            capacity_ns: 0,
            latencies: Vec::new(),
            cells: vec![Counts::default(); cells],
            prefix: vec![Counts::default(); cells],
            attempted: 0,
            failed: 0,
            spec_checked: 0,
            diverged: 0,
            registry: MetricsRegistry::new(),
            digest: String::new(),
            prefix_cache_hits: 0,
        }
    }

    /// The trace accumulators, when this phase is traced.
    #[must_use]
    pub fn tally(&self) -> Option<&Tally> {
        self.tally.as_deref()
    }

    /// The latency summary of the phase.
    #[must_use]
    pub fn latency(&self) -> Option<crate::stats::Latency> {
        crate::stats::latency(&self.latencies, self.plan.tail_window)
    }

    /// Batches completed.
    #[must_use]
    pub fn batches(&self) -> usize {
        self.batch
    }

    /// Whether the phase has spent its time budget and completed its
    /// prefix.
    #[must_use]
    pub fn done(&self) -> bool {
        self.wall_ns >= self.deadline_ns && self.batch >= self.plan.prefix_batches
    }

    /// Runs one batch through `batch`, counting `cache`'s hits during
    /// prefix batches and digesting the registry once the prefix is
    /// complete.
    pub fn step(&mut self, batch: &mut impl FnMut(&mut Meter), cache: &CodeCache) {
        let hits = cache.hits();
        batch(self);
        if self.in_prefix() {
            self.prefix_cache_hits += cache.hits() - hits;
        }
        self.batch += 1;
        if self.batch == self.plan.prefix_batches {
            self.digest = fnv1a_hex(metrics_json(&self.registry).render().as_bytes());
        }
    }

    fn base_seed(&self, cell: usize) -> u64 {
        trial_seed(trial_seed(self.seed, cell as u64), self.batch as u64)
    }

    fn in_prefix(&self) -> bool {
        self.batch < self.plan.prefix_batches
    }

    fn spec_due(&self) -> bool {
        self.batch < self.plan.spec_batches
    }

    /// Times `f` as a runner call of `trials` trials of `cells` schemes
    /// on `workers` workers; a panic that escapes the call fails them all.
    fn timed<R>(
        &mut self,
        trials: usize,
        cells: usize,
        workers: usize,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        let sw = Stopwatch::start();
        let out = catch_unwind(AssertUnwindSafe(f));
        let ns = sw.elapsed().as_nanos() as u64;
        self.wall_ns += ns;
        self.capacity_ns += ns * workers as u64;
        if let Some(t) = self.tally() {
            t.runner_wall.add(ns);
            t.runner_capacity.add(ns * workers as u64);
        }
        self.attempted += (trials * cells) as u64;
        if out.is_err() {
            self.failed += (trials * cells) as u64;
        }
        out.ok()
    }

    /// Folds the runner call's registry into the phase registry, timed
    /// as part of the traffic (experiment binaries merge per sweep
    /// point the same way).
    fn merge(&mut self, m: &MetricsRegistry) {
        let sw = Stopwatch::start();
        self.registry.merge_from(m);
        let ns = sw.elapsed().as_nanos() as u64;
        self.wall_ns += ns;
        self.capacity_ns += ns * self.runner.threads() as u64;
        if let Some(t) = self.tally() {
            t.metrics.add(ns);
        }
    }

    /// Folds one result (`None`: the simulation panicked) into the
    /// cell's totals.
    fn record<O>(
        &mut self,
        cell: usize,
        result: Option<&Result<SimOutcome<O>, SimError>>,
        truth: &[bool],
    ) {
        let mut c = Counts {
            trials: 1,
            protocol_rounds: truth.len() as u64,
            ..Counts::default()
        };
        match result {
            None | Some(Err(SimError::UnsupportedNoise { .. })) => {
                c.failed = 1;
                self.failed += 1;
            }
            Some(Ok(out)) => {
                let s = out.stats();
                c.completed = 1;
                c.exact = u64::from(out.transcript() == truth);
                c.channel_rounds = s.channel_rounds as u64;
                c.overhead_sum = s.overhead();
                c.chunk = s.phase_rounds.chunk as u64;
                c.owners = s.phase_rounds.owners as u64;
                c.verify = s.phase_rounds.verify as u64;
                c.rewinds = s.rewinds as u64;
                c.committed = s.chunks_committed as u64;
                c.corrupted = s.corrupted_rounds as u64;
            }
            Some(Err(SimError::BudgetExhausted { rounds_used, .. })) => {
                c.budget_exhausted = 1;
                c.channel_rounds = *rounds_used as u64;
            }
        }
        self.cells[cell].add(&c);
        if self.in_prefix() {
            self.prefix[cell].add(&c);
        }
    }

    /// Re-runs one trial through the scalar specification path
    /// (`simulate_over` on a fresh `StochasticChannel`, bypassing the
    /// collapsed and lane front doors) and counts a bitwise divergence
    /// of transcript, outputs, statistics or error as failed.
    fn spec_check<I, O, S>(
        &mut self,
        sim: &S,
        inputs: &[I],
        model: NoiseModel,
        seed: u64,
        got: &Result<SimOutcome<O>, SimError>,
    ) where
        O: PartialEq,
        S: Simulator<I, O> + ?Sized,
    {
        let mut channel = StochasticChannel::new(inputs.len(), model, seed);
        let spec = catch_unwind(AssertUnwindSafe(|| {
            sim.simulate_over(inputs, model, &mut channel)
        }));
        self.spec_checked += 1;
        if !spec.as_ref().is_ok_and(|spec| spec == got) {
            self.failed += 1;
            self.diverged += 1;
        }
    }
}

/// Inputs for one trial of a protocol.
pub type GenInputs<P> = fn(&P, &mut StdRng) -> Vec<<P as Protocol>::Input>;

/// A scheme of a mix, with the noise model it runs under.
pub type Scheme<'a, P> = (
    &'a (dyn Simulator<<P as Protocol>::Input, <P as Protocol>::Output> + Sync),
    NoiseModel,
);

/// One protocol of a Monte Carlo mix and the schemes that simulate it
/// on the same input draw and trial seed (a paired comparison, as the
/// ablation experiments run it).
pub struct Group<'a, P: Protocol> {
    protocol: &'a P,
    gen: GenInputs<P>,
    stream: u64,
    schemes: Vec<Scheme<'a, P>>,
    wall_keys: Vec<String>,
}

impl<'a, P: Protocol> Group<'a, P> {
    /// Draws inputs with `gen` from sub-stream `stream` of each trial.
    pub fn new(
        protocol: &'a P,
        gen: GenInputs<P>,
        stream: u64,
        schemes: Vec<Scheme<'a, P>>,
    ) -> Self {
        let wall_keys = schemes
            .iter()
            .map(|(sim, _)| format!("sim.{}.simulate", sim.name()))
            .collect();
        Self {
            protocol,
            gen,
            stream,
            schemes,
            wall_keys,
        }
    }
}

/// A protocol group with its types erased, so one trial closure can run
/// a whole mix.
pub trait Draw: Sync {
    /// Runs one trial of every scheme in the group: inputs and
    /// `run_noiseless`, then each scheme. Untraced, each scheme runs
    /// through `simulate_with_metrics`; traced, input generation plus
    /// `run_noiseless`, the simulation and `record_simulation` are timed
    /// apart, and under non-shared noise the scheme's own scalar path
    /// (`simulate_over` a fresh `StochasticChannel`, which is what
    /// `simulate` does there) runs through a timing channel.
    fn run<'s>(
        &'s self,
        trial: Trial,
        metrics: &mut MetricsRegistry,
        tally: Option<&Tally>,
    ) -> Box<dyn Drawn + Send + 's>;

    /// Schemes (cells) in the group.
    fn cells(&self) -> usize;
}

/// One trial's results of a group, checked outside the timed region.
pub trait Drawn {
    /// Folds the results into cells `first..`, and re-runs them through
    /// the specification path when `spec_seed` is set.
    fn check(&self, m: &mut Meter, first: usize, spec_seed: Option<u64>);
}

struct GroupOut<'a, P: Protocol> {
    group: &'a Group<'a, P>,
    inputs: Vec<P::Input>,
    truth: Vec<bool>,
    /// `None` where the simulation panicked.
    results: Vec<Option<Result<SimOutcome<P::Output>, SimError>>>,
}

impl<P> Draw for Group<'_, P>
where
    P: Protocol + Sync,
    P::Input: Send + Sync,
    P::Output: Send + PartialEq,
{
    fn run<'s>(
        &'s self,
        trial: Trial,
        metrics: &mut MetricsRegistry,
        tally: Option<&Tally>,
    ) -> Box<dyn Drawn + Send + 's> {
        let sw = Stopwatch::start();
        let inputs = (self.gen)(self.protocol, &mut trial.sub_rng(self.stream));
        let truth = run_noiseless(self.protocol, &inputs).into_parts().0;
        if let Some(t) = tally {
            t.protocols.add_since(&sw);
        }
        let results = self
            .schemes
            .iter()
            .zip(&self.wall_keys)
            .map(|(&(sim, model), wall_key)| {
                catch_unwind(AssertUnwindSafe(|| {
                    let Some(t) = tally else {
                        return sim.simulate_with_metrics(&inputs, model, trial.seed, metrics);
                    };
                    let s = Stopwatch::start();
                    let result = if model.is_shared() {
                        sim.simulate(&inputs, model, trial.seed)
                    } else {
                        let n = self.protocol.num_parties();
                        let mut ch =
                            TimedChannel::new(StochasticChannel::new(n, model, trial.seed));
                        let r = sim.simulate_over(&inputs, model, &mut ch);
                        ch.flush(t);
                        r
                    };
                    let elapsed = s.elapsed();
                    t.simulate.add(elapsed.as_nanos() as u64);
                    let r = Stopwatch::start();
                    record_simulation(sim.name(), &result, metrics);
                    metrics.record_wall(wall_key, elapsed);
                    t.metrics.add_since(&r);
                    result
                }))
                .ok()
            })
            .collect();
        Box::new(GroupOut {
            group: self,
            inputs,
            truth,
            results,
        })
    }

    fn cells(&self) -> usize {
        self.schemes.len()
    }
}

impl<P> Drawn for GroupOut<'_, P>
where
    P: Protocol,
    P::Output: PartialEq,
{
    fn check(&self, m: &mut Meter, first: usize, spec_seed: Option<u64>) {
        for (k, result) in self.results.iter().enumerate() {
            m.record(first + k, result.as_ref(), &self.truth);
            if let (Some(seed), Some(result)) = (spec_seed, result) {
                let (sim, model) = self.group.schemes[k];
                m.spec_check(sim, &self.inputs, model, seed, result);
            }
        }
    }
}

/// One batch of a Monte Carlo mix through `TrialRunner::run_with_metrics`:
/// each trial draws every group's inputs and runs every scheme on them,
/// like the experiment binaries' trial closures. The latency unit is one
/// such trial of the whole mix.
pub fn mc_batch(m: &mut Meter, groups: &[&dyn Draw]) {
    let trials = m.plan.trials_per_call;
    let base = m.base_seed(0);
    let tally = m.tally.clone();
    let runner = m.runner.clone();
    let closure = |trial: Trial, metrics: &mut MetricsRegistry| {
        let sw = Stopwatch::start();
        let drawn: Vec<_> = groups
            .iter()
            .map(|g| g.run(trial, metrics, tally.as_deref()))
            .collect();
        let ns = sw.elapsed().as_nanos() as u64;
        if let Some(t) = tally.as_deref() {
            t.runner_busy.add(ns);
        }
        (ns, drawn)
    };
    let Some((outs, registry)) = m.timed(trials, cells(groups), 1, || {
        runner.run_with_metrics(base, trials, closure)
    }) else {
        return;
    };
    m.merge(&registry);
    let spec = m.spec_due();
    for (i, (ns, drawn)) in outs.iter().enumerate() {
        m.latencies.push(*ns);
        let seed = (spec && i == 0).then(|| Trial::new(base, i).seed);
        let mut first = 0;
        for (g, d) in groups.iter().zip(drawn) {
            d.check(m, first, seed);
            first += g.cells();
        }
    }
}

fn cells(groups: &[&dyn Draw]) -> usize {
    groups.iter().map(|g| g.cells()).sum()
}

/// A fixed input with its noiseless reference transcript.
pub struct Fixed<I> {
    /// The parties' inputs.
    pub inputs: Vec<I>,
    /// `run_noiseless` on them.
    pub truth: Vec<bool>,
}

/// One fixed-input failure-rate estimate of one scheme: a
/// `TrialRunner::run_simulations_with_metrics` call of
/// [`Plan::trials_per_call`] trials. Traced, the scheme is wrapped so
/// each worker's `simulate_batch` call is timed. Returns the call's
/// wall time in nanoseconds (0 if it panicked).
pub fn lane_call<I, O, S>(
    m: &mut Meter,
    cell: usize,
    f: usize,
    sim: &S,
    model: NoiseModel,
    input: &Fixed<I>,
) -> u64
where
    I: Sync,
    O: Send + PartialEq,
    S: Simulator<I, O> + Sync,
{
    let trials = m.plan.trials_per_call;
    let runner = m.runner.clone();
    let workers = runner.threads();
    let tally = m.tally.clone();
    let base = trial_seed(m.base_seed(cell), f as u64);
    let sw = Stopwatch::start();
    let call = m.timed(trials, 1, workers, || match tally.as_deref() {
        None => runner.run_simulations_with_metrics(base, trials, sim, &input.inputs, model),
        Some(t) => {
            let timed = crate::trace::TimedSim::new(sim, t);
            runner.run_simulations_with_metrics(base, trials, &timed, &input.inputs, model)
        }
    });
    let Some((results, registry)) = call else {
        return 0;
    };
    m.merge(&registry);
    let ns = sw.elapsed().as_nanos() as u64;
    for result in &results {
        m.record(cell, Some(result), &input.truth);
    }
    if m.spec_due() {
        let j = (m.batch + f) % trials;
        let seed = trial_seed(base, j as u64);
        m.spec_check(sim, &input.inputs, model, seed, &results[j]);
    }
    ns
}

/// What a scale trial hands back to the checks.
struct TrialOut<O> {
    ns: u64,
    truth: Vec<bool>,
    /// `None` where the simulation panicked.
    result: Option<Result<SimOutcome<O>, SimError>>,
}

/// One batch of the scale cell: `TrialRunner::run_with_scratch` with a
/// per-worker `SoaScratch`, each trial drawing the broadcaster's value,
/// running the noiseless reference and `simulate_with_scratch`.
///
/// No trial is re-run through the specification path here: the
/// per-party scalar engine grows quadratically in n (about 335 s for
/// one trial at n = 10⁴ on a 2-core x86-64 host), so one re-run at 10⁵
/// parties would take hours.
pub fn scale_cell<P>(
    m: &mut Meter,
    protocol: &P,
    sim: &beeps_core::RewindSimulator<'_, P>,
    model: NoiseModel,
    gen: GenInputs<P>,
) where
    P: Protocol + Sync,
    P::Input: Send + Sync,
    P::Output: Send + PartialEq,
{
    let trials = m.plan.trials_per_call;
    let base = m.base_seed(0);
    let tally = m.tally.clone();
    let runner = m.runner.clone();
    let closure = |trial: Trial, scratch: &mut beeps_core::SoaScratch| {
        let sw = Stopwatch::start();
        let inputs = gen(protocol, &mut trial.sub_rng(0));
        let truth = run_noiseless(protocol, &inputs).into_parts().0;
        if let Some(t) = tally.as_deref() {
            t.protocols.add_since(&sw);
        }
        let s = Stopwatch::start();
        let result = catch_unwind(AssertUnwindSafe(|| {
            sim.simulate_with_scratch(&inputs, model, trial.seed, scratch)
        }))
        .ok();
        let ns = sw.elapsed().as_nanos() as u64;
        if let Some(t) = tally.as_deref() {
            t.simulate.add_since(&s);
            t.runner_busy.add(ns);
        }
        TrialOut { ns, truth, result }
    };
    let Some(outs) = m.timed(trials, 1, 1, || {
        runner.run_with_scratch(base, trials, beeps_core::SoaScratch::default, closure)
    }) else {
        return;
    };
    let mut metrics = MetricsRegistry::new();
    let sw = Stopwatch::start();
    for result in outs.iter().filter_map(|out| out.result.as_ref()) {
        record_simulation(sim.name(), result, &mut metrics);
    }
    let ns = sw.elapsed().as_nanos() as u64;
    m.wall_ns += ns;
    m.capacity_ns += ns;
    if let Some(t) = m.tally() {
        t.metrics.add(ns);
    }
    m.merge(&metrics);
    for out in &outs {
        m.latencies.push(out.ns);
        m.record(0, out.result.as_ref(), &out.truth);
    }
}
