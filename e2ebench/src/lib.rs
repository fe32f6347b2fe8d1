//! End-to-end Monte Carlo benchmark for the noisy-beeps reproduction,
//! with a traced per-layer time budget.
//!
//! `cargo run --release --manifest-path e2ebench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload in
//! this process and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). README.md holds the metric and workload glossary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod meter;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::sync::Arc;

use beeps_bench::Json;
use beeps_core::CodeCache;
use beeps_metrics::Stopwatch;

use crate::meter::{CellInfo, Counts, Meter, Plan};
use crate::trace::Tally;

/// An untraced run sets up at least `SETUP_MIN_REPS` times and until
/// `SETUP_MIN_S` seconds have gone into set-ups (at most
/// `SETUP_MAX_REPS` times); `setup_s` is the median. Repeating
/// millisecond set-ups for a quarter second keeps the median clear of a
/// cold core at process start.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 201;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-trial random inputs under shared noise (collapsed engines).
    SharedMc,
    /// Per-trial random inputs under independent noise (scalar engines).
    IndependentMc,
    /// Fixed-input estimates through the lane engines on two workers.
    LaneBatch,
    /// One 10⁵-party broadcast per trial (collapsed engine at scale).
    Scale,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::SharedMc,
        Workload::IndependentMc,
        Workload::LaneBatch,
        Workload::Scale,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SharedMc => "shared_mc",
            Workload::IndependentMc => "independent_mc",
            Workload::LaneBatch => "lane_batch",
            Workload::Scale => "scale",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads the workload runs on.
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Workload::LaneBatch => workloads::LANE_WORKERS,
            _ => 1,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input and trial seed derives from.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed flag.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// What a workload needs from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed work (split evenly between the untraced and the
    /// traced phase of a traced run).
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Worker threads of the runner.
    pub workers: usize,
}

impl Ctx {
    /// Runs the set-up `f` (repeatedly on an untraced run) and keeps the
    /// last result with every set-up's duration in seconds.
    pub fn set_up<T>(&self, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
        let mut times = Vec::new();
        loop {
            let sw = Stopwatch::start();
            let ready = f();
            times.push(sw.elapsed().as_secs_f64());
            let more = times.len() < SETUP_MIN_REPS
                || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS);
            if self.trace || !more {
                return (ready, times);
            }
        }
    }
}

/// Everything one workload run measured.
pub struct Run {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Code-table build time inside the last set-up, seconds.
    pub build_s: f64,
    /// Code tables the last set-up's cache built.
    pub builds: u64,
    /// The untraced phase.
    pub untraced: Meter,
    /// The traced phase (traced runs only).
    pub traced: Option<Meter>,
    /// Per-cell budget inputs.
    pub infos: Vec<CellInfo>,
    /// Per cell, the calibrated costs (traced runs only): medians of
    /// samples taken after every traced batch, so they see the same host
    /// as the batches.
    pub calibration: Vec<Cost>,
}

/// Runs the untraced phase and, on a traced run, the traced phase, each
/// from batch 0 so both cover the same prefix. A traced run alternates
/// the two phases batch by batch, so drift in host speed falls on both
/// alike and their difference is the tracing overhead.
#[allow(clippy::too_many_arguments)]
pub fn phases(
    ctx: &Ctx,
    plan: Plan,
    infos: Vec<CellInfo>,
    cache: &CodeCache,
    setup_s: Vec<f64>,
    build_s: f64,
    mut batch: impl FnMut(&mut Meter),
) -> Run {
    let builds = cache.builds();
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let meter = |tally| Meter::new(plan, ctx.seed, seconds, infos.len(), ctx.workers, tally);
    let mut untraced = meter(None);
    let mut traced = ctx.trace.then(|| meter(Some(Arc::new(Tally::default()))));
    let mut samples = vec![Vec::new(); infos.len()];
    while !untraced.done() || traced.as_ref().is_some_and(|t| !t.done()) {
        if !untraced.done() {
            untraced.step(&mut batch, cache);
        }
        if let Some(t) = traced.as_mut().filter(|t| !t.done()) {
            t.step(&mut batch, cache);
            let seed = beeps_bench::trial_seed(ctx.seed ^ 0xCA1, t.batches() as u64);
            for (cell, info) in samples.iter_mut().zip(&infos) {
                cell.push(calibrate(info, seed));
            }
        }
    }
    let calibration = samples
        .iter()
        .map(|s: &Vec<Cost>| {
            let med = |f: fn(&Cost) -> f64| stats::median(&s.iter().map(f).collect::<Vec<_>>());
            Cost {
                owners_ns: med(|c| c.owners_ns),
                other_ns: med(|c| c.other_ns),
                decode_ns: med(|c| c.decode_ns),
            }
        })
        .collect();
    Run {
        setup_s,
        build_s,
        builds,
        untraced,
        traced,
        infos,
        calibration,
    }
}

/// Runs `args.workload`.
#[must_use]
pub fn run(args: &Args) -> Run {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: args.workload.workers(),
    };
    match args.workload {
        Workload::SharedMc => workloads::shared_mc(&ctx),
        Workload::IndependentMc => workloads::independent_mc(&ctx),
        Workload::LaneBatch => workloads::lane_batch(&ctx),
        Workload::Scale => workloads::scale(&ctx),
    }
}

/// Seed-deterministic results of a phase's prefix: what must not move
/// between thread counts, traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    /// Per-cell prefix totals.
    pub cells: Vec<Counts>,
    /// Digest of the deterministic registry section.
    pub digest: String,
    /// Completed prefix trials whose transcript equals `run_noiseless`,
    /// over prefix trials.
    pub exact_rate: f64,
    /// Mean channel rounds / protocol rounds over completed prefix
    /// trials.
    pub mean_overhead: f64,
}

impl Simulated {
    /// The simulated results of `m`'s prefix.
    #[must_use]
    pub fn of(m: &Meter) -> Self {
        let t = Counts::total(&m.prefix);
        Self {
            cells: m.prefix.clone(),
            digest: m.digest.clone(),
            exact_rate: t.exact as f64 / t.trials.max(1) as f64,
            mean_overhead: t.overhead_sum / t.completed.max(1) as f64,
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced phase.
#[must_use]
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let m = &run.untraced;
    let wall = m.wall_ns as f64 * 1e-9;
    let total = Counts::total(&m.cells);
    let lat = m.latency();
    let sim = Simulated::of(m);
    vec![
        metric("trials_per_s", total.trials as f64 / wall, "1/s"),
        metric("rounds_per_s", total.channel_rounds as f64 / wall, "1/s"),
        metric(
            "latency_p50_ms",
            lat.map_or(0.0, |l| l.p50_ns as f64 * 1e-6),
            "ms",
        ),
        metric(
            "latency_tail_ms",
            lat.map_or(0.0, |l| l.tail_ns * 1e-6),
            "ms",
        ),
        metric("setup_s", stats::median(&run.setup_s), "s"),
        metric(
            "peak_rss_mib",
            beeps_observe::clock::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        metric("exact_rate", sim.exact_rate, "share"),
        metric("mean_overhead", sim.mean_overhead, "x"),
    ]
}

/// Calibrated per-op costs of one cell, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Per owners-phase channel round.
    pub owners_ns: f64,
    /// Per other channel round.
    pub other_ns: f64,
    /// Per owners-phase decode (0 without a code).
    pub decode_ns: f64,
}

/// One calibration sample of a cell.
fn calibrate(info: &CellInfo, seed: u64) -> Cost {
    let (owners_ns, other_ns) = if info.lanes {
        trace::lane_round_ns(info.n, info.model, info.span, seed)
    } else {
        let ns = trace::transmit_ns(info.n, info.model, seed);
        (ns, ns)
    };
    let decode_ns = info
        .code
        .as_ref()
        .map_or(0.0, |(code, metric)| trace::decode_ns(code, *metric, seed));
    Cost {
        owners_ns,
        other_ns,
        decode_ns,
    }
}

/// The per-layer metrics of a traced run. Times cover the traced phase;
/// counts cover its prefix, so they repeat exactly for a seed.
///
/// # Panics
///
/// Panics if `run` has no traced phase.
#[must_use]
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let m = run.traced.as_ref().expect("a traced run");
    let t = m.tally().expect("the traced phase carries a tally");
    let cal = &run.calibration;
    let prefix = Counts::total(&m.prefix);
    let wsum = |f: &dyn Fn(usize) -> f64| (0..run.infos.len()).map(f).sum::<f64>();

    let timed_channel = t.channel_calls.get() > 0;
    let (channel_s, transmit_ns) = if timed_channel {
        (
            t.channel.secs(),
            t.channel.get() as f64 / t.channel_calls.get() as f64,
        )
    } else {
        let ns = wsum(&|i| {
            let c = &m.cells[i];
            cal[i].owners_ns * c.owners as f64
                + cal[i].other_ns * (c.channel_rounds - c.owners) as f64
        });
        let rounds = Counts::total(&m.cells).channel_rounds.max(1) as f64;
        (ns * 1e-9, ns / rounds)
    };
    let decodes = |cells: &[Counts], i: usize| run.infos[i].decodes(&cells[i]) as f64;
    let ecc_ns = wsum(&|i| cal[i].decode_ns * decodes(&m.cells, i));
    let phase_decodes = wsum(&|i| decodes(&m.cells, i));
    let decode_ns = if phase_decodes > 0.0 {
        ecc_ns / phase_decodes
    } else {
        0.0
    };
    let ecc_s = ecc_ns * 1e-9;
    let simulate_s = t.simulate.secs();
    let core_s = (simulate_s - channel_s - ecc_s).max(0.0);
    let spans_s = t.chunk.secs() + t.owners.secs() + t.verify.secs();
    let overhead_s = (t.runner_capacity.secs() - t.runner_busy.secs()).max(0.0);
    let capacity_s = m.capacity_ns as f64 * 1e-9;
    let attributed =
        overhead_s + t.protocols.secs() + t.metrics.secs() + core_s + channel_s + ecc_s;
    let per_batch = |p: &Meter| p.wall_ns as f64 / p.batches().max(1) as f64;
    let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    vec![
        metric("runner.wall_s", t.runner_wall.secs(), "s"),
        metric("runner.overhead_s", overhead_s, "s"),
        metric(
            "runner.idle_share",
            share(overhead_s, t.runner_capacity.secs()),
            "share",
        ),
        metric("runner.merge_s", t.merge.secs(), "s"),
        metric("core.busy_s", core_s, "s"),
        metric("core.chunk_s", t.chunk.secs(), "s"),
        metric("core.owners_s", t.owners.secs(), "s"),
        metric("core.verify_s", t.verify.secs(), "s"),
        metric("core.span_share", share(spans_s, simulate_s), "share"),
        metric("core.rounds.chunk", prefix.chunk as f64, "count"),
        metric("core.rounds.owners", prefix.owners as f64, "count"),
        metric("core.rounds.verify", prefix.verify as f64, "count"),
        metric("core.rewinds", prefix.rewinds as f64, "count"),
        metric(
            "core.commit_share",
            share(
                prefix.committed as f64,
                (prefix.committed + prefix.rewinds) as f64,
            ),
            "share",
        ),
        metric("channel.rounds", prefix.channel_rounds as f64, "count"),
        metric("channel.flips", prefix.corrupted as f64, "count"),
        metric("channel.transmit_ns", transmit_ns, "ns"),
        metric("channel.busy_s", channel_s, "s"),
        metric(
            "channel.sparse_share",
            share(t.sparse.get() as f64, t.channel_calls.get() as f64),
            "share",
        ),
        metric("ecc.decode_ns", decode_ns, "ns"),
        metric("ecc.decodes", wsum(&|i| decodes(&m.prefix, i)), "count"),
        metric("ecc.busy_s", ecc_s, "s"),
        metric("ecc.code_builds", run.builds as f64, "count"),
        metric("ecc.cache_hits", m.prefix_cache_hits as f64, "count"),
        metric("ecc.build_s", run.build_s, "s"),
        metric("protocols.busy_s", t.protocols.secs(), "s"),
        metric("protocols.rounds", prefix.protocol_rounds as f64, "count"),
        metric("metrics.busy_s", t.metrics.secs(), "s"),
        metric(
            "unattributed_share",
            share(capacity_s - attributed, capacity_s),
            "share",
        ),
        metric(
            "trace_overhead_share",
            share(per_batch(m), per_batch(&run.untraced)) - 1.0,
            "share",
        ),
    ]
}

/// Whether the outputs the run produced check out: no trial diverged
/// from the scalar specification path and (traced) the traced prefix
/// reproduces the untraced one exactly. Trials that produced no output
/// (a panic) are counted in `failed`, not here.
#[must_use]
pub fn correct(run: &Run) -> bool {
    let phases = std::iter::once(&run.untraced).chain(run.traced.as_ref());
    let clean = phases.clone().all(|m| m.diverged == 0);
    let same = run
        .traced
        .as_ref()
        .is_none_or(|t| Simulated::of(t) == Simulated::of(&run.untraced));
    clean && same
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_json(run: &Run, metrics: &[Metric]) -> Json {
    let phases = std::iter::once(&run.untraced).chain(run.traced.as_ref());
    let attempted: u64 = phases.clone().map(|m| m.attempted).sum();
    let failed: u64 = phases.map(|m| m.failed).sum();
    let mut values = Json::object();
    for m in metrics {
        let mut v = Json::object();
        v.set("value", m.value).set("unit", m.unit);
        values.set(m.name, v);
    }
    let mut out = Json::object();
    out.set("correct", correct(run))
        .set("attempted", attempted.max(1))
        .set("failed", failed)
        .set("metrics", values);
    out
}

/// The commit this tree was checked out at, read from `.git` beside the
/// benchmark's package when present.
#[must_use]
pub fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(name) {
        return id.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical cores this host offers.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Provenance and the details behind the metrics: commit, cores,
/// workers, seed, build profile, latency tail rank and sample counts,
/// the checks made, and the simulated results with their digest.
#[must_use]
pub fn details_json(args: &Args, run: &Run) -> Json {
    let m = &run.untraced;
    let sim = Simulated::of(m);
    let total = Counts::total(&m.cells);
    let mut out = Json::object();
    out.set("workload", args.workload.name())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("commit", commit())
        .set("host_cores", host_cores())
        .set("workers", args.workload.workers())
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set("batches", m.batches())
        .set("trials", total.trials)
        .set("budget_exhausted", total.budget_exhausted)
        .set("failed_share", m.failed as f64 / m.attempted.max(1) as f64)
        .set("spec_checked", m.spec_checked)
        .set("diverged", m.diverged)
        .set("prefix_trials", Counts::total(&m.prefix).trials)
        .set("registry_digest", sim.digest);
    if let Some(l) = m.latency() {
        out.set("latency_samples", l.samples)
            .set("latency_tail_pct", l.tail_pct)
            .set("latency_tail_beyond", l.beyond)
            .set("latency_tail_windows", l.windows);
    }
    out.set("setup_reps", run.setup_s.len());
    if let Some(t) = &run.traced {
        out.set("traced_digest", Simulated::of(t).digest)
            .set("traced_batches", t.batches());
    }
    out
}
