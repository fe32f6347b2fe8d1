//! The benchmark's simulated results are a pure function of the seed:
//! the same at one and two workers, the same with the tracing observer
//! and wrappers attached, and different for a different seed.

use beeps_e2ebench::{correct, workloads, Ctx, Run, Simulated};

/// Long enough for nothing but the fixed prefix.
const SECONDS: f64 = 0.01;

fn ctx(seed: u64, workers: usize, trace: bool) -> Ctx {
    Ctx {
        seed,
        seconds: SECONDS,
        trace,
        workers,
    }
}

type Workload = fn(&Ctx) -> Run;

const ALL: [(&str, Workload); 4] = [
    ("shared_mc", workloads::shared_mc),
    ("independent_mc", workloads::independent_mc),
    ("lane_batch", workloads::lane_batch),
    ("scale", workloads::scale),
];

#[test]
fn simulated_results_do_not_depend_on_the_worker_count() {
    for (name, run) in ALL {
        let one = run(&ctx(7, 1, false));
        let two = run(&ctx(7, 2, false));
        assert!(correct(&one) && correct(&two), "{name}: a check failed");
        assert_eq!(
            Simulated::of(&one.untraced),
            Simulated::of(&two.untraced),
            "{name}: 1 vs 2 workers"
        );
    }
}

#[test]
fn tracing_does_not_move_a_simulated_bit() {
    for (name, run) in ALL {
        let r = run(&ctx(7, 1, true));
        let traced = r.traced.as_ref().expect("a traced phase");
        assert!(traced.tally().is_some());
        assert_eq!(
            Simulated::of(traced),
            Simulated::of(&r.untraced),
            "{name}: traced vs untraced"
        );
        assert!(correct(&r), "{name}: a check failed");
    }
}

#[test]
fn a_different_seed_gives_different_results() {
    for (name, run) in ALL {
        let a = Simulated::of(&run(&ctx(7, 1, false)).untraced);
        let b = Simulated::of(&run(&ctx(8, 1, false)).untraced);
        assert_ne!(a.digest, b.digest, "{name}: seeds 7 and 8");
    }
}
