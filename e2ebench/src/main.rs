//! Command-line front end; see the library docs and README.md.

use std::process::ExitCode;

use beeps_e2ebench::{details_json, end_to_end, host_cores, per_layer, result_json, run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <shared_mc|independent_mc|lane_batch|scale> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workers = args.workload.workers();
    if workers > host_cores() {
        eprintln!(
            "e2ebench: {} needs {workers} worker threads but this host has {} cores; \
             refusing to oversubscribe",
            args.workload.name(),
            host_cores()
        );
        return ExitCode::from(2);
    }
    let result = run(&args);
    let metrics = if args.trace {
        per_layer(&result)
    } else {
        end_to_end(&result)
    };
    for m in &metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", details_json(&args, &result).render());
    println!("{}", result_json(&result, &metrics).render());
    ExitCode::SUCCESS
}
