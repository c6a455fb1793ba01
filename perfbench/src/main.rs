//! Command line of the repository benchmark:
//!
//! ```text
//! perfbench --workload <search_cold|serve_interactive|serve_ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (value, unit, sample count), then the result
//! as one JSON object on the last line of standard output.

use charles_perfbench::{host, run, Params, Workload};
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let params = Params::new(workload, seed, seconds, trace);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Before any thread starts, so that every thread inherits both.
    let steady_malloc = host::steady_malloc();
    let cpu = host::pin_to_one_cpu();
    println!(
        "perfbench workload={} seed={seed} seconds={seconds} trace={} rows={} \
         search_threads=1 cpus={} pinned_cpu={} steady_malloc={steady_malloc}",
        workload.name(),
        u8::from(trace),
        params.rows,
        cpus,
        cpu.map_or("none".to_string(), |c| c.to_string()),
    );
    let outcome = run(&params);
    for line in outcome.human_lines() {
        println!("{line}");
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
