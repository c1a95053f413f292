//! `samo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last line of stdout;
//! without `--workload` it runs the whole set (see `README.md`).

use samo_benchmark::{runner, suite};
use std::process::ExitCode;

const USAGE: &str = "usage: samo-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--check-repeat]";

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = suite::DEFAULT_SECONDS;
    let mut traced = false;
    let mut check_repeat = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let parsed = match flag.as_str() {
            "--workload" => value().map(|v| workload = Some(v)),
            "--seed" => value().and_then(|v| {
                v.parse()
                    .map(|v| seed = v)
                    .map_err(|e| format!("--seed {v}: {e}"))
            }),
            "--seconds" => value().and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => {
                    seconds = s;
                    Ok(())
                }
                _ => Err(format!("--seconds {v}: want a number in (0, 600]")),
            }),
            "--trace" => value().and_then(|v| match v.as_str() {
                "0" | "1" => {
                    traced = v == "1";
                    Ok(())
                }
                _ => Err(format!("--trace {v}: want 0 or 1")),
            }),
            "--check-repeat" => {
                check_repeat = true;
                Ok(())
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("samo-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    match workload {
        Some(name) => runner::run_one(&name, seed, seconds, traced),
        None => suite::run(seed, seconds, check_repeat),
    }
}
