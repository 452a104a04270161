//! `bench_e2e` — how long a whole p²-mdie run takes, and where the time
//! goes.
//!
//! Four workloads drive the product through its public API only; each
//! timing is that of the fastest of many rounds on the workload's fixed
//! input, every output is checked (also on small inputs drawn from the
//! seed), and a separate traced pass measures each layer (crate) from
//! outside. See `README.md` next to this package.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of standard output is the result object
//!   (`BENCHMARK.json` names this as the benchmark command);
//! * no `--workload` — the suite: every workload in a child process of its
//!   own, every metric printed by name (`--aa` runs the set twice and judges
//!   the benchmark against its own bounds, `--quick` is a smoke test).

mod env;
mod json;
mod layers;
mod metrics;
mod procfs;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: bench_e2e [--seed N] [--quick] [--aa]
       bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
       bench_e2e --benchmark-json
workloads: carc-seq, carc-pipe-p2, mesh-pipe-p2-tcp, pyr-svc-tcp";

/// Default seed: the year of the paper.
const DEFAULT_SEED: u64 = 2005;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: bool,
    benchmark_json: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        aa: false,
        benchmark_json: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?;
                out.workload = Some(w);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => out.quick = true,
            "--aa" => out.aa = true,
            "--benchmark-json" => out.benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload.is_none() && (out.seconds.is_some() || out.trace) {
        return Err("--seconds and --trace belong to a single --workload run".to_owned());
    }
    if out.workload.is_some() && out.aa {
        return Err("--aa runs the whole suite; drop --workload".to_owned());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        print!("{}", metrics::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        return suite::run(args.seed, args.quick, args.aa);
    };
    let run_args = run::RunArgs {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(suite::run_seconds(args.quick)),
        trace: args.trace,
        quick: args.quick,
    };
    match run::run(&run_args) {
        Ok(result) => {
            println!("{}", result.render());
            ExitCode::SUCCESS
        }
        // No result line: the driver must not mistake a broken run for a
        // measurement.
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload mesh-pipe-p2-tcp --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::MeshPipeP2Tcp));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), true));
        let a = parse("").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.aa, a.quick),
            (None, DEFAULT_SEED, false, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--trace 1",
            "--seconds 5",
            "--workload carc-seq --aa",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be refused");
        }
    }
}
