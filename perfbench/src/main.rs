//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--repeat <n>]
//! ```
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--repeat n` (or `--workload all`) each workload runs `n` times
//! with the same seed, each time in a fresh process, and the table shows
//! the median and quartiles; the JSON carries medians.
//! Exits with 1 when a correctness check fails and 2 on bad arguments.

use std::process::ExitCode;
use xlsm_perfbench::report::{end_to_end, per_layer};
use xlsm_perfbench::stats::{median, quartiles};
use xlsm_perfbench::workloads::{self, Workload};

const USAGE: &str = "usage: perfbench --workload <name|all> --seed <n> --seconds <s> \
                     --trace <0|1> [--repeat <n>]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) = (None, None, None, None, 1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected a number in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--repeat" => {
                repeat = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        workloads::all()
    } else {
        vec![workloads::by_name(&workload).ok_or_else(|| {
            let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
            format!("unknown workload {workload:?}; expected one of {names:?} or \"all\"")
        })?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        repeat,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = if args.repeat == 1 && args.workloads.len() == 1 {
        single(&args)
    } else {
        repeated(&args)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of one workload, in this process.
fn single(args: &Args) -> bool {
    let w = &args.workloads[0];
    let r = if args.trace {
        per_layer(w, args.seed, args.seconds)
    } else {
        end_to_end(w, args.seed, args.seconds)
    };
    println!(
        "workload {} (seed {}, {} s, trace {}): {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.samples
    );
    for m in &r.metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for v in &r.violations {
        println!("  CHECK FAILED: {v}");
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    r.correct()
}

/// The parts of a single run's result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Parses the result line [`single`] prints.
fn parse_result(line: &str) -> Option<RunResult> {
    let number_after = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest[..rest.find(',')?].trim().parse().ok()
    };
    let mut metrics = Vec::new();
    let mut chunks = line.split("{\"value\": ");
    let mut before = chunks.next()?;
    for chunk in chunks {
        let name = before.rsplit('"').nth(1)?.to_owned();
        let value = chunk[..chunk.find(',')?].trim().parse().ok()?;
        let unit = chunk
            .split("\"unit\": \"")
            .nth(1)?
            .split('"')
            .next()?
            .to_owned();
        metrics.push((name, value, unit));
        before = chunk;
    }
    Some(RunResult {
        correct: line.contains("\"correct\": true"),
        attempted: number_after("\"attempted\":")?,
        failed: number_after("\"failed\":")?,
        metrics,
    })
}

/// `--repeat` and `--workload all`: runs each workload `repeat` times, each
/// run in a fresh process exactly as a single run would be made, and
/// prints the median and quartiles of every metric. The result line
/// carries medians, keyed `<workload>/<metric>` when several workloads ran.
fn repeated(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut json = Vec::new();
    for w in &args.workloads {
        let mut runs = Vec::new();
        for _ in 0..args.repeat {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output()
                .expect("start a benchmark run");
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().last().and_then(parse_result) {
                Some(r) if out.status.success() => runs.push(r),
                _ => {
                    print!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
                    println!("  CHECK FAILED: a run of {} did not complete", w.name);
                    correct = false;
                }
            }
        }
        let Some(first) = runs.first() else { continue };
        println!(
            "workload {} (seed {}, {} s, trace {}): {} runs",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            runs.len()
        );
        for (i, (name, _, unit)) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].1).collect();
            let (mid, (q1, q3)) = (median(&values), quartiles(&values));
            println!("  {name:<34} median {mid:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4} {unit}");
            let key = if args.workloads.len() == 1 {
                name.clone()
            } else {
                format!("{}/{name}", w.name)
            };
            json.push(format!(
                "\"{key}\": {{\"value\": {mid}, \"unit\": \"{unit}\"}}"
            ));
        }
        for r in &runs {
            attempted += r.attempted;
            failed += r.failed;
            correct &= r.correct;
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    correct
}
