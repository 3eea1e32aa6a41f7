//! `cfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint and notes, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when
//! an operation failed a check, 2 on a usage error.

use cfbench::{host_fingerprint, run, Params, Size, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Params, String> {
    let mut p = Params {
        workload: Workload::BtreeRemote,
        seed: cfbench::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        size: Size::FULL,
        trace_dir: Some(".bench_trace".into()),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                p.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                p.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {value:?}: want 0..=3600"))?
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    p.workload = workload.ok_or("--workload is required")?;
    Ok(p)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfbench: {e}");
            eprintln!("usage: cfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_fingerprint());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        p.workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace)
    );
    let r = run(&p);
    for n in &r.notes {
        println!("# {n}");
    }
    for (name, v, unit) in &r.metrics {
        println!("# {name} = {v} {unit}");
    }
    println!("{}", r.result_json());
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
