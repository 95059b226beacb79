//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints its metrics; the last line
//! of standard output is the JSON result. The traced run also writes its
//! folded host-time stacks to `.bench_out/<workload>-seed<n>.folded`.
//! Exits 0 whenever it prints a result (a failed operation shows in the
//! result) and 2 on bad arguments.

use flicker_hostbench::workload::{self, Config, NAMES};
use flicker_hostbench::{report, sys};
use std::process::ExitCode;
use std::time::Instant;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let loadavg_at_start = sys::EnvStamp::loadavg();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        let parsed = match arg.as_str() {
            "--workload" => value().map(|v| workload = Some(v)),
            "--seed" => value().and_then(|v| {
                v.parse::<u64>()
                    .map(|n| seed = Some(n))
                    .map_err(|_| format!("bad seed {v:?}"))
            }),
            "--seconds" => value().and_then(|v| match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => {
                    seconds = Some(s);
                    Ok(())
                }
                _ => Err(format!("bad seconds {v:?}")),
            }),
            "--trace" => value().and_then(|v| {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {v:?}")),
                });
                Ok(())
            }),
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            return usage(&e);
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    if !NAMES.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
    };
    let result = workload::run(&cfg, origin).expect("workload name checked above");
    if trace {
        let path = format!(".bench_out/{}-seed{seed}.folded", result.workload);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, result.spans.folded()));
        match written {
            Ok(()) => eprintln!("wrote host-time folded stacks to {path}"),
            Err(e) => eprintln!("warning: writing {path}: {e}"),
        }
    }
    let env = sys::EnvStamp::read(loadavg_at_start);
    report::print(&result, seed, seconds, trace, &env);
    ExitCode::SUCCESS
}
