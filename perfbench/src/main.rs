//! Wall-clock benchmark of the fault-tolerant sort simulator, end to end
//! and layer by layer. See README.md for the workloads and metrics.
//!
//! ```text
//! ftsort-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of stdout is the result object either way.

mod check;
mod e2e;
mod host;
mod report;
mod sorting;
mod traced;
mod workload;

use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_child = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--setup-child" => {
                setup_child = flag == "--setup-child";
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(&name).ok_or(format!(
                    "unknown workload '{name}' (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {v}: expected 0 < s <= 600"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ftsort-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.setup_child {
        return match e2e::setup_child(w, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("setup check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let nproc = host::nproc();
    let probe = host::probe();
    println!(
        "# host: nproc {nproc}, par workers {nproc}, campaign jobs {nproc}, cpu {}, probes: speed {:.3} ms (reference {} ms), lockstep {:.3} ms (reference {} ms)",
        host::cpu(),
        probe.speed * 1e3,
        host::PROBE_REF_S * 1e3,
        probe.lockstep * 1e3,
        host::LOCKSTEP_REF_S * 1e3
    );
    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (metrics, tally) = if args.trace {
        traced::run(w, args.seed, args.seconds)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    println!(
        "# fail_ratio {} ({} of {} operations failed)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    metrics.print(&tally);
    ExitCode::SUCCESS
}
