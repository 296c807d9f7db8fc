//! Per-phase regression localization between two `BENCH_engines.json`
//! files (written by the `engines_json` binary) — or two
//! `BENCH_sched.json` files (written by `sched_json`), which share the
//! row key and host-matching discipline — or two campaign reports
//! (written by `campaign_json` / `ftsort-campaign`), whose per-cell
//! aggregates map onto the same machinery: each cell becomes a row keyed
//! `(n, r, m, 0, link_model)` whose mean makespan gates as `virtual_us`,
//! mean wait as `wait_total_us`, and whose interpolated
//! p50/p99 makespan and wait-total estimates gate as four extra
//! virtual-time metrics at `--tolerance` (campaign quantities are all
//! deterministic virtual numbers, so the bands are exact). A campaign
//! cell's `runs_failed` surfaces through the `events_dropped` WARNING
//! path: dropped runs mean the aggregates under-count.
//!
//! Rows are matched by `(n, r, m, workers, link_model)` (`workers`
//! defaults to 0 and `link_model` to `uncontended` for older baselines).
//! For each matched row, every phase's virtual time in B is compared
//! against A, and any phase that regressed by more than the tolerance
//! (default 10%) is flagged; the overall `virtual_us` makespan and the
//! `wait_total_us` link-queueing total (contended rows) get the same
//! treatment — both are deterministic virtual quantities (sched rows
//! carry none of these and skip them).
//!
//! Scheduler-health metrics gate like the wall ratios — banded by
//! `--wall-tolerance` plus an absolute epsilon of 0.02 (the metrics are
//! fractions in `[0, 1]`; a pure relative band would make near-zero
//! baselines impossibly strict), and only when both files report the
//! same `host_cores`:
//!
//! - **utilization** must not fall below `old × band − 0.02`;
//! - **barrier_share** must not rise above `old × (2 − band) + 0.02`;
//! - **steal_rate** is printed but never gated — steal volume is load
//!   placement, not health; it legitimately swings with core count and
//!   shard geometry;
//! - **events_dropped** in any B row prints a loud `WARNING` (truncated
//!   telemetry) but never fails the diff — ring capacity is a tuning
//!   knob, not an algorithmic regression.
//!
//! Wall-clock *columns* are printed for context but never flagged — they
//! measure the host, not the algorithm, so CI noise would make them
//! useless as a gate. Wall-clock *ratios* are a different story: the
//! `par_over_seq` speedup is dimensionless (par and seq ran on the same
//! host seconds apart), so it diffs meaningfully across runs. Two gates
//! use it, both banded by `--wall-tolerance` (default 25%):
//!
//! 1. **ratio regression** — B's `par_over_seq` must not fall below A's
//!    by more than the band, per matched row (only checked when both
//!    files report the same `host_cores`; a host change invalidates the
//!    baseline ratio and is reported as a skip, not a failure). Rows
//!    whose seq wall clock is below `--min-ratio-wall` seconds (default
//!    0.05) in either file are reported but not gated — at sub-millisecond
//!    run times the ratio is dominated by scheduler start-up noise and
//!    would make the gate flaky;
//! 2. **crossover** — every B row with `n ≥ 10` and `workers ≥ 2` must
//!    have `par_over_seq ≥ 1 − band` when B ran on a multi-core host
//!    (`host_cores ≥ 2`). On a single-core host the parallel engine
//!    cannot beat the sequential one and the gate is skipped with a
//!    note.
//!
//! The `kernel` section (when both files carry one) gates the same way:
//! each key type's `branchless_over_scalar` and `blocked_over_scalar`
//! speedups are dimensionless same-host ratios, and B's must not fall
//! below A's by more than the wall band. A fabricated kernel slowdown —
//! e.g. editing a baseline's `branchless_s` down — therefore fails the
//! diff, which is exactly what CI's negative self-test does.
//!
//! Exits 0 when nothing regressed, 1 when at least one gate fired, 2 on
//! usage or parse errors — so it can gate CI:
//!
//! ```text
//! cargo run -p ft-bench --release --bin bench_diff -- \
//!     --a BENCH_engines.json --b /tmp/new.json \
//!     [--tolerance 10] [--wall-tolerance 25] [--min-ratio-wall 0.05]
//! ```

use hypercube::obs::json::Json;

/// One `results[]` row, keyed by `(n, r, m, workers, link_model)`.
struct Row {
    n: u64,
    r: u64,
    m: u64,
    /// Par-engine worker count; 0 for pre-multi-core baselines.
    workers: u64,
    /// Link pricing model; `"uncontended"` for pre-contention baselines.
    link_model: String,
    /// Virtual makespan; absent on sched rows.
    virtual_us: Option<f64>,
    /// Total link-queueing wait (µs); absent on sched and old rows.
    wait_total_us: Option<f64>,
    /// `speedups.par_over_seq` when present.
    par_over_seq: Option<f64>,
    /// Scheduler-health fractions (`sched_json` rows): utilization,
    /// steal_rate, barrier_share.
    utilization: Option<f64>,
    steal_rate: Option<f64>,
    barrier_share: Option<f64>,
    /// Profiler ring drops (`sched_json` rows) or failed campaign runs
    /// (campaign cells): nonzero means the row's telemetry under-counts.
    events_dropped: Option<u64>,
    /// True when the row came from a campaign report cell (tailors the
    /// `events_dropped` warning).
    campaign: bool,
    /// Campaign quantile estimates (µs): interpolated p50/p99 of the
    /// cell's makespan and wait-total histograms.
    p50_makespan_us: Option<f64>,
    p99_makespan_us: Option<f64>,
    p50_wait_total_us: Option<f64>,
    p99_wait_total_us: Option<f64>,
    walls: Vec<(String, f64)>,
    phases: Vec<(String, f64)>,
}

/// One `kernel.rows[]` entry: merge-kernel wall clocks and speedups for
/// one key type.
struct KernelRow {
    key_type: String,
    scalar_s: f64,
    branchless_s: f64,
    blocked_s: f64,
    branchless_over_scalar: f64,
    blocked_over_scalar: f64,
}

/// A parsed `BENCH_engines.json`: the rows plus the host the walls were
/// measured on.
struct Bench {
    host_cores: u64,
    /// Workload key type (`key_type` top-level); absent on old files.
    key_type: Option<String>,
    rows: Vec<Row>,
    /// Merge-kernel section; empty on files that predate it.
    kernels: Vec<KernelRow>,
}

fn main() {
    let mut a_path = None;
    let mut b_path = None;
    let mut tolerance = 10.0f64;
    let mut wall_tolerance = 25.0f64;
    let mut min_ratio_wall = 0.05f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--a" => a_path = args.next(),
            "--b" => b_path = args.next(),
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => tolerance = t,
                None => usage("--tolerance needs a percentage, e.g. 10"),
            },
            "--wall-tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => wall_tolerance = t,
                None => usage("--wall-tolerance needs a percentage, e.g. 25"),
            },
            "--min-ratio-wall" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => min_ratio_wall = t,
                None => usage("--min-ratio-wall needs seconds, e.g. 0.05"),
            },
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(a_path), Some(b_path)) = (a_path, b_path) else {
        usage("bench_diff needs --a OLD.json --b NEW.json");
    };
    let a = load(&a_path);
    let b = load(&b_path);

    println!(
        "bench_diff: {a_path} (A, {} cores) vs {b_path} (B, {} cores), \
         tolerance {tolerance}%, wall tolerance {wall_tolerance}%, \
         min ratio wall {min_ratio_wall}s\n",
        a.host_cores, b.host_cores
    );
    let same_host = a.host_cores == b.host_cores;
    if !same_host {
        println!(
            "note: host_cores differ ({} vs {}) — par_over_seq ratio regressions not gated\n",
            a.host_cores, b.host_cores
        );
    }
    if let (Some(ka), Some(kb)) = (&a.key_type, &b.key_type) {
        if ka != kb {
            println!(
                "note: key_type differs ({ka} vs {kb}) — virtual-time comparisons span \
                 different workloads; regenerate one side with a matching --key-type\n"
            );
        }
    }
    let wall_band = 1.0 - wall_tolerance / 100.0;
    let mut regressions = 0usize;
    let mut matched = 0usize;
    for rb in &b.rows {
        let key = |r: &Row| (r.n, r.r, r.m, r.workers, r.link_model.clone());
        let Some(ra) = a.rows.iter().find(|r| key(r) == key(rb)) else {
            println!(
                "n={} r={} m={} workers={} link={}: only in B (no baseline row)",
                rb.n, rb.r, rb.m, rb.workers, rb.link_model
            );
            continue;
        };
        matched += 1;
        println!(
            "n={} r={} m={} workers={} link={}:",
            rb.n, rb.r, rb.m, rb.workers, rb.link_model
        );
        if let (Some(old), Some(new)) = (ra.virtual_us, rb.virtual_us) {
            regressions += diff_metric("virtual_us", old, new, tolerance);
        }
        if let (Some(old), Some(new)) = (ra.wait_total_us, rb.wait_total_us) {
            regressions += diff_metric("wait_total_us", old, new, tolerance);
        }
        // Campaign quantile bands: interpolated p50/p99 estimates are
        // deterministic virtual quantities, gated like any virtual time.
        for (name, old, new) in [
            ("p50_makespan_us", ra.p50_makespan_us, rb.p50_makespan_us),
            ("p99_makespan_us", ra.p99_makespan_us, rb.p99_makespan_us),
            (
                "p50_wait_total_us",
                ra.p50_wait_total_us,
                rb.p50_wait_total_us,
            ),
            (
                "p99_wait_total_us",
                ra.p99_wait_total_us,
                rb.p99_wait_total_us,
            ),
        ] {
            if let (Some(old), Some(new)) = (old, new) {
                regressions += diff_metric(name, old, new, tolerance);
            }
        }
        for (name, old) in &ra.phases {
            match rb.phases.iter().find(|(k, _)| k == name) {
                Some((_, new)) => {
                    regressions += diff_metric(&format!("phase {name}"), *old, *new, tolerance)
                }
                None => println!("  phase {name:<28} dropped in B"),
            }
        }
        if let (Some(old), Some(new)) = (ra.par_over_seq, rb.par_over_seq) {
            let seq_wall = |r: &Row| {
                r.walls
                    .iter()
                    .find(|(k, _)| k == "seq_wall_s")
                    .map_or(0.0, |(_, v)| *v)
            };
            let measurable = seq_wall(ra) >= min_ratio_wall && seq_wall(rb) >= min_ratio_wall;
            let floor = old * wall_band;
            let flag = same_host && measurable && new < floor;
            println!(
                "  {:<34} {:>12.2} x -> {:>12.2} x  (floor {:.2}x){}",
                "par_over_seq",
                old,
                new,
                floor,
                if flag {
                    "  REGRESSION"
                } else if !same_host {
                    "  (informational: host changed)"
                } else if !measurable {
                    "  (informational: walls below min-ratio-wall)"
                } else {
                    ""
                }
            );
            regressions += flag as usize;
        }
        // Scheduler-health gates (sched_json rows). Fractions in [0, 1]:
        // banded relatively like the wall ratios, plus an absolute 0.02
        // epsilon so near-zero baselines don't gate on noise. Host-matched
        // only — utilization measures this machine's scheduler.
        if let (Some(old), Some(new)) = (ra.utilization, rb.utilization) {
            let floor = old * wall_band - 0.02;
            let flag = same_host && new < floor;
            println!(
                "  {:<34} {:>12.3}   -> {:>12.3}    (floor {:.3}){}",
                "utilization",
                old,
                new,
                floor,
                if flag {
                    "  REGRESSION"
                } else if !same_host {
                    "  (informational: host changed)"
                } else {
                    ""
                }
            );
            regressions += flag as usize;
        }
        if let (Some(old), Some(new)) = (ra.barrier_share, rb.barrier_share) {
            let ceiling = old * (2.0 - wall_band) + 0.02;
            let flag = same_host && new > ceiling;
            println!(
                "  {:<34} {:>12.3}   -> {:>12.3}    (ceiling {:.3}){}",
                "barrier_share",
                old,
                new,
                ceiling,
                if flag {
                    "  REGRESSION"
                } else if !same_host {
                    "  (informational: host changed)"
                } else {
                    ""
                }
            );
            regressions += flag as usize;
        }
        if let (Some(old), Some(new)) = (ra.steal_rate, rb.steal_rate) {
            println!(
                "  {:<34} {:>12.3}   -> {:>12.3}    (informational)",
                "steal_rate", old, new
            );
        }
        for (name, old) in &ra.walls {
            if let Some((_, new)) = rb.walls.iter().find(|(k, _)| k == name) {
                let pct = if *old > 0.0 {
                    (new - old) / old * 100.0
                } else {
                    0.0
                };
                println!(
                    "  {name:<34} {old:>12.4} s -> {new:>12.4} s  {pct:>+7.1}%  (informational)"
                );
            }
        }
    }
    for ra in &a.rows {
        if !b.rows.iter().any(|r| {
            (r.n, r.r, r.m, r.workers, &r.link_model)
                == (ra.n, ra.r, ra.m, ra.workers, &ra.link_model)
        }) {
            println!(
                "n={} r={} m={} workers={} link={}: only in A (row dropped in B)",
                ra.n, ra.r, ra.m, ra.workers, ra.link_model
            );
        }
    }
    if matched == 0 {
        eprintln!("\nno rows matched between the two files");
        std::process::exit(2);
    }

    // Profiler ring health: dropped events mean B's scheduler telemetry
    // is truncated and its health fractions under-count. Loud, but never
    // a failure — ring capacity is a tuning knob, not a perf regression.
    for rb in &b.rows {
        if let Some(dropped) = rb.events_dropped.filter(|&d| d > 0) {
            if rb.campaign {
                println!(
                    "WARNING: n={} r={} m={}: campaign dropped {dropped} run(s) — cell \
                     aggregates under-count (runs failed to plan/execute)",
                    rb.n, rb.r, rb.m
                );
            } else {
                println!(
                    "WARNING: n={} r={} m={} workers={}: profiler dropped {dropped} event(s) — \
                     sched telemetry truncated (raise the profiler ring capacity)",
                    rb.n, rb.r, rb.m, rb.workers
                );
            }
        }
    }

    // Kernel gate: merge-kernel speedups are dimensionless same-host
    // ratios (scalar and branchless ran seconds apart on this machine),
    // so they diff like par_over_seq — B must stay within the wall band
    // of A, per key type and per kernel. Raw seconds print for context.
    if !a.kernels.is_empty() && !b.kernels.is_empty() {
        println!("\nkernel (merge, per key type):");
        for kb in &b.kernels {
            let Some(ka) = a.kernels.iter().find(|k| k.key_type == kb.key_type) else {
                println!("  {}: only in B (no baseline kernel row)", kb.key_type);
                continue;
            };
            for (name, old, new) in [
                (
                    "branchless_over_scalar",
                    ka.branchless_over_scalar,
                    kb.branchless_over_scalar,
                ),
                (
                    "blocked_over_scalar",
                    ka.blocked_over_scalar,
                    kb.blocked_over_scalar,
                ),
            ] {
                let floor = old * wall_band;
                let flag = same_host && new < floor;
                println!(
                    "  {:<34} {:>12.2} x -> {:>12.2} x  (floor {:.2}x){}",
                    format!("{} {name}", kb.key_type),
                    old,
                    new,
                    floor,
                    if flag {
                        "  REGRESSION"
                    } else if !same_host {
                        "  (informational: host changed)"
                    } else {
                        ""
                    }
                );
                regressions += flag as usize;
            }
            for (name, old, new) in [
                ("scalar_s", ka.scalar_s, kb.scalar_s),
                ("branchless_s", ka.branchless_s, kb.branchless_s),
                ("blocked_s", ka.blocked_s, kb.blocked_s),
            ] {
                let pct = if old > 0.0 {
                    (new - old) / old * 100.0
                } else {
                    0.0
                };
                println!(
                    "  {:<34} {:>12.6} s -> {:>12.6} s  {:>+7.1}%  (informational)",
                    format!("{} {name}", kb.key_type),
                    old,
                    new,
                    pct
                );
            }
        }
    } else if !b.kernels.is_empty() {
        println!("\nnote: baseline has no kernel section — kernel speedups not gated");
    }

    // Crossover gate: on a multi-core host the work-stealing pool must
    // beat (or at worst tie, within the band) the one-worker seq run on
    // big instances with real parallelism available.
    if b.host_cores >= 2 {
        for rb in &b.rows {
            if rb.n >= 10 && rb.workers >= 2 {
                let Some(ratio) = rb.par_over_seq else {
                    continue;
                };
                if ratio < wall_band {
                    println!(
                        "crossover FAIL: n={} workers={} par_over_seq {:.2}x < {:.2}x \
                         (par must beat seq on {} cores)",
                        rb.n, rb.workers, ratio, wall_band, b.host_cores
                    );
                    regressions += 1;
                } else {
                    println!(
                        "crossover ok: n={} workers={} par_over_seq {:.2}x >= {:.2}x",
                        rb.n, rb.workers, ratio, wall_band
                    );
                }
            }
        }
    } else {
        println!("note: B ran on a single-core host — par-beats-seq crossover gate skipped");
    }

    if regressions > 0 {
        println!("\nFAIL: {regressions} metric(s) regressed past their tolerance");
        std::process::exit(1);
    }
    println!("\nOK: no metric regressed past its tolerance across {matched} matched row(s)");
}

/// Prints one virtual-time metric comparison; returns 1 if it regressed
/// past the tolerance, 0 otherwise.
fn diff_metric(name: &str, old: f64, new: f64, tolerance: f64) -> usize {
    let pct = if old > 0.0 {
        (new - old) / old * 100.0
    } else {
        0.0
    };
    let flag = pct > tolerance;
    println!(
        "  {:<34} {:>12.1} us -> {:>12.1} us  {:>+7.1}%{}",
        name,
        old,
        new,
        pct,
        if flag { "  REGRESSION" } else { "" }
    );
    flag as usize
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: bench_diff --a OLD.json --b NEW.json \
         [--tolerance PCT] [--wall-tolerance PCT] [--min-ratio-wall SECS]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Bench {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        std::process::exit(2);
    });
    parse_bench(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

/// Pulls the `results[]` rows out of a `BENCH_engines.json` document.
/// Tolerates the current multi-core schema (`workers` per row,
/// `host_cores` top-level) and the older single-row-per-n ones, so a new
/// binary can diff against an old baseline.
fn parse_bench(text: &str) -> Result<Bench, String> {
    let doc = Json::parse(text)?;
    if doc.get("cells").is_some() {
        return parse_campaign(&doc);
    }
    let host_cores = doc.get("host_cores").and_then(Json::as_u64).unwrap_or(1);
    let key_type = doc
        .get("key_type")
        .and_then(Json::as_str)
        .map(str::to_string);
    let mut kernels = Vec::new();
    if let Some(Json::Arr(rows)) = doc.get("kernel").and_then(|k| k.get("rows")) {
        for (i, row) in rows.iter().enumerate() {
            let num = |k: &str| -> Result<f64, String> {
                row.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("kernel.rows[{i}]: missing number '{k}'"))
            };
            let speedup = |k: &str| -> Result<f64, String> {
                row.get("speedups")
                    .and_then(|s| s.get(k))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("kernel.rows[{i}]: missing speedup '{k}'"))
            };
            kernels.push(KernelRow {
                key_type: row
                    .get("key_type")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("kernel.rows[{i}]: missing 'key_type'"))?
                    .to_string(),
                scalar_s: num("scalar_s")?,
                branchless_s: num("branchless_s")?,
                blocked_s: num("blocked_s")?,
                branchless_over_scalar: speedup("branchless_over_scalar")?,
                blocked_over_scalar: speedup("blocked_over_scalar")?,
            });
        }
    }
    let Some(Json::Arr(results)) = doc.get("results") else {
        return Err("missing 'results' array — not a BENCH_engines.json file?".into());
    };
    let mut rows = Vec::new();
    for (i, row) in results.iter().enumerate() {
        let int = |k: &str| -> Result<u64, String> {
            row.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("results[{i}]: missing integer '{k}'"))
        };
        let virtual_us = row.get("virtual_us").and_then(Json::as_f64);
        let par_over_seq = row
            .get("speedups")
            .and_then(|s| s.get("par_over_seq"))
            .and_then(Json::as_f64);
        let mut walls = Vec::new();
        if let Json::Obj(fields) = row {
            for (k, v) in fields {
                if k.ends_with("_wall_s") {
                    if let Some(v) = v.as_f64() {
                        walls.push((k.clone(), v));
                    }
                }
            }
        }
        let mut phases = Vec::new();
        if let Some(Json::Obj(fields)) = row.get("phases") {
            for (k, v) in fields {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("results[{i}]: phase '{k}' is not a number"))?;
                phases.push((k.clone(), v));
            }
        }
        rows.push(Row {
            n: int("n")?,
            r: int("r")?,
            m: int("m")?,
            workers: row.get("workers").and_then(Json::as_u64).unwrap_or(0),
            link_model: row
                .get("link_model")
                .and_then(Json::as_str)
                .unwrap_or("uncontended")
                .to_string(),
            virtual_us,
            wait_total_us: row.get("wait_total_us").and_then(Json::as_f64),
            par_over_seq,
            utilization: row.get("utilization").and_then(Json::as_f64),
            steal_rate: row.get("steal_rate").and_then(Json::as_f64),
            barrier_share: row.get("barrier_share").and_then(Json::as_f64),
            events_dropped: row.get("events_dropped").and_then(Json::as_u64),
            campaign: false,
            p50_makespan_us: None,
            p99_makespan_us: None,
            p50_wait_total_us: None,
            p99_wait_total_us: None,
            walls,
            phases,
        });
    }
    Ok(Bench {
        host_cores,
        key_type,
        rows,
        kernels,
    })
}

/// Maps a campaign report (`campaign_json` / `ftsort-campaign --out`) onto
/// the diff machinery: one row per cell, keyed `(n, r, m, 0, link_model)`,
/// with the cell's mean makespan as `virtual_us`, mean wait as
/// `wait_total_us`, the four interpolated quantiles as dedicated metrics
/// and `runs_failed` as `events_dropped`. Campaign quantities are all
/// virtual, so `host_cores` is irrelevant (fixed at 1 on both sides).
fn parse_campaign(doc: &Json) -> Result<Bench, String> {
    let int = |o: &Json, k: &str, ctx: &str| -> Result<u64, String> {
        o.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{ctx}: missing integer '{k}'"))
    };
    let m = int(doc, "m", "campaign report")?;
    let link_model = doc
        .get("link_model")
        .and_then(Json::as_str)
        .unwrap_or("uncontended")
        .to_string();
    let key_type = doc
        .get("key_type")
        .and_then(Json::as_str)
        .map(str::to_string);
    let Some(Json::Arr(cells)) = doc.get("cells") else {
        return Err("campaign report: 'cells' is not an array".into());
    };
    let mut rows = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("cells[{i}]");
        let mean = |metric: &str| -> Option<f64> {
            let agg = cell.get(metric)?;
            let count = agg.get("count").and_then(Json::as_u64)?;
            let sum = agg.get("sum").and_then(Json::as_f64)?;
            if count == 0 {
                Some(0.0)
            } else {
                Some(sum / count as f64)
            }
        };
        rows.push(Row {
            n: int(cell, "n", &ctx)?,
            r: int(cell, "r", &ctx)?,
            m,
            workers: 0,
            link_model: link_model.clone(),
            virtual_us: mean("makespan_us"),
            wait_total_us: mean("wait_total_us"),
            par_over_seq: None,
            utilization: None,
            steal_rate: None,
            barrier_share: None,
            events_dropped: cell.get("runs_failed").and_then(Json::as_u64),
            campaign: true,
            p50_makespan_us: cell.get("p50_makespan_us").and_then(Json::as_f64),
            p99_makespan_us: cell.get("p99_makespan_us").and_then(Json::as_f64),
            p50_wait_total_us: cell.get("p50_wait_total_us").and_then(Json::as_f64),
            p99_wait_total_us: cell.get("p99_wait_total_us").and_then(Json::as_f64),
            walls: Vec::new(),
            phases: Vec::new(),
        });
    }
    Ok(Bench {
        host_cores: 1,
        key_type,
        rows,
        kernels: Vec::new(),
    })
}
