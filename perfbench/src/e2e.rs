//! The untraced run: every end-to-end metric of one workload.

use crate::check::{check_campaign, check_sort, SortResult, Tally};
use crate::host;
use crate::report::{median, Metrics};
use crate::sorting::{sort, Attach, Engine, Timed};
use crate::workload::{Instance, Workload};
use ft_bench::campaign::{run_campaign, CampaignOutcome};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Samples each median needs so that ten lie beyond it.
pub const MIN_SORT_SAMPLES: usize = 21;
/// `run_campaign` calls per run at least.
pub const MIN_CAMPAIGN_CALLS: usize = 4;

/// The attachments of the workload's own sort path.
pub fn workload_attach(w: &Workload) -> Attach {
    Attach {
        sink: w.recorder,
        ..Attach::default()
    }
}

/// Sorts `inst` and checks the output against `sort_unstable` and against
/// the seq engine's result `seq` (the sort is its own reference when
/// `seq` is `None`).
pub fn checked_sort(
    tally: &mut Tally,
    inst: &Instance,
    engine: Engine,
    attach: &Attach,
    seq: Option<&SortResult>,
) -> Timed {
    let t = sort(inst, engine, attach);
    let reference = seq.unwrap_or(&t.result);
    tally.record(
        &format!("{engine:?} sort of seed {}", inst.seed),
        check_sort(&inst.expected, reference, &t.result),
    );
    t
}

/// Sorts `inst` on seq streaming a run file, checked against `plain`, the
/// seq result without a sink, on everything but the run file.
pub fn checked_sink_sort(tally: &mut Tally, inst: &Instance, plain: &SortResult) -> SortResult {
    let sink = Attach {
        sink: true,
        ..Attach::default()
    };
    let got = sort(inst, Engine::Seq, &sink).result;
    let reference = SortResult {
        run_file: got.run_file,
        ..plain.clone()
    };
    tally.record(
        "sort streaming a run file",
        check_sort(&inst.expected, &reference, &got),
    );
    got
}

/// One timed, checked `run_campaign` call; `first` is the report JSON of
/// the run's first repetition, which every later one must reproduce.
pub fn checked_campaign(
    tally: &mut Tally,
    w: &Workload,
    seed: u64,
    jobs: usize,
    first: &mut Option<String>,
) -> (CampaignOutcome, f64) {
    let mut cfg = w.campaign(seed, host::nproc());
    cfg.jobs = jobs;
    let start = Instant::now();
    let outcome = run_campaign(&cfg, &mut |_, _| {}).expect("workload campaigns are feasible");
    let wall_s = start.elapsed().as_secs_f64();
    let first = first.get_or_insert_with(|| outcome.report.to_json());
    tally.record(
        &format!("campaign at {jobs} jobs"),
        check_campaign(first, &outcome.report),
    );
    (outcome, wall_s)
}

/// The workload's operation, cold, in a fresh process: what a one-shot
/// `ftsort-cli sort` (or `ftsort-campaign`) user pays. Draws the inputs,
/// runs the operation once and checks it.
pub fn setup_child(w: &Workload, seed: u64) -> Result<(), String> {
    if w.recorder {
        hypercube::obs::metrics::install_global();
    }
    let mut tally = Tally::default();
    if w.is_fleet() {
        checked_campaign(&mut tally, w, seed, host::nproc(), &mut None);
    } else {
        for inst in &w.instances(seed) {
            checked_sort(&mut tally, inst, Engine::Seq, &workload_attach(w), None);
        }
    }
    match tally.failed {
        0 => Ok(()),
        n => Err(format!("{n} checks failed")),
    }
}

/// Probes on each side of a task that its rescaling takes the median of.
const PROBE_WINDOW: usize = 3;
/// Share of the host's CPU time other tenants may take during a
/// measurement before it is discarded and taken again, up to twice the
/// run's seconds. On two cores, one tenant's busy loop takes about half;
/// an undisturbed measurement here sees 0.5–4%.
const INTERFERENCE_MAX: f64 = 0.15;
/// Seq wall one sort sample spans at least. A sample of short sorts is
/// the mean over enough passes that the host's brief stalls average out
/// of it instead of deciding it.
const SAMPLE_MIN_S: f64 = 0.2;

/// One measurement of the interleaved schedule.
enum Task {
    Setup(f64),
    Campaign(f64),
    Sorts(f64, f64),
    /// A measurement other tenants interfered with.
    Discarded,
}

/// Raw samples, each with the index of the task that took it.
#[derive(Default)]
struct Samples {
    raw: Vec<f64>,
    task: Vec<usize>,
}

impl Samples {
    fn push(&mut self, raw: f64, task: usize) {
        self.raw.push(raw);
        self.task.push(task);
    }

    fn len(&self) -> usize {
        self.raw.len()
    }

    /// Every sample times `scale` of its task.
    fn rescaled(&self, scale: impl Fn(usize) -> f64) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.task)
            .map(|(&raw, &task)| raw * scale(task))
            .collect()
    }
}

/// Times one fresh process running [`setup_child`]; a child that fails
/// its check counts as a failed operation.
fn setup_process(tally: &mut Tally, w: &Workload, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let start = Instant::now();
    let status = Command::new(exe)
        .args(["--setup-child", w.name, "--seed", &seed.to_string()])
        .stdout(Stdio::null())
        .status();
    let wall = start.elapsed().as_secs_f64();
    tally.record(
        "setup process",
        match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("exited with {s}")),
            Err(e) => Err(format!("could not start: {e}")),
        },
    );
    wall
}

/// Measures every end-to-end metric of `w` for about `seconds`.
///
/// The three kinds of measurement — sort samples, campaign calls and
/// setup processes — are interleaved over the whole run as tasks, and
/// [`host::probe`] runs before the first task and after each one. A gated
/// wall is rescaled to the reference host, `wall × REF / probe`, so that
/// the host's own speed drift cancels out of the medians; `probe` is the
/// median of the [`PROBE_WINDOW`] probes on each side of the task, which
/// follows drift lasting a few tasks but not one probe's own noise. Par
/// walls, which wait for the slowest core at every round, are rescaled by
/// the lock-step probe; the rest by the speed probe. A measurement during
/// which other tenants took more than [`INTERFERENCE_MAX`] of the host's
/// CPU time is discarded and taken again: a par sort that shares a core
/// with another tenant slows by more than any probe follows.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> (Metrics, Tally) {
    if w.recorder {
        hypercube::obs::metrics::install_global();
    }
    let nproc = host::nproc();
    let mut tally = Tally::default();
    let instances = w.instances(seed);
    let attach = workload_attach(w);
    // Cold seq sorts: the references every later sort must reproduce.
    let refs: Vec<SortResult> = instances
        .iter()
        .map(|inst| checked_sort(&mut tally, inst, Engine::Seq, &attach, None).result)
        .collect();
    for (inst, r) in instances.iter().zip(&refs) {
        checked_sort(&mut tally, inst, Engine::Par(nproc), &attach, Some(r));
    }

    let start = Instant::now();
    let (mut seq_walls, mut par_walls) = (Samples::default(), Samples::default());
    let (mut rates, mut setups) = (Samples::default(), Samples::default());
    let (mut sort_s, mut campaign_s) = (0.0, 0.0);
    let mut first = None;
    let mut virtual_us = None;
    let mut runs_per_call = 0;
    let mut passes = 0;
    let mut interference = Vec::new();
    let mut probes = vec![host::probe()];
    loop {
        let sorts_done = seq_walls.len() >= MIN_SORT_SAMPLES;
        let campaigns_done = rates.len() >= MIN_CAMPAIGN_CALLS;
        let timed_out = start.elapsed().as_secs_f64() >= seconds;
        if sorts_done && campaigns_done && setups.len() >= w.setup_reps && timed_out {
            break;
        }
        let ticks = host::cpu_ticks();
        let task = if setups.len() < w.setup_reps
            && setups.len() * MIN_SORT_SAMPLES <= seq_walls.len() * w.setup_reps
        {
            // Setup processes spread evenly over the first 21 samples.
            Task::Setup(setup_process(&mut tally, w, seed))
        } else if !campaigns_done && (timed_out || sorts_done)
            || !timed_out && campaign_s * w.sort_share < sort_s * (1.0 - w.sort_share)
        {
            // A campaign call whenever the campaign is behind its share of
            // the measuring time.
            let (outcome, wall_s) = checked_campaign(&mut tally, w, seed, nproc, &mut first);
            runs_per_call = outcome.summaries.len();
            let runs = runs_per_call as f64;
            virtual_us.get_or_insert_with(|| {
                outcome.summaries.iter().map(|s| s.makespan_us).sum::<f64>() / runs
            });
            campaign_s += wall_s;
            Task::Campaign(runs / wall_s)
        } else {
            // A sort sample: passes over the workload's instances (one,
            // except on the fleet) until the seq sorts took SAMPLE_MIN_S.
            // Seq and par alternate, swapping which goes first each pass.
            // A sample is the mean wall of one sort.
            let (mut seq, mut par, mut sorts) = (0.0, 0.0, 0);
            while seq < SAMPLE_MIN_S {
                let order = if passes % 2 == 0 {
                    [Engine::Seq, Engine::Par(nproc)]
                } else {
                    [Engine::Par(nproc), Engine::Seq]
                };
                passes += 1;
                for (inst, r) in instances.iter().zip(&refs) {
                    for engine in order {
                        let wall = checked_sort(&mut tally, inst, engine, &attach, Some(r)).wall_s;
                        match engine {
                            Engine::Seq => seq += wall,
                            Engine::Par(_) => par += wall,
                        }
                    }
                }
                sorts += instances.len();
            }
            sort_s += seq + par;
            Task::Sorts(seq / sorts as f64, par / sorts as f64)
        };
        let lost = host::interference(ticks, host::cpu_ticks());
        interference.push(lost);
        let task = if lost > INTERFERENCE_MAX && start.elapsed().as_secs_f64() < 2.0 * seconds {
            Task::Discarded
        } else {
            task
        };
        let k = probes.len() - 1;
        match task {
            Task::Setup(wall) => setups.push(wall, k),
            Task::Campaign(rate) => rates.push(rate, k),
            Task::Sorts(seq, par) => {
                seq_walls.push(seq, k);
                par_walls.push(par, k);
            }
            Task::Discarded => {}
        }
        probes.push(host::probe());
    }
    // Task k ran between probes k and k + 1.
    let window = |k: usize, read: fn(&host::Probe) -> f64| {
        let lo = (k + 1).saturating_sub(PROBE_WINDOW);
        let hi = (k + 1 + PROBE_WINDOW).min(probes.len());
        median(&probes[lo..hi].iter().map(read).collect::<Vec<_>>())
    };
    let scale = |k| host::PROBE_REF_S / window(k, |p| p.speed);
    let par_scale = |k| host::LOCKSTEP_REF_S / window(k, |p| p.lockstep);

    // Run-file size of one sort: the recorder's own sorts stream it; the
    // other workloads stream it once here, untimed.
    let run_file_bytes: Vec<f64> = instances
        .iter()
        .zip(&refs)
        .map(|(inst, r)| {
            let file = r
                .run_file
                .or_else(|| checked_sink_sort(&mut tally, inst, r).run_file)
                .expect("a sink was attached");
            file.bytes as f64
        })
        .collect();

    println!(
        "# samples: {} seq and {} par samples of {} passes over {} instance(s), {} campaign calls of {} runs, {} setup processes",
        seq_walls.len(),
        par_walls.len(),
        passes,
        instances.len(),
        rates.len(),
        runs_per_call,
        setups.len()
    );
    println!(
        "# interference: {} of {} measurements discarded (other tenants took more than {} of the host's CPU time); median share {:.4}, max {:.4}",
        interference.len() - seq_walls.len() - rates.len() - setups.len(),
        interference.len(),
        INTERFERENCE_MAX,
        median(&interference),
        interference.iter().fold(0.0, |a: f64, &b| a.max(b))
    );
    println!(
        "# raw medians, not rescaled: sort_s_p50 {} s, par_sort_s_p50 {} s, campaign_runs_per_s {} 1/s, setup_s {} s",
        median(&seq_walls.raw),
        median(&par_walls.raw),
        median(&rates.raw),
        median(&setups.raw)
    );
    let mut m = Metrics::default();
    m.put("sort_s_p50", median(&seq_walls.rescaled(scale)), "s");
    m.put(
        "par_sort_s_p50",
        median(&par_walls.rescaled(par_scale)),
        "s",
    );
    m.put(
        "campaign_runs_per_s",
        median(&rates.rescaled(|k| 1.0 / scale(k))),
        "1/s",
    );
    m.put("setup_s", median(&setups.rescaled(scale)), "s");
    m.put("peak_rss_mb", host::peak_rss_mb(), "MB");
    let virtual_ms = if w.is_fleet() {
        virtual_us.expect("at least one campaign call") / 1e3
    } else {
        refs.iter().map(|r| r.time_us).sum::<f64>() / refs.len() as f64 / 1e3
    };
    m.put("virtual_ms", virtual_ms, "ms");
    m.put(
        "run_file_mb",
        run_file_bytes.iter().sum::<f64>() / run_file_bytes.len() as f64 / 1e6,
        "MB",
    );
    (m, tally)
}
