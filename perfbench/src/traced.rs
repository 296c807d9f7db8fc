//! The traced run: per-layer metrics of one workload, in its own process.
//!
//! Timings come from the benchmark's own calls into each layer's public
//! functions at the workload's shapes (N' live nodes, k = ⌈M/N'⌉ keys per
//! node); counts come from `RunStats`, the observation, the pool's stats,
//! the scheduler profile and the `obs::metrics` registry.
//!
//! Phases run in a fixed order because `obs::metrics::install_global`
//! cannot be undone: plain sorts, then sorts with a sink only, then the
//! registry is installed for the remaining sorts.

use crate::check::{RunFile, SortResult, Tally};
use crate::e2e::{checked_campaign, checked_sink_sort, checked_sort, workload_attach};
use crate::host;
use crate::report::{median, nearest_rank, Metrics};
use crate::sorting::{Attach, Engine};
use crate::workload::{draw, Instance, Workload, K};
use ftsort::distribute::{chunk_len, gather, scatter, Padded};
use ftsort::ftsort::{fault_tolerant_sort_observed, FtConfig, FtPlan};
use ftsort::seq::{merge_runs_branchless_into, Direction, LocalSort};
use hypercube::obs::campaign::{CampaignAccumulator, CampaignReport, RunSummary};
use hypercube::obs::metrics;
use hypercube::obs::sched::{SchedProfiler, SchedReport};
use hypercube::sim::{BufferPool, LinkModel};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Passes per phase at least; phases share the run's seconds.
const MIN_PASSES: usize = 5;

/// Calls `pass()` until `budget_s` seconds have passed and at least `min`
/// passes ran, and collects what the passes return.
fn repeat(budget_s: f64, min: usize, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < budget_s {
        out.push(pass());
    }
    out
}

/// Median over passes of the mean, over the workload's instances, of the
/// wall `f(instance)` returns; each pass is rescaled to the reference host
/// ([`host::rescaled`]), so that phases minutes apart compare.
fn per_instance(
    instances: &[Instance],
    budget_s: f64,
    min: usize,
    mut f: impl FnMut(usize, &Instance) -> f64,
) -> f64 {
    let passes = repeat(budget_s, min, || {
        host::rescaled(|| {
            let sum: f64 = instances
                .iter()
                .enumerate()
                .map(|(i, inst)| f(i, inst))
                .sum();
            sum / instances.len() as f64
        })
    });
    median(&passes)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The layers below the engine, timed on their own.
struct Layers {
    plan_s: f64,
    scatter_s: f64,
    gather_s: f64,
    local_sort_s: f64,
    local_sort_comparisons: f64,
    merge_ns_per_key: f64,
}

fn layers(instances: &[Instance], plans: &[FtPlan], budget_s: f64) -> Layers {
    let share = budget_s / 5.0;
    let plan_s = per_instance(instances, share, 21, |_, inst| {
        let start = Instant::now();
        black_box(FtPlan::new(black_box(&inst.faults)).expect("feasible"));
        secs(start)
    });
    let scatter_s = per_instance(instances, share, 21, |i, inst| {
        let keys = inst.keys.clone();
        let start = Instant::now();
        let chunks = scatter(keys, plans[i].live_count());
        let wall = secs(start);
        black_box(chunks);
        wall
    });
    let gather_s = per_instance(instances, share, 21, |i, inst| {
        let chunks = scatter(inst.keys.clone(), plans[i].live_count());
        let start = Instant::now();
        let keys: Vec<K> = gather(chunks);
        let wall = secs(start);
        black_box(keys);
        wall
    });
    // Step 3's local heapsort: N' chunks of k keys, as the engine holds
    // them (padded).
    let mut comparisons = vec![0u64; instances.len()];
    let local_sort_s = per_instance(instances, share, 11, |i, inst| {
        let mut chunks = scatter(inst.keys.clone(), plans[i].live_count());
        let start = Instant::now();
        let c: u64 = chunks
            .iter_mut()
            .map(|c| LocalSort::Heapsort.sort(c, Direction::Ascending))
            .sum();
        let wall = secs(start);
        comparisons[i] = c;
        wall
    });
    // One full merge of two sorted k-key runs, repeated to fill ~1M output
    // keys; the refill copies are timed alone and subtracted.
    let merge_ns_per_key = per_instance(instances, share, 11, |i, inst| {
        let live = plans[i].live_count();
        let k = chunk_len(inst.keys.len(), live);
        let mut chunks = scatter(inst.keys.clone(), live);
        for c in &mut chunks[..2] {
            c.sort_unstable();
        }
        let (a0, b0) = (&chunks[0], &chunks[1]);
        let reps = ((1 << 20) / (2 * k)).max(1);
        let mut a: Vec<Padded<K>> = Vec::with_capacity(k);
        let mut b: Vec<Padded<K>> = Vec::with_capacity(k);
        let mut out = Vec::with_capacity(2 * k);
        let start = Instant::now();
        for _ in 0..reps {
            a.extend_from_slice(a0);
            b.extend_from_slice(b0);
            black_box(merge_runs_branchless_into(&mut a, &mut b, &mut out));
            black_box(&out);
        }
        let merge = secs(start);
        let start = Instant::now();
        for _ in 0..reps {
            a.extend_from_slice(a0);
            b.extend_from_slice(b0);
            black_box((&a, &b));
            a.clear();
            b.clear();
        }
        let refill = secs(start);
        (merge - refill).max(0.0) * 1e9 / (reps * 2 * k) as f64
    });
    Layers {
        plan_s,
        scatter_s,
        gather_s,
        local_sort_s,
        local_sort_comparisons: mean(comparisons.iter().map(|&c| c as f64)),
        merge_ns_per_key,
    }
}

/// Checked sorts of every instance, repeated; returns the median over
/// passes of the mean wall per instance.
fn sorts(
    tally: &mut Tally,
    instances: &[Instance],
    refs: &[SortResult],
    engine: Engine,
    attach: impl Fn() -> Attach,
    budget_s: f64,
) -> f64 {
    per_instance(instances, budget_s, MIN_PASSES, |i, inst| {
        checked_sort(tally, inst, engine, &attach(), Some(&refs[i])).wall_s
    })
}

/// Per-worker category totals of one profiled par sort, in seconds.
struct ParSplit {
    poll: f64,
    deliver: f64,
    serial: f64,
    steal: f64,
    barrier: f64,
    park: f64,
    utilization: f64,
    barrier_share: f64,
    steals: f64,
}

impl ParSplit {
    fn of(r: &SchedReport) -> ParSplit {
        let sum = |f: fn(&hypercube::obs::sched::SchedWorkerReport) -> u64| {
            r.per_worker.iter().map(f).sum::<u64>() as f64 / 1e9
        };
        ParSplit {
            poll: sum(|w| w.poll_ns),
            deliver: sum(|w| w.deliver_ns),
            serial: sum(|w| w.serial_ns),
            steal: sum(|w| w.steal_ns),
            barrier: sum(|w| w.barrier_ns),
            park: sum(|w| w.park_ns),
            utilization: r.utilization(),
            barrier_share: r.barrier_share(),
            steals: r.per_worker.iter().map(|w| w.shards_stolen).sum::<u64>() as f64,
        }
    }
}

/// One campaign run as `run_campaign` executes it — draw the inputs from
/// the run's seed, plan, sort with the observation, build the summary —
/// timed alone. Returns the wall.
fn campaign_run(inst: &Instance) -> f64 {
    let n = inst.faults.cube().dim();
    let (r, m) = (inst.faults.count(), inst.keys.len());
    let start = Instant::now();
    let (faults, keys) = draw(n, r, m, inst.seed);
    let plan = FtPlan::new(&faults).expect("feasible");
    let config = FtConfig {
        link_model: LinkModel::Uncontended,
        ..FtConfig::default()
    };
    let (outcome, phases, obs) = fault_tolerant_sort_observed(&plan, &config, keys);
    let summary = RunSummary {
        run_index: 0,
        seed: inst.seed,
        n,
        r,
        makespan_us: outcome.time_us,
        step3_us: phases.step3_us,
        step7_us: phases.step7_us,
        step8_us: phases.step8_us,
        wait_total_us: obs.participants().map(|p| p.metrics.link_wait_us).sum(),
        comparisons: outcome.stats.comparisons,
        element_hops: outcome.stats.element_hops,
        inbox_peak: obs
            .participants()
            .map(|p| p.metrics.inbox_peak)
            .max()
            .unwrap_or(0),
        mincut: plan.partition().mincut,
        subcube_dim: plan.structure().s(),
        live: plan.live_count(),
    };
    black_box(summary);
    secs(start)
}

/// Cells whose `~p50` or `~p99` makespan lies outside the observed
/// [min, max], and the largest relative error of `~p99` against the exact
/// nearest-rank p99 of the run summaries.
fn quantile_cross_check(report: &CampaignReport, summaries: &[RunSummary]) -> (f64, f64) {
    let mut out_of_range = 0;
    let mut p99_rel_error: f64 = 0.0;
    for cell in &report.cells {
        let makespans: Vec<f64> = summaries
            .iter()
            .filter(|s| (s.n, s.r) == (cell.n, cell.r))
            .map(|s| s.makespan_us)
            .collect();
        let agg = cell.metric("makespan_us").expect("makespan is aggregated");
        let inside = |q: u64| (agg.min..=agg.max).contains(&(q as f64));
        if !inside(cell.p50_makespan_us) || !inside(cell.p99_makespan_us) {
            out_of_range += 1;
        }
        let exact_p99 = nearest_rank(&makespans, 0.99);
        p99_rel_error =
            p99_rel_error.max((cell.p99_makespan_us as f64 - exact_p99).abs() / exact_p99);
    }
    (f64::from(out_of_range), p99_rel_error)
}

/// Measures every per-layer metric of `w` for about `seconds`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> (Metrics, Tally) {
    let nproc = host::nproc();
    let par = Engine::Par(nproc);
    let mut tally = Tally::default();
    let instances = w.instances(seed);
    let slice = seconds / 8.0;
    let mut m = Metrics::default();

    // Plan shape and the layers below the engine.
    let plans: Vec<FtPlan> = instances
        .iter()
        .map(|inst| FtPlan::new(&inst.faults).expect("feasible"))
        .collect();
    let l = layers(&instances, &plans, slice);

    // Phase 1, nothing attached: the references, then plain seq and par.
    let plain = Attach::default;
    let refs: Vec<SortResult> = instances
        .iter()
        .map(|inst| checked_sort(&mut tally, inst, Engine::Seq, &plain(), None).result)
        .collect();
    let seq_plain = sorts(&mut tally, &instances, &refs, Engine::Seq, plain, slice);
    let par_plain = sorts(&mut tally, &instances, &refs, par, plain, slice);

    // Phase 2, a run-file sink only.
    let with_sink = || Attach {
        sink: true,
        ..Attach::default()
    };
    let sink_refs: Vec<SortResult> = instances
        .iter()
        .zip(&refs)
        .map(|(inst, r)| checked_sink_sort(&mut tally, inst, r))
        .collect();
    let seq_sink = sorts(
        &mut tally,
        &instances,
        &sink_refs,
        Engine::Seq,
        with_sink,
        slice,
    );
    let par_sink = sorts(&mut tally, &instances, &sink_refs, par, with_sink, slice);
    let run_files: Vec<RunFile> = sink_refs
        .iter()
        .map(|r| r.run_file.expect("a sink was attached"))
        .collect();

    // Phase 3, the registry installed.
    let g = metrics::install_global();
    let seq_registry = sorts(&mut tally, &instances, &refs, Engine::Seq, plain, slice);
    let mut rounds = vec![0.0; instances.len()];
    let mut events = vec![0.0; instances.len()];
    let mut inbox_peak = vec![0.0; instances.len()];
    let mut pool = vec![(0.0, 0.0, 0.0); instances.len()];
    for (i, inst) in instances.iter().enumerate() {
        let before = (g.run.engine.rounds.get(), g.run.sink.events.get());
        checked_sort(
            &mut tally,
            inst,
            Engine::Seq,
            &with_sink(),
            Some(&sink_refs[i]),
        );
        rounds[i] = (g.run.engine.rounds.get() - before.0) as f64;
        events[i] = (g.run.sink.events.get() - before.1) as f64;
        let stats_pool = Arc::new(BufferPool::<Padded<K>>::with_stats());
        let attach = Attach {
            pool: Some(Arc::clone(&stats_pool)),
            ..Attach::default()
        };
        let t = checked_sort(&mut tally, inst, Engine::Seq, &attach, Some(&refs[i]));
        let obs = t
            .observation
            .expect("the instrumented entry point returns it");
        inbox_peak[i] = obs
            .participants()
            .map(|p| p.metrics.inbox_peak)
            .max()
            .unwrap_or(0) as f64;
        let c = stats_pool.stats().expect("a stats pool").counters();
        pool[i] = (c.takes as f64, c.puts as f64, c.slab_high_water as f64);
    }

    // Phase 4, everything on the par engine: registry, stats pool,
    // scheduler profiler, and the workload's own sink.
    let mut splits = Vec::new();
    let (traced_refs, untraced_par) = if w.recorder {
        (&sink_refs, par_sink)
    } else {
        (&refs, par_plain)
    };
    let par_traced = per_instance(&instances, slice, MIN_PASSES, |i, inst| {
        let profiler = Arc::new(SchedProfiler::new());
        let attach = Attach {
            pool: Some(Arc::new(BufferPool::with_stats())),
            profiler: Some(Arc::clone(&profiler)),
            ..workload_attach(w)
        };
        let t = checked_sort(&mut tally, inst, par, &attach, Some(&traced_refs[i]));
        if let Some(profile) = profiler.take() {
            splits.push(ParSplit::of(&profile.report()));
        }
        t.wall_s
    });
    tally.record(
        "scheduler profile",
        if splits.is_empty() {
            Err("the par engine installed no profile".into())
        } else {
            Ok(())
        },
    );
    let split = |f: fn(&ParSplit) -> f64| mean(splits.iter().map(f));

    // Campaign layer: nproc jobs, then one job, which must agree.
    let mut first = None;
    let mut outcome = None;
    let wall_n = host::rescaled(|| {
        let (o, wall) = checked_campaign(&mut tally, w, seed, nproc, &mut first);
        outcome = Some(o);
        wall
    });
    let outcome = outcome.expect("the campaign ran");
    let wall_1 = host::rescaled(|| checked_campaign(&mut tally, w, seed, 1, &mut first).1);
    let cfg = w.campaign(seed, nproc);
    let mut aggregated = None;
    let aggregate_s = median(&repeat(slice / 2.0, MIN_PASSES, || {
        host::rescaled(|| {
            let start = Instant::now();
            let mut acc = CampaignAccumulator::new(
                cfg.seed,
                cfg.runs_per_cell as u64,
                cfg.m_total as u64,
                cfg.link_model,
                cfg.key_type.as_str(),
            );
            for s in &outcome.summaries {
                acc.record(s);
            }
            let report = acc.finish();
            let wall = secs(start);
            aggregated.get_or_insert(report);
            wall
        })
    }));
    tally.record(
        "campaign re-aggregation",
        match aggregated {
            Some(r) if r == outcome.report => Ok(()),
            _ => Err("re-aggregating the summaries gave another report".into()),
        },
    );
    let run_s = per_instance(&instances, slice / 2.0, MIN_PASSES, |_, inst| {
        campaign_run(inst)
    });
    let (out_of_range, p99_rel_error) = quantile_cross_check(&outcome.report, &outcome.summaries);

    let refs_mean = |f: fn(&SortResult) -> f64| mean(refs.iter().map(f));
    let messages = refs_mean(|r| r.stats.messages as f64);
    let comparisons = refs_mean(|r| r.stats.comparisons as f64);
    let merge_s = (comparisons - l.local_sort_comparisons) * l.merge_ns_per_key * 1e-9;
    let sim_self = seq_plain - l.plan_s - l.scatter_s - l.gather_s - l.local_sort_s - merge_s;
    let bytes = mean(run_files.iter().map(|f| f.bytes as f64));

    let plan_mean = |f: fn(&FtPlan) -> f64| mean(plans.iter().map(f));
    m.put("plan.s", l.plan_s, "s");
    m.put(
        "plan.mincut",
        plan_mean(|p| p.partition().mincut as f64),
        "count",
    );
    m.put(
        "plan.psi",
        plan_mean(|p| p.partition().cutting_set.len() as f64),
        "count",
    );
    m.put("plan.live", plan_mean(|p| p.live_count() as f64), "count");
    m.put("distribute.scatter_s", l.scatter_s, "s");
    m.put("distribute.gather_s", l.gather_s, "s");
    m.put("seq.local_sort_s", l.local_sort_s, "s");
    m.put("seq.merge_ns_per_key", l.merge_ns_per_key, "ns");
    m.put("seq.comparisons", comparisons, "count");
    m.put("bitonic.messages", messages, "count");
    m.put(
        "bitonic.elements_sent",
        refs_mean(|r| r.stats.elements_sent as f64),
        "count",
    );
    m.put(
        "bitonic.element_hops",
        refs_mean(|r| r.stats.element_hops as f64),
        "count",
    );
    m.put("sim.self_s", sim_self, "s");
    m.put("sim.ns_per_msg", sim_self / messages * 1e9, "ns");
    m.put("sim.rounds", mean(rounds), "count");
    m.put("sim.inbox_peak", mean(inbox_peak), "count");
    m.put("pool.takes", mean(pool.iter().map(|p| p.0)), "count");
    m.put("pool.puts", mean(pool.iter().map(|p| p.1)), "count");
    m.put(
        "pool.slab_high_water",
        mean(pool.iter().map(|p| p.2)),
        "count",
    );
    m.put("sim.par.poll_s", split(|s| s.poll), "s");
    m.put("sim.par.deliver_s", split(|s| s.deliver), "s");
    m.put("sim.par.serial_s", split(|s| s.serial), "s");
    m.put("sim.par.steal_s", split(|s| s.steal), "s");
    m.put("sim.par.barrier_s", split(|s| s.barrier), "s");
    m.put("sim.par.park_s", split(|s| s.park), "s");
    m.put("sim.par.utilization", split(|s| s.utilization), "ratio");
    m.put("sim.par.barrier_share", split(|s| s.barrier_share), "ratio");
    m.put("sim.par.steals", split(|s| s.steals), "count");
    m.put("obs.sink_s", seq_sink - seq_plain, "s");
    m.put("obs.sink_events", mean(events.iter().copied()), "count");
    m.put("obs.sink_bytes", bytes, "bytes");
    m.put("obs.bytes_per_event", bytes / mean(events), "bytes");
    m.put("obs.metrics_s", seq_registry - seq_plain, "s");
    m.put("campaign.run_s_p50", run_s, "s");
    m.put("campaign.aggregate_s", aggregate_s, "s");
    m.put("campaign.jobs_speedup", wall_1 / wall_n, "ratio");
    m.put("campaign.quantile_out_of_range", out_of_range, "count");
    m.put("campaign.p99_rel_error", p99_rel_error, "ratio");
    m.put("trace.overhead_ratio", par_traced / untraced_par, "ratio");
    (m, tally)
}
