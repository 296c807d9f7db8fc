//! Stress test for the work-stealing scheduler: the frontier engine must
//! stay byte-deterministic under *adversarial* worker counts — far above
//! the live node count (every shard a single node, maximum steal traffic),
//! odd counts that split shard affinity unevenly, and the 1-node
//! degenerate cube where the whole machine fits in a single shard.
//!
//! The sweep crosses every cube size from Q1 to Q7 with every worker count
//! below; the shard size follows from the engine's automatic policy
//! (`schedule_for`). Each point runs the full fault-tolerant sort of a
//! seeded random instance twice — at one worker (`Seq`) and at the point's
//! worker count (`Par`) — and demands identical sorted output, virtual
//! time bits and operation counters. Every third point runs under the
//! contended link model (which routes the engine through its serial
//! commit path), and every fourth point also compares the streamed v2 run
//! file byte for byte: the worker count must never leak into any
//! observable output.

use ftsort::bitonic::Protocol;
use ftsort::ftsort::{
    fault_tolerant_sort_configured, fault_tolerant_sort_streamed, FtConfig, FtPlan,
};
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::sim::par::schedule_for;
use hypercube::sim::{Comm, Engine, EngineKind, LinkModel};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Worker counts to sweep: 1 (fully inline), small, odd (uneven affinity
/// splits), and far above any live node count in the sweep.
const WORKERS: [usize; 8] = [1, 2, 3, 4, 5, 9, 33, 200];

fn streamed_bytes(plan: &FtPlan, config: &FtConfig, data: Vec<u64>) -> Vec<u8> {
    let sink = Arc::new(Mutex::new(StreamingSink::new(Vec::<u8>::new())));
    let dyn_sink: Arc<Mutex<dyn TraceSink>> = sink.clone();
    fault_tolerant_sort_streamed(plan, config, data, dyn_sink);
    Arc::try_unwrap(sink)
        .ok()
        .expect("the engine dropped its sink handle")
        .into_inner()
        .unwrap()
        .into_inner()
        .unwrap()
}

#[test]
fn worker_counts_across_cube_sizes_are_byte_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x57ea_15eed);
    // Every (workers_effective, shard_size, shard_count) the sweep ran.
    let mut schedules = Vec::new();
    for (case, (n, workers)) in (1usize..=7)
        .flat_map(|n| WORKERS.map(|w| (n, w)))
        .enumerate()
    {
        let r = rng.random_range(0usize..n);
        let m = rng.random_range(0usize..2_500);
        let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
        let plan = FtPlan::new(&faults).expect("r ≤ n−1 tolerable");
        let data: Vec<u64> = (0..m).map(|_| rng.random()).collect();
        let link_model = if case % 3 == 0 {
            LinkModel::Contended
        } else {
            LinkModel::Uncontended
        };
        let seq_config = FtConfig {
            protocol: Protocol::HalfExchange,
            link_model,
            ..FtConfig::default()
        };
        let par_config = FtConfig {
            engine: EngineKind::Par,
            threads: Some(workers),
            ..seq_config
        };
        let schedule = schedule_for(plan.live_count(), workers);
        schedules.push(schedule);
        let tag = format!(
            "case {case}: n={n} r={r} m={m} {link_model:?} workers={workers} \
             schedule={schedule:?} faults={:?}",
            faults.to_vec()
        );
        let seq = fault_tolerant_sort_configured(&plan, &seq_config, data.clone());
        let par = fault_tolerant_sort_configured(&plan, &par_config, data.clone());
        assert_eq!(seq.sorted, par.sorted, "sorted output differs — {tag}");
        assert_eq!(
            seq.time_us.to_bits(),
            par.time_us.to_bits(),
            "virtual time differs — {tag}"
        );
        assert_eq!(seq.stats, par.stats, "operation counters differ — {tag}");
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(seq.sorted, expect, "not actually sorted — {tag}");

        if case % 4 == 0 {
            let seq_bytes = streamed_bytes(&plan, &seq_config, data.clone());
            let par_bytes = streamed_bytes(&plan, &par_config, data);
            assert!(!seq_bytes.is_empty(), "sink saw no records — {tag}");
            assert!(seq_bytes == par_bytes, "streamed run file differs — {tag}");
        }
    }
    // The sweep must reach the adversarial corners of the schedule space:
    // 1-node shards stolen across several workers (workers ≫ nodes) and
    // several shards under a single worker. (A single shard per machine
    // needs a 1-node cube; see the test below.)
    assert!(
        schedules.iter().any(|&(w, size, _)| size == 1 && w > 1),
        "no oversubscribed 1-node-shard point: {schedules:?}"
    );
    assert!(
        schedules.iter().any(|&(w, _, count)| w == 1 && count > 1),
        "no multi-shard single-worker point: {schedules:?}"
    );
}

/// The degenerate single-node cube (`Q0`): one live node, no messages,
/// more workers than nodes. The scheduler must fall back to one effective
/// worker and still run the program to completion.
#[test]
fn one_node_cube_with_oversubscribed_workers() {
    assert_eq!(schedule_for(1, 3), (1, 1, 1));
    let cube = Hypercube::new(0);
    let engine = Engine::new(FaultSet::none(cube), CostModel::default())
        .with_engine(EngineKind::Par)
        .with_workers(3);
    let inputs: Vec<Option<Vec<u64>>> = vec![Some(vec![3, 1, 2])];
    let out = engine.run(inputs, async |ctx, mut data: Vec<u64>| {
        data.sort_unstable();
        ctx.charge_comparisons(data.len());
        ctx.span_enter(1);
        ctx.span_exit();
        data
    });
    let results: Vec<_> = out.into_results();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].1, vec![1, 2, 3]);
}
