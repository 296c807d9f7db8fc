//! Differential test between the two simulation engines, anchored to a
//! golden fixture: across 64 random `(n, r, M)` instances under each link
//! model, the sequential engine and the parallel engine must produce
//! **byte-identical** results — the same sorted output, the same virtual
//! completion time, the same operation counters — and both must match the
//! outcome recorded in `tests/fixtures/engine_golden.txt`. The algorithms
//! are data-oblivious and the engines share the cost model and hop
//! charging, so any divergence is an engine bug, not noise.
//!
//! The fixture was recorded while a third, independently implemented
//! executor (one OS thread per node, channels as links) still existed and
//! agreed with both engines on every line, so it keeps serving as the
//! cross-engine oracle: a change that moves seq and par *together* still
//! fails here. One line per instance holds the virtual time's bits, the
//! [`RunStats`](hypercube::stats::RunStats) counters, the processor count,
//! an FNV-1a checksum of the sorted keys and, for every 8th instance, an
//! FNV-1a checksum of the streamed v2 run file.
//!
//! The parallel engine's worker count is swept across `{1, 2, 4, auto}`
//! per case — the work-stealing scheduler must be byte-deterministic at
//! *every* worker count, including oversubscribed ones on a small host —
//! and the streamed run files compare par at 1, 2 and 4 workers each.

use ftsort::bitonic::{Protocol, SortOutcome};
use ftsort::ftsort::{
    fault_tolerant_sort_configured, fault_tolerant_sort_streamed, FtConfig, FtPlan,
};
use hypercube::fault::FaultSet;
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::sim::{EngineKind, LinkModel};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("fixtures/engine_golden.txt");

/// Runs the sort streaming into an in-memory [`StreamingSink`] and returns
/// the exact bytes the sink wrote.
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

/// 64-bit FNV-1a: a stable checksum that needs no dependency.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One fixture line (column order in the fixture's header comment).
fn golden_line(
    suite: &str,
    case: usize,
    out: &SortOutcome<u64>,
    run_file: Option<&[u8]>,
) -> String {
    let s = out.stats;
    let keys = fnv1a(out.sorted.iter().flat_map(|k| k.to_le_bytes()));
    let run_file = run_file.map_or("-".to_string(), |b| {
        format!("{:016x}", fnv1a(b.iter().copied()))
    });
    format!(
        "{suite} {case} {:016x} {} {} {} {} {} {} {} {} {keys:016x} {run_file}",
        out.time_us.to_bits(),
        s.messages,
        s.elements_sent,
        s.element_hops,
        s.message_hops,
        s.comparisons,
        s.max_hops,
        s.max_message_elements,
        out.processors_used,
    )
}

/// Runs one 64-instance suite on seq and par and checks both against each
/// other and against the suite's fixture lines. The RNG draw order is part
/// of the fixture: changing it invalidates every line.
fn check_suite(suite: &str, seed: u64, max_n: usize, max_m: usize, link_model: LinkModel) {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.starts_with(&format!("{suite} ")))
        .collect();
    assert_eq!(golden.len(), 64, "fixture lines for {suite}");
    let mut rng = StdRng::seed_from_u64(seed);
    for (case, &expected) in golden.iter().enumerate() {
        let n = rng.random_range(2usize..=max_n);
        let r = rng.random_range(0usize..n);
        let m = rng.random_range(0usize..max_m);
        let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
        let plan = FtPlan::new(&faults).expect("r ≤ n−1 tolerable");
        let data: Vec<u64> = (0..m).map(|_| rng.random()).collect();
        let protocol = if case % 2 == 0 {
            Protocol::HalfExchange
        } else {
            Protocol::FullExchange
        };
        let host_io = case % 3 == 0;
        // Par worker-count sweep: every case pins a different count
        // (None = available parallelism); seq ignores it.
        let threads = [Some(1), Some(2), Some(4), None][case % 4];
        let config = |engine: EngineKind| FtConfig {
            protocol,
            include_host_io: host_io,
            engine,
            threads,
            link_model,
            ..FtConfig::default()
        };
        let tag = format!(
            "{suite} case {case}: n={n} r={r} m={m} {protocol:?} host_io={host_io} \
             threads={threads:?} faults={:?}",
            faults.to_vec()
        );

        // Every 8th instance: the streamed run files are the same bytes
        // (header, every record line, node footer) — par checked at 1, 2
        // and 4 workers.
        let run_file = (case % 8 == 0).then(|| {
            let seq_bytes = streamed_bytes(&plan, &config(EngineKind::Seq), data.clone());
            for workers in [1usize, 2, 4] {
                let par_config = FtConfig {
                    threads: Some(workers),
                    ..config(EngineKind::Par)
                };
                let par_bytes = streamed_bytes(&plan, &par_config, data.clone());
                assert!(
                    seq_bytes == par_bytes,
                    "streamed run file differs seq vs par@{workers} — {tag}"
                );
            }
            assert!(!seq_bytes.is_empty(), "sink saw no records — {tag}");
            seq_bytes
        });

        let mut expect = data.clone();
        expect.sort_unstable();
        for kind in [EngineKind::Seq, EngineKind::Par] {
            let out = fault_tolerant_sort_configured(&plan, &config(kind), data.clone());
            assert_eq!(out.sorted, expect, "{kind}: not actually sorted — {tag}");
            assert_eq!(
                golden_line(suite, case, &out, run_file.as_deref()),
                expected,
                "{kind} differs from the golden outcome — {tag}"
            );
        }
    }
}

#[test]
fn engines_agree_on_64_random_instances() {
    check_suite("uncontended", 0x5eed_d1ff, 8, 4_000, LinkModel::Uncontended);
}

/// The contended link model must not break engine equivalence: waits are
/// arbitrated at the round barrier in commit order, so virtual times
/// (waits included), counters and streamed v2 run files stay
/// byte-identical across engines and worker counts.
#[test]
fn engines_agree_under_contended_link_model() {
    check_suite("contended", 0xc0a7_e57ed, 7, 3_000, LinkModel::Contended);
}
