//! One timed sort through the library's public entry points.

use crate::check::{RunFile, RunFileWriter, SortResult};
use crate::workload::{Instance, K};
use ftsort::distribute::Padded;
use ftsort::ftsort::{
    fault_tolerant_sort_configured, fault_tolerant_sort_instrumented, fault_tolerant_sort_streamed,
    FtConfig, FtPlan,
};
use hypercube::obs::sched::SchedProfiler;
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::obs::RunObservation;
use hypercube::sim::{BufferPool, EngineKind};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The engine a sort runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Seq,
    /// The work-stealing engine at exactly this many workers.
    Par(usize),
}

/// What is attached to a sort besides the engine.
#[derive(Default)]
pub struct Attach {
    /// Stream a v2 run file into a [`RunFileWriter`].
    pub sink: bool,
    /// Draw scratch slabs from this pool (a stats-carrying one counts
    /// its traffic).
    pub pool: Option<Arc<BufferPool<Padded<K>>>>,
    /// Record the work-stealing scheduler's per-worker profile.
    pub profiler: Option<Arc<SchedProfiler>>,
}

/// A finished sort.
pub struct Timed {
    pub result: SortResult,
    /// Host wall time from fault set and keys in hand to returned output:
    /// `FtPlan::new`, the sort call and the sink's finish.
    pub wall_s: f64,
    /// The run's observation, when the entry point used returns one.
    pub observation: Option<RunObservation>,
}

/// Sorts a copy of `inst.keys`. The copy is made before the clock starts.
/// With nothing attached it calls `fault_tolerant_sort_configured`; with
/// only a sink, `fault_tolerant_sort_streamed`; otherwise the fully
/// general `fault_tolerant_sort_instrumented`.
pub fn sort(inst: &Instance, engine: Engine, attach: &Attach) -> Timed {
    let data = inst.keys.clone();
    let config = FtConfig {
        engine: match engine {
            Engine::Seq => EngineKind::Seq,
            Engine::Par(_) => EngineKind::Par,
        },
        threads: match engine {
            Engine::Seq => None,
            Engine::Par(workers) => Some(workers),
        },
        ..FtConfig::default()
    };
    let start = Instant::now();
    let plan = FtPlan::new(&inst.faults).expect("workload fault sets have r <= n - 1");
    let sink = attach
        .sink
        .then(|| Arc::new(Mutex::new(StreamingSink::new(RunFileWriter::default()))));
    let dyn_sink = sink.clone().map(|s| -> Arc<Mutex<dyn TraceSink>> { s });
    let (outcome, observation) = if attach.pool.is_none() && attach.profiler.is_none() {
        match dyn_sink {
            None => (fault_tolerant_sort_configured(&plan, &config, data), None),
            Some(s) => {
                let (outcome, _, obs) = fault_tolerant_sort_streamed(&plan, &config, data, s);
                (outcome, Some(obs))
            }
        }
    } else {
        let (outcome, _, obs) = fault_tolerant_sort_instrumented(
            &plan,
            &config,
            data,
            dyn_sink,
            attach.pool.as_deref(),
            attach.profiler.clone(),
        );
        (outcome, Some(obs))
    };
    let run_file = sink.map(finish_sink);
    let wall_s = start.elapsed().as_secs_f64();
    Timed {
        result: SortResult {
            sorted: outcome.sorted,
            time_us: outcome.time_us,
            stats: outcome.stats,
            run_file,
        },
        wall_s,
        observation,
    }
}

fn finish_sink(sink: Arc<Mutex<StreamingSink<RunFileWriter>>>) -> RunFile {
    let sink = Arc::try_unwrap(sink)
        .ok()
        .expect("the engine released the sink")
        .into_inner()
        .expect("sink lock poisoned");
    sink.into_inner().expect("counting writer cannot fail").0
}
