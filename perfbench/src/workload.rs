//! The four benchmark workloads and the inputs they draw from a seed.
//!
//! Each workload stresses one layer of the simulator and leaves the others
//! nearly idle; README.md records why each shape was chosen and which
//! layer changes each one should (and should not) show.

use ft_bench::campaign::{campaign_cells, derive_run_seed, CampaignConfig};
use ft_bench::{random_faults, random_keys_typed};
use ftsort::seq::KeyType;
use hypercube::fault::FaultSet;
use hypercube::sim::LinkModel;

/// The key type of every workload.
pub type K = i64;

/// What a workload runs.
pub enum Shape {
    /// One sort of `m` keys on `Q_n` with `r` randomly placed faults.
    Sort { n: usize, r: usize, m: usize },
    /// A Monte-Carlo campaign over the (n, r) matrix, `runs_per_cell`
    /// random placements per feasible cell, `m` keys per run.
    Fleet {
        sizes: &'static [usize],
        faults: &'static [usize],
        runs_per_cell: usize,
        m: usize,
    },
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Every sort streams a v2 run file into a byte-counting writer and
    /// the process-global metrics registry is installed: the engine path
    /// of a recorder.
    pub recorder: bool,
    /// Share of the measuring time given to the sort loop; the rest goes
    /// to `run_campaign` calls.
    pub sort_share: f64,
    /// Fresh processes timed for `setup_s` (median reported).
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "msg-q11",
        shape: Shape::Sort {
            n: 11,
            r: 10,
            m: 16_384,
        },
        recorder: false,
        sort_share: 0.75,
        setup_reps: 5,
    },
    Workload {
        name: "kernel-q6",
        shape: Shape::Sort {
            n: 6,
            r: 5,
            m: 1 << 20,
        },
        recorder: false,
        sort_share: 0.75,
        setup_reps: 5,
    },
    Workload {
        name: "record-q10",
        shape: Shape::Sort {
            n: 10,
            r: 9,
            m: 16_384,
        },
        recorder: true,
        sort_share: 0.75,
        setup_reps: 5,
    },
    Workload {
        name: "fleet-q8",
        shape: Shape::Fleet {
            sizes: &[6, 8],
            faults: &[3, 5, 7],
            runs_per_cell: 128,
            m: 2000,
        },
        recorder: false,
        sort_share: 0.3,
        setup_reps: 3,
    },
];

/// One sort input: the fault placement and the keys, plus the expected
/// output (`sort_unstable` of the keys).
pub struct Instance {
    pub faults: FaultSet,
    pub keys: Vec<K>,
    pub expected: Vec<K>,
    /// The seed both were drawn from.
    pub seed: u64,
}

/// Draws a fault placement on `Q_n` and then `m` keys from one seeded
/// stream, in the order a campaign run draws them.
pub fn draw(n: usize, r: usize, m: usize, seed: u64) -> (FaultSet, Vec<K>) {
    let mut rng = ft_bench::rng(seed);
    let faults = random_faults(n, r, &mut rng);
    let keys = random_keys_typed(m, &mut rng);
    (faults, keys)
}

impl Instance {
    fn draw(n: usize, r: usize, m: usize, seed: u64) -> Instance {
        let (faults, keys) = draw(n, r, m, seed);
        let mut expected = keys.clone();
        expected.sort_unstable();
        Instance {
            faults,
            keys,
            expected,
            seed,
        }
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The sort inputs of the workload. A sort workload has one instance,
    /// drawn from `seed`. A fleet has one per campaign cell: the cell's
    /// first campaign run, drawn exactly as `run_campaign` draws it, so
    /// timing it alone shows the per-run cost the campaign pays.
    pub fn instances(&self, seed: u64) -> Vec<Instance> {
        match self.shape {
            Shape::Sort { n, r, m } => vec![Instance::draw(n, r, m, seed)],
            Shape::Fleet {
                runs_per_cell, m, ..
            } => {
                let cfg = self.campaign(seed, 1);
                let (cells, _) = campaign_cells(&cfg);
                cells
                    .iter()
                    .enumerate()
                    .map(|(c, &(n, r))| {
                        let run_index = (c * runs_per_cell) as u64;
                        Instance::draw(n, r, m, derive_run_seed(seed, run_index))
                    })
                    .collect()
            }
        }
    }

    /// The campaign the workload's `campaign_runs_per_s` times, at
    /// `jobs = nproc`. A sort workload runs its own (n, r) cell with two
    /// runs per host core, which measures sort throughput when independent
    /// sorts share the host.
    pub fn campaign(&self, seed: u64, nproc: usize) -> CampaignConfig {
        let (sizes, fault_counts, runs_per_cell, m_total) = match self.shape {
            Shape::Sort { n, r, m } => (vec![n], vec![r], 2 * nproc, m),
            Shape::Fleet {
                sizes,
                faults,
                runs_per_cell,
                m,
            } => (sizes.to_vec(), faults.to_vec(), runs_per_cell, m),
        };
        CampaignConfig {
            sizes,
            fault_counts,
            runs_per_cell,
            m_total,
            seed,
            jobs: nproc,
            key_type: KeyType::I64,
            link_model: LinkModel::Uncontended,
            capture_dir: None,
        }
    }

    pub fn is_fleet(&self) -> bool {
        matches!(self.shape, Shape::Fleet { .. })
    }
}
