//! Round-trips for the textual forms the binaries actually persist.
//!
//! The vendored `serde` stand-in only keeps `#[derive(Serialize,
//! Deserialize)]` lists compiling (the build environment is offline, so
//! report output is hand-written JSON/CSV rather than serde-generated).
//! What must therefore round-trip losslessly is the *textual* layer: the
//! `--engine` spellings the CLI and report binaries accept, and the value
//! semantics (`Clone`/`PartialEq`) of every config type those reports
//! embed in their output.

use ftsort::bitonic::Protocol;
use ftsort::ftsort::{FtConfig, Step8Strategy};
use ftsort::seq::{Direction, LocalSort};
use hypercube::address::NodeId;
use hypercube::cost::CostModel;
use hypercube::fault::{FaultModel, FaultSet, Link};
use hypercube::sim::{EngineKind, RouterKind};
use hypercube::stats::RunStats;
use hypercube::topology::Hypercube;

#[test]
fn engine_kind_display_parse_roundtrip() {
    for kind in [EngineKind::Seq, EngineKind::Par] {
        let spelled = kind.to_string();
        assert_eq!(
            EngineKind::parse(&spelled),
            Some(kind),
            "spelling {spelled}"
        );
    }
}

#[test]
fn engine_kind_accepts_documented_aliases() {
    assert_eq!(EngineKind::parse("seq"), Some(EngineKind::Seq));
    assert_eq!(EngineKind::parse("sequential"), Some(EngineKind::Seq));
    assert_eq!(EngineKind::parse("par"), Some(EngineKind::Par));
    assert_eq!(EngineKind::parse("parallel"), Some(EngineKind::Par));
    assert_eq!(EngineKind::parse("mpi"), None);
    assert_eq!(EngineKind::parse(""), None);
}

#[test]
fn engine_kind_default_is_seq() {
    // the fast engine is the default everywhere (CLI, FtConfig, reports)
    assert_eq!(EngineKind::default(), EngineKind::Seq);
    assert_eq!(FtConfig::default().engine, EngineKind::Seq);
}

/// A value round-trip through `Clone` must be lossless for every config
/// type the reports embed (the guarantee serde derives would otherwise
/// document).
fn clone_roundtrip<T: Clone + PartialEq + std::fmt::Debug>(value: &T) {
    let copy = value.clone();
    assert_eq!(&copy, value);
}

#[test]
fn config_types_are_value_types() {
    clone_roundtrip(&NodeId::new(42));
    clone_roundtrip(&Hypercube::new(6));
    clone_roundtrip(&Link::new(NodeId::new(5), 1));
    clone_roundtrip(&FaultModel::Total);
    clone_roundtrip(&RouterKind::Adaptive);
    clone_roundtrip(&CostModel::default());
    clone_roundtrip(&Protocol::HalfExchange);
    clone_roundtrip(&Step8Strategy::FullSort);
    clone_roundtrip(&LocalSort::Quicksort);
    clone_roundtrip(&Direction::Descending);
    clone_roundtrip(&EngineKind::Par);
    let mut stats = RunStats::new();
    stats.record_message(10, 3);
    stats.record_comparisons(7);
    clone_roundtrip(&stats);
}

#[test]
fn fault_set_clone_preserves_membership() {
    let faults = FaultSet::from_raw(Hypercube::new(4), &[1, 6, 12])
        .with_model(FaultModel::Total)
        .with_faulty_links([Link::new(NodeId::new(0), 2)]);
    let back = faults.clone();
    for p in Hypercube::new(4).nodes() {
        assert_eq!(faults.is_faulty(p), back.is_faulty(p));
    }
    assert_eq!(faults.to_vec(), back.to_vec());
}

#[test]
fn run_report_pool_stats_roundtrip() {
    // The pool counters ride the RunReport JSON: present fields
    // round-trip exactly, absent fields stay absent (older reports parse
    // unchanged).
    use ftsort::ftsort::{fault_tolerant_sort_observed, phase_name, FtPlan};
    let faults = FaultSet::from_raw(Hypercube::new(3), &[1]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let data: Vec<u32> = (0..500).rev().collect();
    let (_, _, obs) = fault_tolerant_sort_observed(&plan, &FtConfig::default(), data);

    let bare = obs.report(&phase_name);
    let bare_json = bare.to_json();
    assert!(!bare_json.contains("pool_takes"), "{bare_json}");
    let back = hypercube::obs::RunReport::from_json(&bare_json).expect("parses");
    assert_eq!(back.pool_takes, None);
    assert_eq!(back.pool_puts, None);
    assert_eq!(back.pool_slab_high_water, None);

    let pooled = obs.report(&phase_name).with_pool_stats(1200, 1188, 17);
    let json = pooled.to_json();
    let back = hypercube::obs::RunReport::from_json(&json).expect("parses");
    assert_eq!(back.pool_takes, Some(1200));
    assert_eq!(back.pool_puts, Some(1188));
    assert_eq!(back.pool_slab_high_water, Some(17));
    assert_eq!(back.to_json(), json, "second round trip is byte-exact");
}
