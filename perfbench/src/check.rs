//! Output checks. Every timed operation is checked; the counts feed the
//! `attempted` and `failed` fields of the result line (`fail_ratio`).

use crate::workload::K;
use hypercube::obs::campaign::CampaignReport;
use hypercube::stats::RunStats;
use std::io::{self, Write};

/// Attempted and failed operation counts.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed check is reported on stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }
}

/// Size and digest of a v2 run file as a sink streamed it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunFile {
    pub bytes: u64,
    pub hash: u64,
}

/// A writer that keeps only [`RunFile`]: the bytes a recorder would write
/// to disk are counted and hashed, then dropped.
#[derive(Default)]
pub struct RunFileWriter(pub RunFile);

impl Write for RunFileWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Word-at-a-time multiply-rotate hash: cheap next to rendering the
        // records, and any differing byte changes it with high probability.
        let mut h = self.0.hash;
        let mut words = buf.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("chunk of 8 bytes"));
            h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        self.0.hash = h;
        self.0.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one sort returned that the checks compare.
#[derive(Clone, Debug)]
pub struct SortResult {
    pub sorted: Vec<K>,
    pub time_us: f64,
    pub stats: RunStats,
    pub run_file: Option<RunFile>,
}

/// A sort fails if its output differs from `sort_unstable` of its input
/// (`expected`), or if it disagrees with the seq engine's result of the
/// same input on the sorted keys, `time_us`, `RunStats` or the run-file
/// bytes.
pub fn check_sort(expected: &[K], seq: &SortResult, got: &SortResult) -> Result<(), String> {
    if got.sorted != expected {
        let at = got
            .sorted
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or(got.sorted.len().min(expected.len()));
        return Err(format!(
            "output differs from sort_unstable at index {at} (lengths {} and {})",
            got.sorted.len(),
            expected.len()
        ));
    }
    if got.sorted != seq.sorted {
        return Err("sorted keys differ from the seq engine's".into());
    }
    if got.time_us.to_bits() != seq.time_us.to_bits() {
        return Err(format!(
            "time_us {} differs from the seq engine's {}",
            got.time_us, seq.time_us
        ));
    }
    if got.stats != seq.stats {
        return Err(format!(
            "RunStats {:?} differ from the seq engine's {:?}",
            got.stats, seq.stats
        ));
    }
    if got.run_file != seq.run_file {
        return Err(format!(
            "run file {:?} differs from the seq engine's {:?}",
            got.run_file, seq.run_file
        ));
    }
    Ok(())
}

/// A campaign repetition fails if any run failed, or if its report JSON
/// differs from the first repetition's (`first`).
pub fn check_campaign(first: &str, report: &CampaignReport) -> Result<(), String> {
    let failed: u64 = report.cells.iter().map(|c| c.runs_failed).sum();
    if failed > 0 {
        return Err(format!("{failed} campaign runs failed"));
    }
    if report.to_json() != first {
        return Err("campaign report differs from the first repetition's".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::obs::campaign::CampaignAccumulator;
    use hypercube::sim::LinkModel;

    fn result(sorted: Vec<K>) -> SortResult {
        SortResult {
            sorted,
            time_us: 123.5,
            stats: RunStats {
                messages: 7,
                ..RunStats::default()
            },
            run_file: Some(RunFile { bytes: 10, hash: 3 }),
        }
    }

    fn tally_of(expected: &[K], seq: &SortResult, got: &SortResult) -> Tally {
        let mut tally = Tally::default();
        tally.record("sort", check_sort(expected, seq, got));
        tally
    }

    #[test]
    fn a_correct_sort_passes() {
        let expected = vec![1, 2, 3];
        let seq = result(expected.clone());
        let tally = tally_of(&expected, &seq, &seq.clone());
        assert_eq!((tally.attempted, tally.failed), (1, 0));
    }

    #[test]
    fn a_corrupted_output_counts_as_failed() {
        let expected = vec![1, 2, 3];
        let seq = result(expected.clone());
        let corruptions: [fn(&mut SortResult); 6] = [
            |r| r.sorted[1] = 9,
            |r| r.sorted.swap(0, 2),
            |r| {
                r.sorted.pop();
            },
            |r| r.time_us += 1e-9,
            |r| r.stats.comparisons += 1,
            |r| r.run_file = Some(RunFile { bytes: 10, hash: 4 }),
        ];
        for corrupt in corruptions {
            let mut got = seq.clone();
            corrupt(&mut got);
            let tally = tally_of(&expected, &seq, &got);
            assert_eq!((tally.attempted, tally.failed), (1, 1), "{got:?}");
        }
    }

    #[test]
    fn a_wrong_seq_reference_fails_even_when_sorted() {
        let expected = vec![1, 2, 3];
        let mut seq = result(expected.clone());
        seq.sorted = vec![1, 2, 4];
        assert!(check_sort(&expected, &seq, &result(expected.clone())).is_err());
    }

    #[test]
    fn run_file_digest_sees_every_byte() {
        let text = b"{\"version\":2,\"events\":[\n{\"t\":1}]}\n".to_vec();
        let mut a = RunFileWriter::default();
        a.write_all(&text).unwrap();
        for i in 0..text.len() {
            let mut flipped = text.clone();
            flipped[i] ^= 1;
            let mut b = RunFileWriter::default();
            b.write_all(&flipped).unwrap();
            assert_eq!(a.0.bytes, b.0.bytes);
            assert_ne!(a.0.hash, b.0.hash, "byte {i}");
        }
    }

    #[test]
    fn a_diverging_or_failed_campaign_counts_as_failed() {
        let report = |runs_failed: bool| {
            let mut acc = CampaignAccumulator::new(1, 1, 10, LinkModel::Uncontended, "i64");
            if runs_failed {
                acc.record_failure(4, 3);
            }
            acc.finish()
        };
        let first = report(false).to_json();
        assert!(check_campaign(&first, &report(false)).is_ok());
        assert!(check_campaign(&first, &report(true)).is_err());
        let other = CampaignAccumulator::new(2, 1, 10, LinkModel::Uncontended, "i64").finish();
        assert!(check_campaign(&first, &other).is_err());
    }
}
