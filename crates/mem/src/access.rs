//! Access matrices.
//!
//! The output of a tracking phase (§4.2): for every thread, the set of
//! shared pages it touched during the tracked interval. The [`AccessMatrix`]
//! is the ground-truth object from which thread correlations, correlation
//! maps, cut costs and sharing degrees are all derived.

use crate::bitset::FixedBitset;
use crate::page::PageId;
use std::fmt;

/// Per-thread page-access bitmaps for one tracked interval.
///
/// ```
/// use acorr_mem::{AccessMatrix, PageId};
/// let mut m = AccessMatrix::new(3, 16);
/// m.record(0, PageId(2));
/// m.record(1, PageId(2));
/// m.record(1, PageId(3));
/// assert_eq!(m.shared_pages(0, 1), 1);
/// assert_eq!(m.pages_touched(1), 2);
/// assert_eq!(m.distinct_pages(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessMatrix {
    threads: usize,
    pages: usize,
    bitmaps: Vec<FixedBitset>,
}

impl AccessMatrix {
    /// Creates an empty matrix for `threads` threads over `pages` pages.
    pub fn new(threads: usize, pages: usize) -> Self {
        AccessMatrix {
            threads,
            pages,
            bitmaps: (0..threads).map(|_| FixedBitset::new(pages)).collect(),
        }
    }

    /// Number of threads covered.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Number of pages covered.
    pub fn num_pages(&self) -> usize {
        self.pages
    }

    /// Records that `thread` accessed `page`. Returns whether the
    /// observation was new.
    ///
    /// # Panics
    ///
    /// Panics if `thread` or `page` is out of range.
    pub fn record(&mut self, thread: usize, page: PageId) -> bool {
        self.bitmaps[thread].insert(page.idx())
    }

    /// Whether `thread` was observed accessing `page`.
    pub fn observed(&self, thread: usize, page: PageId) -> bool {
        self.bitmaps[thread].contains(page.idx())
    }

    /// The access bitmap of one thread.
    pub fn bitmap(&self, thread: usize) -> &FixedBitset {
        &self.bitmaps[thread]
    }

    /// Number of pages `thread` touched.
    pub fn pages_touched(&self, thread: usize) -> usize {
        self.bitmaps[thread].count()
    }

    /// Total observations across all threads (Σ per-thread page counts).
    pub fn total_observations(&self) -> usize {
        self.bitmaps.iter().map(|b| b.count()).sum()
    }

    /// Number of distinct pages touched by *any* thread.
    pub fn distinct_pages(&self) -> usize {
        let mut union = FixedBitset::new(self.pages);
        for b in &self.bitmaps {
            union.union_with(b);
        }
        union.count()
    }

    /// The thread correlation of §1: pages shared in common by the pair.
    pub fn shared_pages(&self, a: usize, b: usize) -> usize {
        self.bitmaps[a].intersection_count(&self.bitmaps[b])
    }

    /// Merges another matrix's observations into this one (used to
    /// accumulate passive observations across rounds).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &AccessMatrix) {
        assert_eq!(self.threads, other.threads, "thread counts differ");
        assert_eq!(self.pages, other.pages, "page counts differ");
        for (mine, theirs) in self.bitmaps.iter_mut().zip(&other.bitmaps) {
            mine.union_with(theirs);
        }
    }

    /// Fraction of `truth`'s observations also present here — the paper's
    /// Figure 2 "percentage of complete sharing information".
    ///
    /// Returns 1.0 when the ground truth is empty.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn completeness_vs(&self, truth: &AccessMatrix) -> f64 {
        assert_eq!(self.threads, truth.threads, "thread counts differ");
        assert_eq!(self.pages, truth.pages, "page counts differ");
        let total = truth.total_observations();
        if total == 0 {
            return 1.0;
        }
        let found: usize = self
            .bitmaps
            .iter()
            .zip(&truth.bitmaps)
            .map(|(mine, t)| mine.intersection_count(t))
            .sum();
        found as f64 / total as f64
    }
}

/// The largest dense shape [`AccessMatrix::from_csv`] builds: 2^28 bits
/// is 32 MiB of bitmaps, far above any tracked run's.
const MAX_CSV_BITS: usize = 1 << 28;

impl AccessMatrix {
    /// Serializes the matrix as sparse CSV: one `thread,page` line per
    /// observation, preceded by a `threads,pages` header line.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{},{}\n", self.threads, self.pages);
        for t in 0..self.threads {
            for p in self.bitmaps[t].iter_ones() {
                out.push_str(&format!("{t},{p}\n"));
            }
        }
        out
    }

    /// Parses the sparse CSV produced by [`AccessMatrix::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line or
    /// out-of-range observation.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("missing header line")?;
        let (t, p) = header
            .split_once(',')
            .ok_or_else(|| format!("bad header {header}"))?;
        let threads: usize = t.trim().parse().map_err(|e| format!("threads: {e}"))?;
        let pages: usize = p.trim().parse().map_err(|e| format!("pages: {e}"))?;
        // The CSV is sparse but the matrix is dense, so the header alone
        // sizes it: bound it (each thread costs at least a bitmap header).
        if threads.saturating_mul(pages.max(256)) > MAX_CSV_BITS {
            return Err(format!(
                "header {threads},{pages} exceeds {MAX_CSV_BITS} bitmap bits"
            ));
        }
        let mut m = AccessMatrix::new(threads, pages);
        for (i, line) in lines.enumerate() {
            let (t, p) = line
                .split_once(',')
                .ok_or_else(|| format!("line {}: bad row {line}", i + 2))?;
            let t: usize = t
                .trim()
                .parse()
                .map_err(|e| format!("line {}: {e}", i + 2))?;
            let p: u32 = p
                .trim()
                .parse()
                .map_err(|e| format!("line {}: {e}", i + 2))?;
            if t >= threads || p as usize >= pages {
                return Err(format!("line {}: ({t},{p}) out of range", i + 2));
            }
            m.record(t, PageId(p));
        }
        Ok(m)
    }
}

impl fmt::Display for AccessMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access matrix: {} threads x {} pages, {} observations over {} distinct pages",
            self.threads,
            self.pages,
            self.total_observations(),
            self.distinct_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AccessMatrix {
        let mut m = AccessMatrix::new(3, 8);
        // t0: {0,1}, t1: {1,2}, t2: {2,3}
        m.record(0, PageId(0));
        m.record(0, PageId(1));
        m.record(1, PageId(1));
        m.record(1, PageId(2));
        m.record(2, PageId(2));
        m.record(2, PageId(3));
        m
    }

    #[test]
    fn record_and_observe() {
        let mut m = AccessMatrix::new(2, 4);
        assert!(m.record(0, PageId(3)));
        assert!(!m.record(0, PageId(3)), "duplicate is not new");
        assert!(m.observed(0, PageId(3)));
        assert!(!m.observed(1, PageId(3)));
    }

    #[test]
    fn correlations_match_hand_count() {
        let m = sample();
        assert_eq!(m.shared_pages(0, 1), 1);
        assert_eq!(m.shared_pages(1, 2), 1);
        assert_eq!(m.shared_pages(0, 2), 0);
        assert_eq!(m.shared_pages(0, 0), 2, "self-correlation = own count");
    }

    #[test]
    fn totals() {
        let m = sample();
        assert_eq!(m.total_observations(), 6);
        assert_eq!(m.distinct_pages(), 4);
        assert_eq!(m.pages_touched(1), 2);
        assert_eq!(m.num_threads(), 3);
        assert_eq!(m.num_pages(), 8);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AccessMatrix::new(2, 4);
        a.record(0, PageId(0));
        let mut b = AccessMatrix::new(2, 4);
        b.record(0, PageId(1));
        b.record(1, PageId(2));
        a.merge(&b);
        assert!(a.observed(0, PageId(0)));
        assert!(a.observed(0, PageId(1)));
        assert!(a.observed(1, PageId(2)));
        assert_eq!(a.total_observations(), 3);
    }

    #[test]
    fn completeness_fractions() {
        let truth = sample();
        let mut partial = AccessMatrix::new(3, 8);
        assert_eq!(partial.completeness_vs(&truth), 0.0);
        partial.record(0, PageId(0));
        partial.record(0, PageId(1));
        partial.record(1, PageId(1));
        assert!((partial.completeness_vs(&truth) - 0.5).abs() < 1e-12);
        partial.merge(&truth);
        assert_eq!(partial.completeness_vs(&truth), 1.0);
        // Extra observations beyond the truth do not inflate the score.
        partial.record(2, PageId(7));
        assert_eq!(partial.completeness_vs(&truth), 1.0);
    }

    #[test]
    fn csv_round_trips() {
        let m = sample();
        let csv = m.to_csv();
        assert!(csv.starts_with("3,8\n"));
        let back = AccessMatrix::from_csv(&csv).unwrap();
        assert_eq!(back, m);
        // Empty matrix round-trips too.
        let empty = AccessMatrix::new(2, 4);
        assert_eq!(AccessMatrix::from_csv(&empty.to_csv()).unwrap(), empty);
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert!(AccessMatrix::from_csv("").is_err(), "no header");
        assert!(AccessMatrix::from_csv("2\n").is_err(), "bad header");
        assert!(AccessMatrix::from_csv("2,4\n1;2\n").is_err(), "bad row");
        assert!(AccessMatrix::from_csv("2,4\n5,0\n").is_err(), "thread oob");
        assert!(AccessMatrix::from_csv("2,4\n0,9\n").is_err(), "page oob");
        assert!(
            AccessMatrix::from_csv("99999999,99999999\n").is_err(),
            "unbounded header"
        );
    }

    #[test]
    fn completeness_of_empty_truth_is_one() {
        let truth = AccessMatrix::new(2, 4);
        let obs = AccessMatrix::new(2, 4);
        assert_eq!(obs.completeness_vs(&truth), 1.0);
    }

    #[test]
    #[should_panic(expected = "thread counts differ")]
    fn merge_shape_mismatch_panics() {
        AccessMatrix::new(2, 4).merge(&AccessMatrix::new(3, 4));
    }

    #[test]
    fn display_summarizes() {
        let m = sample();
        let s = m.to_string();
        assert!(s.contains("3 threads"));
        assert!(s.contains("6 observations"));
    }
}
