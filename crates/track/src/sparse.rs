//! Sparse correlation storage for production-scale thread counts.
//!
//! The dense [`CorrelationMatrix`] spends `8·T²` bytes whether threads share
//! or not — 8 TB at a million threads. Real correlation structure is sparse
//! (the paper's apps share along chains, blocks and a few hot pages), so
//! [`SparseCorrelation`] stores only the non-zero pairs, in compressed
//! sparse row (CSR) form: a dense diagonal, an `offsets` array of length
//! `T + 1` and one flat `entries` array of `(partner, value)` pairs, where
//! thread `t`'s row is `entries[offsets[t]..offsets[t + 1]]`. Rows are
//! sorted by partner, hold no zeros, and store every pair in both
//! directions. That gives `O(T + E)` memory in three allocations, `O(deg)`
//! neighbor iteration for the multilevel partitioner, and whole-store
//! rewrites (build, merge, aging, snapshot) that stream through one pair of
//! flat arrays instead of allocating a list per thread. Single-pair
//! [`set`](SparseCorrelation::set)/[`add`](SparseCorrelation::add) shift
//! the flat arrays and cost `O(T + E)`; they are for tests and small
//! builders, while bulk data goes through
//! [`from_edges`](SparseCorrelation::from_edges) and
//! [`merge`](SparseCorrelation::merge).
//!
//! Determinism and equivalence contracts (tested against the dense matrix):
//!
//! * the layout is canonical — equal data gives equal arrays, so derived
//!   `==` is value equality however a store was built;
//! * iteration is always in ascending `(a, b)` order, so every consumer sum
//!   and tie-break reproduces the dense code paths bit-for-bit;
//! * [`SparseCorrelation::delta`] performs the same order-independent `u64`
//!   diff/mass sums as [`correlation_delta`](crate::correlation_delta) —
//!   identical `f64` results;
//! * [`SparseAged`] applies the exact per-pair `f64` sequence of
//!   [`AgedCorrelation`](crate::AgedCorrelation) (`val·decay + round`);
//!   pairs absent from both sides are exact zeros under that recurrence, so
//!   dropping them — the aging-aware compaction — is lossless. An edge only
//!   leaves the accumulator when decay underflows it to exactly `0.0`;
//!   [`SparseAged::compact`] offers an explicit thresholded drop for
//!   bounded-memory long runs, documented as an approximation.

use crate::correlation::CorrelationMatrix;
use crate::store::{AgedStore, CorrelationStore};
use std::cmp::Ordering;
use std::fmt;

/// Symmetric rows in CSR form: row `t` is `entries[offsets[t]..offsets[t + 1]]`,
/// sorted by partner, zero-free, every pair stored on both endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows<V> {
    offsets: Vec<usize>,
    entries: Vec<(u32, V)>,
}

impl<V: Copy> Rows<V> {
    fn empty(n: usize) -> Self {
        Rows {
            offsets: vec![0; n + 1],
            entries: Vec::new(),
        }
    }

    /// Writes rows `0..n` in order into one pair of flat arrays: `fill(t, out)`
    /// appends row `t`'s entries, sorted and zero-free.
    fn build(n: usize, capacity: usize, mut fill: impl FnMut(usize, &mut Vec<(u32, V)>)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(capacity);
        offsets.push(0);
        for t in 0..n {
            fill(t, &mut entries);
            offsets.push(entries.len());
        }
        Rows { offsets, entries }
    }

    fn row(&self, t: usize) -> &[(u32, V)] {
        &self.entries[self.offsets[t]..self.offsets[t + 1]]
    }

    fn get(&self, t: usize, key: u32) -> Option<V> {
        let row = self.row(t);
        row.binary_search_by_key(&key, |e| e.0)
            .ok()
            .map(|i| row[i].1)
    }

    /// Number of unordered pairs (each is stored twice).
    fn pairs(&self) -> usize {
        self.entries.len() / 2
    }
}

impl Rows<u64> {
    /// Sets `(t, key)` in row `t` only; zero removes it. Inserting or
    /// removing shifts the tail of the flat arrays: `O(T + E)`.
    fn put(&mut self, t: usize, key: u32, v: u64) {
        let start = self.offsets[t];
        match self.row(t).binary_search_by_key(&key, |e| e.0) {
            Ok(i) if v > 0 => self.entries[start + i].1 = v,
            Ok(i) => {
                self.entries.remove(start + i);
                for o in &mut self.offsets[t + 1..] {
                    *o -= 1;
                }
            }
            Err(i) if v > 0 => {
                self.entries.insert(start + i, (key, v));
                for o in &mut self.offsets[t + 1..] {
                    *o += 1;
                }
            }
            Err(_) => {}
        }
    }
}

/// Walks the union of two partner-sorted rows in ascending partner order,
/// calling `f(partner, mine, theirs)` with `None` for a side that lacks
/// the partner — the one sorted-row merge behind `merge`, `delta` and
/// `SparseAged::observe`.
fn merge_rows<A: Copy, B: Copy>(
    mine: &[(u32, A)],
    theirs: &[(u32, B)],
    mut f: impl FnMut(u32, Option<A>, Option<B>),
) {
    let (mut i, mut j) = (0, 0);
    while i < mine.len() && j < theirs.len() {
        let ((a, va), (b, vb)) = (mine[i], theirs[j]);
        match a.cmp(&b) {
            Ordering::Equal => {
                f(a, Some(va), Some(vb));
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                f(a, Some(va), None);
                i += 1;
            }
            Ordering::Greater => {
                f(b, None, Some(vb));
                j += 1;
            }
        }
    }
    for &(a, va) in &mine[i..] {
        f(a, Some(va), None);
    }
    for &(b, vb) in &theirs[j..] {
        f(b, None, Some(vb));
    }
}

/// A symmetric sparse correlation store: CSR rows of non-zero partners
/// sorted by partner, plus a dense diagonal (own page counts).
///
/// ```
/// use acorr_track::{CorrelationStore, SparseCorrelation};
/// let mut s = SparseCorrelation::zeros(1_000_000);
/// s.set(3, 999_999, 7);
/// assert_eq!(s.get(999_999, 3), 7);
/// assert_eq!(s.edge_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseCorrelation {
    n: usize,
    diag: Vec<u64>,
    rows: Rows<u64>,
}

impl SparseCorrelation {
    /// An empty store over `n` threads.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32` range (the partner index width).
    pub fn zeros(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "thread count exceeds u32 range");
        SparseCorrelation {
            n,
            diag: vec![0; n],
            rows: Rows::empty(n),
        }
    }

    /// Builds a store from an edge list; duplicate `(a, b)` entries sum,
    /// `(t, t)` entries accumulate onto the diagonal, zero values drop.
    /// The input order is irrelevant (sums commute), so parallel generators
    /// produce identical stores regardless of chunking.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32, u64)>) -> Self {
        let mut s = SparseCorrelation::zeros(n);
        let flat: Vec<(u32, u32, u64)> = edges.into_iter().collect();
        // Counting sort: count each row's entries into `offsets[t + 1]`,
        // turn the counts into row starts, then scatter with
        // `offsets[t + 1]` as row `t`'s cursor — it ends on the row's end.
        let offsets = &mut s.rows.offsets;
        for &(a, b, v) in &flat {
            let (a, b) = (a as usize, b as usize);
            assert!(a < n && b < n, "edge endpoint out of range");
            if v != 0 && a != b {
                offsets[a + 1] += 1;
                offsets[b + 1] += 1;
            }
        }
        let mut total = 0;
        for o in &mut offsets[1..] {
            let count = *o;
            *o = total;
            total += count;
        }
        let entries = &mut s.rows.entries;
        entries.resize(total, (0, 0));
        for &(a, b, v) in &flat {
            let (a, b) = (a as usize, b as usize);
            if v == 0 {
                continue;
            }
            if a == b {
                s.diag[a] += v;
            } else {
                entries[offsets[a + 1]] = (b as u32, v);
                offsets[a + 1] += 1;
                entries[offsets[b + 1]] = (a as u32, v);
                offsets[b + 1] += 1;
            }
        }
        // Sort each row, then coalesce duplicates (sums commute) while
        // compacting the rows toward the front of the flat array.
        let mut write = 0;
        let mut start = 0;
        for t in 0..n {
            let end = offsets[t + 1];
            entries[start..end].sort_unstable_by_key(|e| e.0);
            offsets[t] = write;
            for i in start..end {
                if write > offsets[t] && entries[write - 1].0 == entries[i].0 {
                    entries[write - 1].1 += entries[i].1;
                } else {
                    entries[write] = entries[i];
                    write += 1;
                }
            }
            start = end;
        }
        offsets[n] = write;
        entries.truncate(write);
        s
    }

    /// Converts a dense matrix (drops zero pairs, keeps the diagonal).
    pub fn from_dense(m: &CorrelationMatrix) -> Self {
        let n = m.num_threads();
        SparseCorrelation {
            n,
            diag: (0..n).map(|t| m.get(t, t)).collect(),
            // Both directions of a pair read its upper-triangle cell.
            rows: Rows::build(n, 0, |t, out| {
                for u in (0..n).filter(|&u| u != t) {
                    let v = m.get(t.min(u), t.max(u));
                    if v > 0 {
                        out.push((u as u32, v));
                    }
                }
            }),
        }
    }

    /// Expands into a dense matrix (for small-T equivalence checks).
    pub fn to_dense(&self) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::zeros(self.n);
        for t in 0..self.n {
            m.set(t, t, self.diag[t]);
            for &(u, v) in self.rows.row(t) {
                m.set(t, u as usize, v);
            }
        }
        m
    }

    /// Number of threads covered.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// The non-zero partners of `t`, sorted ascending: `(partner, value)`.
    pub fn neighbors(&self, t: usize) -> &[(u32, u64)] {
        self.rows.row(t)
    }

    /// The correlation of a thread pair (diagonal: own page count).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, a: usize, b: usize) -> u64 {
        if a == b {
            self.diag[a]
        } else {
            assert!(a < self.n && b < self.n, "index out of range");
            self.rows.get(a, b as u32).unwrap_or(0)
        }
    }

    /// Sets both symmetric entries (zero removes the pair). Adding or
    /// removing a pair costs `O(T + E)`; bulk data belongs in
    /// [`from_edges`](SparseCorrelation::from_edges).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, a: usize, b: usize, v: u64) {
        assert!(a < self.n && b < self.n, "index out of range");
        if a == b {
            self.diag[a] = v;
        } else {
            self.rows.put(a, b as u32, v);
            self.rows.put(b, a as u32, v);
        }
    }

    /// Adds `v` to both symmetric entries; `O(T + E)` like
    /// [`set`](SparseCorrelation::set).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn add(&mut self, a: usize, b: usize, v: u64) {
        assert!(a < self.n && b < self.n, "index out of range");
        if v > 0 {
            let cur = self.get(a, b);
            self.set(a, b, cur + v);
        }
    }

    /// Accumulates another store (elementwise sum, diagonal included) by
    /// merging sorted rows in `O(T + E₁ + E₂)`.
    ///
    /// # Panics
    ///
    /// Panics if the stores cover different thread counts.
    pub fn merge(&mut self, other: &SparseCorrelation) {
        assert_eq!(self.n, other.n, "stores must cover the same threads");
        for (d, o) in self.diag.iter_mut().zip(&other.diag) {
            *d += o;
        }
        // The first round of every detector window lands in an empty store.
        if self.rows.entries.is_empty() {
            self.rows.clone_from(&other.rows);
            return;
        }
        let capacity = self.rows.entries.len() + other.rows.entries.len();
        self.rows = Rows::build(self.n, capacity, |t, out| {
            merge_rows(self.rows.row(t), other.rows.row(t), |u, a, b| {
                out.push((u, a.unwrap_or(0) + b.unwrap_or(0)));
            });
        });
    }

    /// Number of non-zero unordered pairs.
    pub fn edge_count(&self) -> usize {
        self.rows.pairs()
    }

    /// Normalized L1 divergence against `other` — bit-identical to
    /// [`correlation_delta`](crate::correlation_delta) on dense
    /// expansions of the same data (`u64` sums commute; zero pairs
    /// contribute nothing; one final `f64` division).
    ///
    /// # Panics
    ///
    /// Panics if the stores cover different thread counts.
    pub fn delta(&self, other: &SparseCorrelation) -> f64 {
        assert_eq!(self.n, other.n, "stores must cover the same threads");
        let mut diff = 0u64;
        let mut mass = 0u64;
        for t in 0..self.n {
            merge_rows(self.rows.row(t), other.rows.row(t), |u, a, b| {
                if u as usize > t {
                    let (va, vb) = (a.unwrap_or(0), b.unwrap_or(0));
                    diff += va.abs_diff(vb);
                    mass += va + vb;
                }
            });
        }
        if mass == 0 {
            0.0
        } else {
            (diff as f64 / mass as f64).min(1.0)
        }
    }
}

impl fmt::Display for SparseCorrelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sparse correlation: {} threads, {} edges",
            self.n,
            self.edge_count()
        )
    }
}

impl CorrelationStore for SparseCorrelation {
    type Aged = SparseAged;

    fn zeros(n: usize) -> Self {
        SparseCorrelation::zeros(n)
    }

    fn num_threads(&self) -> usize {
        self.num_threads()
    }

    fn get(&self, a: usize, b: usize) -> u64 {
        self.get(a, b)
    }

    fn set(&mut self, a: usize, b: usize, v: u64) {
        self.set(a, b, v);
    }

    fn add(&mut self, a: usize, b: usize, v: u64) {
        self.add(a, b, v);
    }

    fn merge(&mut self, other: &Self) {
        self.merge(other);
    }

    fn delta(&self, other: &Self) -> f64 {
        self.delta(other)
    }

    fn for_each_edge(&self, mut f: impl FnMut(usize, usize, u64)) {
        let mut start = 0;
        for (t, &end) in self.rows.offsets[1..].iter().enumerate() {
            for &(u, v) in &self.rows.entries[start..end] {
                if u as usize > t {
                    f(t, u as usize, v);
                }
            }
            start = end;
        }
    }

    fn for_each_neighbor(&self, t: usize, mut f: impl FnMut(usize, u64)) {
        for &(u, v) in self.rows.row(t) {
            f(u as usize, v);
        }
    }

    fn edge_count(&self) -> usize {
        self.edge_count()
    }
}

/// Exponentially aged accumulation over a [`SparseCorrelation`] — the
/// sparse twin of [`AgedCorrelation`], same arithmetic per present pair,
/// same CSR layout with `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseAged {
    n: usize,
    decay: f64,
    rounds: usize,
    diag: Vec<f64>,
    rows: Rows<f64>,
}

impl SparseAged {
    /// Creates an empty accumulator over `n` threads with retention factor
    /// `decay` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= decay < 1.0`.
    pub fn new(n: usize, decay: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&decay),
            "decay must be in [0, 1), got {decay}"
        );
        SparseAged {
            n,
            decay,
            rounds: 0,
            diag: vec![0.0; n],
            rows: Rows::empty(n),
        }
    }

    /// Number of threads covered.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// Number of observations folded in so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The aged value for one pair.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        if a == b {
            self.diag[a]
        } else {
            self.rows.get(a, b as u32).unwrap_or(0.0)
        }
    }

    /// Number of pairs currently held (memory proxy for compaction tests).
    pub fn edge_count(&self) -> usize {
        self.rows.pairs()
    }

    /// Folds in a new tracking round: per pair present on either side,
    /// `val = val * decay + round` — the exact dense recurrence. Pairs the
    /// decay underflows to exactly `0.0` are dropped (lossless: the dense
    /// recurrence keeps them at `0.0` forever after).
    ///
    /// # Panics
    ///
    /// Panics if the round covers a different thread count.
    pub fn observe(&mut self, round: &SparseCorrelation) {
        assert_eq!(round.num_threads(), self.n, "thread counts differ");
        let decay = self.decay;
        for (d, &r) in self.diag.iter_mut().zip(&round.diag) {
            *d = *d * decay + r as f64;
        }
        let capacity = self.rows.entries.len().max(round.rows.entries.len());
        self.rows = Rows::build(self.n, capacity, |t, out| {
            merge_rows(self.rows.row(t), round.rows.row(t), |u, a, b| {
                let next = match (a, b) {
                    (Some(va), Some(vb)) => va * decay + vb as f64,
                    (Some(va), None) => va * decay,
                    // 0.0 * decay + vb == vb exactly.
                    (None, Some(vb)) => vb as f64,
                    (None, None) => unreachable!("a merged partner is on one side"),
                };
                if next != 0.0 {
                    out.push((u, next));
                }
            });
        });
        self.rounds += 1;
    }

    /// Drops every pair whose aged value is below `min_value` — an explicit
    /// **approximation** for bounded-memory long runs (snapshots may differ
    /// from the dense accumulator by the dropped mass). The default
    /// [`observe`](SparseAged::observe) path never needs this: it only
    /// drops exact zeros. Returns the number of pairs dropped.
    pub fn compact(&mut self, min_value: f64) -> usize {
        let before = self.rows.pairs();
        self.rows = Rows::build(self.n, self.rows.entries.len(), |t, out| {
            out.extend(self.rows.row(t).iter().filter(|e| e.1 >= min_value));
        });
        before - self.rows.pairs()
    }

    /// Rounds the aged values into a [`SparseCorrelation`] usable by the
    /// placement heuristics — same normalization and rounding as
    /// [`AgedCorrelation::snapshot`](crate::AgedCorrelation::snapshot).
    pub fn snapshot(&self) -> SparseCorrelation {
        let weight: f64 = (0..self.rounds).map(|r| self.decay.powi(r as i32)).sum();
        let scale = if weight > 0.0 { 1.0 / weight } else { 0.0 };
        SparseCorrelation {
            n: self.n,
            diag: self
                .diag
                .iter()
                .map(|&v| (v * scale).round() as u64)
                .collect(),
            // Both directions of a pair hold bit-identical aged values (every
            // update applies the same operations to both), so rounding row by
            // row keeps the snapshot symmetric.
            rows: Rows::build(self.n, self.rows.entries.len(), |t, out| {
                for &(u, v) in self.rows.row(t) {
                    let sv = (v * scale).round() as u64;
                    if sv > 0 {
                        out.push((u, sv));
                    }
                }
            }),
        }
    }
}

impl fmt::Display for SparseAged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sparse aged correlation: {} threads, decay {}, {} rounds",
            self.n, self.decay, self.rounds
        )
    }
}

impl AgedStore<SparseCorrelation> for SparseAged {
    fn new(n: usize, decay: f64) -> Self {
        SparseAged::new(n, decay)
    }

    fn num_threads(&self) -> usize {
        self.num_threads()
    }

    fn rounds(&self) -> usize {
        self.rounds()
    }

    fn observe(&mut self, round: &SparseCorrelation) {
        self.observe(round);
    }

    fn snapshot(&self) -> SparseCorrelation {
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aging::AgedCorrelation;
    use crate::delta::correlation_delta;
    use acorr_sim::{check, DetRng};

    /// The store's contents as a shuffled edge list that `from_edges` must
    /// fold back into the same store: every pair and diagonal cell arrives
    /// split in two pieces (pairs once in each orientation, pieces may be
    /// zero), plus `n` zero-weight edges between random threads.
    fn scrambled_edges(s: &SparseCorrelation, rng: &mut DetRng) -> Vec<(u32, u32, u64)> {
        let n = s.num_threads();
        let mut edges = Vec::new();
        for t in 0..n {
            let d = s.get(t, t);
            let part = rng.next_below(d + 1);
            edges.push((t as u32, t as u32, part));
            edges.push((t as u32, t as u32, d - part));
        }
        CorrelationStore::for_each_edge(s, |a, b, v| {
            let part = rng.next_below(v + 1);
            edges.push((a as u32, b as u32, part));
            edges.push((b as u32, a as u32, v - part));
        });
        for _ in 0..n {
            let a = rng.index(n) as u32;
            let b = rng.index(n) as u32;
            edges.push((a, b, 0));
        }
        rng.shuffle(&mut edges);
        edges
    }

    /// Every builder reaches the same canonical arrays from the same data:
    /// `from_dense`, `from_edges`, `add`, a two-part `merge`, and merges
    /// into and from an empty store.
    fn assert_builders_agree(
        sparse: &SparseCorrelation,
        dense: &CorrelationMatrix,
        rng: &mut DetRng,
    ) {
        let n = dense.num_threads();
        assert_eq!(sparse.to_dense(), *dense, "stores diverged");
        assert_eq!(SparseCorrelation::from_dense(dense), *sparse, "from_dense");
        let edges = scrambled_edges(sparse, rng);
        assert_eq!(
            SparseCorrelation::from_edges(n, edges.iter().copied()),
            *sparse,
            "from_edges"
        );
        let mut by_add = SparseCorrelation::zeros(n);
        for &(a, b, v) in &edges {
            by_add.add(a as usize, b as usize, v);
        }
        assert_eq!(by_add, *sparse, "add");
        let (head, tail) = edges.split_at(edges.len() / 2);
        let mut merged = SparseCorrelation::from_edges(n, head.iter().copied());
        merged.merge(&SparseCorrelation::from_edges(n, tail.iter().copied()));
        assert_eq!(merged, *sparse, "two-part merge");
        let mut into_empty = SparseCorrelation::zeros(n);
        into_empty.merge(sparse);
        assert_eq!(into_empty, *sparse, "merge into an empty store");
        let mut from_empty = sparse.clone();
        from_empty.merge(&SparseCorrelation::zeros(n));
        assert_eq!(from_empty, *sparse, "merge from an empty store");
    }

    /// Arbitrary set/add/merge/aging/delta streams keep sparse and dense
    /// stores byte-equal (snapshots, deltas and aged values included),
    /// and every builder reaches the same arrays. Shapes span the
    /// degenerate stores (1 and 2 threads), small ones and, in about one
    /// case in 32 (its dense mirror is slow), one past 256; an `interior`
    /// stream avoids threads `0` and `n - 1`, so the first and last rows
    /// stay empty.
    #[test]
    fn sparse_equals_dense_on_random_streams() {
        check("sparse_equals_dense_on_random_streams", 256, |rng| {
            let n = if rng.chance(1.0 / 32.0) {
                257
            } else {
                [1, 2, 8, 13][rng.index(4)]
            };
            let interior = n > 2 && rng.chance(0.25);
            let decay = rng.next_f64() * 0.99;
            let steps = rng.next_below(150);
            let pick = |rng: &mut DetRng| {
                if interior {
                    1 + rng.index(n - 2)
                } else {
                    rng.index(n)
                }
            };
            let mut dense = CorrelationMatrix::zeros(n);
            let mut sparse = SparseCorrelation::zeros(n);
            let mut dense_aged = AgedCorrelation::new(n, decay);
            let mut sparse_aged = SparseAged::new(n, decay);
            for step in 0..steps {
                match rng.next_below(5) {
                    0 => {
                        let (a, b) = (pick(rng), pick(rng));
                        let v = rng.next_below(32);
                        dense.set(a, b, v);
                        sparse.set(a, b, v);
                    }
                    1 => {
                        let (a, b) = (pick(rng), pick(rng));
                        let v = rng.next_below(32);
                        dense.set(a, b, dense.get(a, b) + v);
                        sparse.add(a, b, v);
                    }
                    2 => {
                        // Merge in a random round.
                        let mut round_d = CorrelationMatrix::zeros(n);
                        for _ in 0..rng.next_below(8) {
                            let (a, b) = (pick(rng), pick(rng));
                            round_d.set(a, b, rng.next_below(9));
                        }
                        let round_s = SparseCorrelation::from_dense(&round_d);
                        dense.merge(&round_d);
                        sparse.merge(&round_s);
                    }
                    3 => {
                        dense_aged.observe(&dense);
                        sparse_aged.observe(&sparse);
                    }
                    _ => {
                        // Delta against a perturbed copy must agree bit-for-bit.
                        let mut other_d = dense.clone();
                        let (a, b) = (rng.index(n), rng.index(n));
                        if a != b {
                            other_d.set(a, b, rng.next_below(32));
                        }
                        let other_s = SparseCorrelation::from_dense(&other_d);
                        let dd = correlation_delta(&dense, &other_d);
                        let ds = sparse.delta(&other_s);
                        assert_eq!(dd.to_bits(), ds.to_bits(), "delta bits diverged");
                    }
                }
                // `add` rebuilds cost O(T + E) per pair: sample them at scale.
                if n <= 16 || step % 20 == 0 || step + 1 == steps {
                    assert_builders_agree(&sparse, &dense, rng);
                } else {
                    assert_eq!(sparse.to_dense(), dense, "stores diverged");
                }
            }
            if interior {
                for t in [0, n - 1] {
                    assert!(sparse.neighbors(t).is_empty(), "row {t} stays empty");
                }
            }
            let ds = sparse.delta(&SparseCorrelation::from_dense(&dense));
            assert_eq!(ds.to_bits(), correlation_delta(&dense, &dense).to_bits());
            // Aged accumulators agree bit-for-bit, value by value.
            assert_eq!(dense_aged.rounds(), sparse_aged.rounds());
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        dense_aged.get(a, b).to_bits(),
                        sparse_aged.get(a, b).to_bits(),
                        "aged ({a},{b}) diverged"
                    );
                }
            }
            assert_eq!(sparse_aged.snapshot().to_dense(), dense_aged.snapshot());
        });
    }

    #[test]
    fn compact_then_observe_then_snapshot() {
        // Round 1's pairs decay for 40 quiet rounds to ~1e-12 and are
        // compacted away; round 2's pairs are held. After one more round,
        // every held pair still matches the dense accumulator bit for bit,
        // and the dropped mass is too small to move any snapshot cell.
        let n = 13;
        let mut rng = DetRng::new(11);
        let mut random_round = |lo: usize| {
            let mut m = CorrelationMatrix::zeros(n);
            for _ in 0..12 {
                let a = lo + rng.index(n - lo - 1);
                let b = lo + rng.index(n - lo - 1);
                m.set(a, b, 1 + rng.next_below(9));
            }
            m
        };
        // Rows 0 and n - 1 stay empty in rounds 2 and 3.
        let rounds = [random_round(0), random_round(1), random_round(1)];
        let mut dense = AgedCorrelation::new(n, 0.5);
        let mut sparse = SparseAged::new(n, 0.5);
        let mut feed = |m: &CorrelationMatrix| {
            dense.observe(m);
            sparse.observe(&SparseCorrelation::from_dense(m));
        };
        feed(&rounds[0]);
        for _ in 0..40 {
            feed(&CorrelationMatrix::zeros(n));
        }
        feed(&rounds[1]);
        let held = |m: &CorrelationMatrix, a: usize, b: usize| m.get(a, b) > 0;
        let decayed = rounds[0]
            .pairs()
            .filter(|&(a, b, v)| v > 0 && !held(&rounds[1], a, b))
            .count();
        assert!(decayed > 0, "round 1 leaves pairs to compact");
        assert_eq!(sparse.compact(1e-6), decayed);
        assert_eq!(
            sparse.edge_count(),
            rounds[1].pairs().filter(|p| p.2 > 0).count()
        );
        dense.observe(&rounds[2]);
        sparse.observe(&SparseCorrelation::from_dense(&rounds[2]));
        for a in 0..n {
            for b in 0..n {
                if a == b || held(&rounds[1], a, b) || !held(&rounds[0], a, b) {
                    assert_eq!(
                        dense.get(a, b).to_bits(),
                        sparse.get(a, b).to_bits(),
                        "held ({a},{b})"
                    );
                } else {
                    assert_eq!(
                        sparse.get(a, b),
                        rounds[2].get(a, b) as f64,
                        "dropped ({a},{b})"
                    );
                }
            }
        }
        assert_eq!(sparse.snapshot().to_dense(), dense.snapshot());
    }

    #[test]
    fn set_get_add_and_removal() {
        let mut s = SparseCorrelation::zeros(5);
        s.set(1, 4, 9);
        s.add(4, 1, 1);
        assert_eq!(s.get(1, 4), 10);
        assert_eq!(s.edge_count(), 1);
        s.set(4, 1, 0);
        assert_eq!(s.get(1, 4), 0);
        assert_eq!(s.edge_count(), 0, "zero removes the pair");
        s.set(2, 2, 5);
        assert_eq!(s.get(2, 2), 5);
    }

    #[test]
    fn from_edges_aggregates_in_any_order() {
        let fwd = SparseCorrelation::from_edges(4, vec![(0, 1, 2), (1, 0, 3), (2, 3, 1)]);
        let rev = SparseCorrelation::from_edges(4, vec![(2, 3, 1), (0, 1, 3), (0, 1, 2)]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.get(0, 1), 5);
        let mut edges = Vec::new();
        CorrelationStore::for_each_edge(&fwd, |a, b, v| edges.push((a, b, v)));
        assert_eq!(edges, vec![(0, 1, 5), (2, 3, 1)]);
    }

    #[test]
    fn from_edges_drops_zeros_and_folds_self_loops_and_duplicates() {
        let s = SparseCorrelation::from_edges(
            6,
            vec![
                (3, 1, 2),
                (2, 2, 3),
                (1, 3, 0),
                (4, 0, 0),
                (1, 3, 4),
                (2, 2, 1),
                (3, 1, 1),
                (5, 5, 0),
            ],
        );
        let mut by_set = SparseCorrelation::zeros(6);
        by_set.set(1, 3, 7);
        by_set.set(2, 2, 4);
        assert_eq!(s, by_set);
        assert_eq!(s.edge_count(), 1);
        assert_eq!(s.neighbors(1), &[(3, 7)]);
        assert!(s.neighbors(0).is_empty() && s.neighbors(5).is_empty());
    }

    #[test]
    fn dense_round_trip() {
        let mut m = CorrelationMatrix::zeros(6);
        m.set(0, 3, 4);
        m.set(3, 5, 2);
        m.set(2, 2, 9);
        let s = SparseCorrelation::from_dense(&m);
        assert_eq!(s.to_dense(), m);
        assert_eq!(s.neighbors(3), &[(0, 4), (5, 2)]);
    }

    #[test]
    fn aged_compaction_drops_decayed_edges() {
        let mut aged = SparseAged::new(4, 0.5);
        let mut round = SparseCorrelation::zeros(4);
        round.set(0, 1, 100);
        aged.observe(&round);
        let quiet = SparseCorrelation::zeros(4);
        for _ in 0..20 {
            aged.observe(&quiet);
        }
        assert_eq!(aged.edge_count(), 1, "still decaying, still held");
        assert!(aged.get(0, 1) > 0.0);
        assert_eq!(aged.compact(1e-3), 1);
        assert_eq!(aged.edge_count(), 0);
        assert_eq!(aged.get(0, 1), 0.0);
    }

    #[test]
    fn aged_underflow_drop_is_exact() {
        // Exact-zero drops are lossless: 0.0 is absorbing under the dense
        // recurrence too.
        let mut aged = SparseAged::new(2, 0.0);
        let mut round = SparseCorrelation::zeros(2);
        round.set(0, 1, 7);
        aged.observe(&round);
        assert_eq!(aged.edge_count(), 1);
        // decay = 0.0 underflows the edge on the next quiet round.
        aged.observe(&SparseCorrelation::zeros(2));
        assert_eq!(aged.edge_count(), 0);
        assert_eq!(aged.get(0, 1), 0.0);
    }

    #[test]
    fn merge_is_commutative() {
        let a = SparseCorrelation::from_edges(5, vec![(0, 1, 3), (2, 4, 7)]);
        let b = SparseCorrelation::from_edges(5, vec![(0, 1, 1), (1, 3, 2)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(0, 1), 4);
    }

    #[test]
    #[should_panic(expected = "same threads")]
    fn merge_shape_mismatch_panics() {
        SparseCorrelation::zeros(2).merge(&SparseCorrelation::zeros(3));
    }

    #[test]
    fn display_summarizes() {
        let s = SparseCorrelation::from_edges(3, vec![(0, 2, 1)]);
        assert!(s.to_string().contains("3 threads, 1 edges"));
        assert!(SparseAged::new(3, 0.25).to_string().contains("3 threads"));
    }
}
