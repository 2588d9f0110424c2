//! Property tests for address arithmetic and access matrices.

use std::collections::HashSet;

use acorr_mem::{pages_for, span_pages, AccessMatrix, PageId, PAGE_SIZE};
use acorr_sim::{check, DetRng};

/// `len` distinct `(thread, page)` observations, `len` drawn from
/// `lo..hi`, threads below `threads` and pages below `pages`.
fn observation_set(
    rng: &mut DetRng,
    (lo, hi): (u64, u64),
    threads: usize,
    pages: u32,
) -> HashSet<(usize, u32)> {
    let len = rng.range(lo, hi) as usize;
    let mut set = HashSet::new();
    while set.len() < len {
        set.insert((rng.index(threads), rng.next_below(u64::from(pages)) as u32));
    }
    set
}

/// span_pages partitions a byte range exactly: spans are contiguous,
/// page-ordered, cover every byte once, and agree with a naive loop.
#[test]
fn span_pages_partitions_exactly() {
    check("span_pages_partitions_exactly", 128, |rng| {
        let addr = rng.next_below(1_000_000);
        let len = rng.next_below(100_000);
        let spans: Vec<_> = span_pages(addr, len).collect();
        let total: u64 = spans.iter().map(|s| s.len() as u64).sum();
        assert_eq!(total, len);
        let mut cursor = addr;
        for s in &spans {
            assert_eq!(s.page.base_addr() + s.start as u64, cursor);
            assert!(s.end as usize <= PAGE_SIZE);
            assert!(s.start < s.end);
            cursor = s.page.base_addr() + s.end as u64;
        }
        if len > 0 {
            assert_eq!(cursor, addr + len);
            // Page count matches the arithmetic bound.
            let first = addr / PAGE_SIZE as u64;
            let last = (addr + len - 1) / PAGE_SIZE as u64;
            assert_eq!(spans.len() as u64, last - first + 1);
        }
    });
}

/// pages_for is the exact inverse bound of page packing.
#[test]
fn pages_for_is_tight() {
    check("pages_for_is_tight", 128, |rng| {
        let bytes = rng.next_below(10_000_000);
        let pages = pages_for(bytes);
        assert!(pages * (PAGE_SIZE as u64) >= bytes);
        if pages > 0 {
            assert!((pages - 1) * (PAGE_SIZE as u64) < bytes);
        }
    });
}

/// AccessMatrix CSV round-trips arbitrary observation sets.
#[test]
fn access_matrix_csv_round_trips() {
    check("access_matrix_csv_round_trips", 128, |rng| {
        let mut m = AccessMatrix::new(6, 64);
        for (t, p) in observation_set(rng, (0, 80), 6, 64) {
            m.record(t, PageId(p));
        }
        let back = AccessMatrix::from_csv(&m.to_csv()).expect("round trip");
        assert_eq!(back, m);
    });
}

/// Completeness is monotone under merging and capped at 1.
#[test]
fn completeness_is_monotone() {
    check("completeness_is_monotone", 128, |rng| {
        let mut truth = AccessMatrix::new(4, 32);
        for (t, p) in observation_set(rng, (1, 60), 4, 32) {
            truth.record(t, PageId(p));
        }
        let mut acc = AccessMatrix::new(4, 32);
        let mut last = acc.completeness_vs(&truth);
        for _ in 0..rng.next_below(60) {
            acc.record(rng.index(4), PageId(rng.next_below(32) as u32));
            let now = acc.completeness_vs(&truth);
            assert!(now >= last - 1e-12);
            assert!(now <= 1.0 + 1e-12);
            last = now;
        }
        acc.merge(&truth);
        assert!((acc.completeness_vs(&truth) - 1.0).abs() < 1e-12);
    });
}
