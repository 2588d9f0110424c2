//! Property tests for the simulation substrate: mapping constructors and
//! the regression fit.

use acorr_sim::{check, linear_fit, ClusterConfig, DetRng, Mapping};

/// Stretch is always balanced and contiguous for any cluster shape.
#[test]
fn stretch_is_balanced_and_contiguous() {
    check("stretch_is_balanced_and_contiguous", 64, |rng| {
        let nodes = rng.range(1, 12) as usize;
        let threads = nodes + rng.index(50);
        let cluster = ClusterConfig::new(nodes, threads).expect("valid");
        let m = Mapping::stretch(&cluster);
        assert!(m.is_balanced(), "{m}");
        // Contiguity: node indices are non-decreasing over thread order.
        for t in 1..threads {
            assert!(m.node_of(t - 1).idx() <= m.node_of(t).idx());
        }
        // Every node is populated.
        assert!(m.node_counts().iter().all(|&c| c > 0));
    });
}

/// random_min_two honors the ≥2 floor for every satisfiable shape and
/// covers exactly the requested thread count.
#[test]
fn random_min_two_honors_floor() {
    check("random_min_two_honors_floor", 64, |rng| {
        let nodes = rng.range(1, 8) as usize;
        let threads = 2 * nodes + rng.index(40);
        let cluster = ClusterConfig::new(nodes, threads).expect("valid");
        let m = Mapping::random_min_two(&cluster, &mut DetRng::new(rng.next_below(1000)));
        assert!(m.node_counts().iter().all(|&c| c >= 2));
        assert_eq!(m.node_counts().iter().sum::<usize>(), threads);
    });
}

/// Permutation preserves multiset of node counts and is a bijection on
/// threads.
#[test]
fn permutation_preserves_populations() {
    check("permutation_preserves_populations", 64, |rng| {
        let nodes = rng.range(1, 6) as usize;
        let threads = nodes + rng.index(30);
        let cluster = ClusterConfig::new(nodes, threads).expect("valid");
        let base = Mapping::stretch(&cluster);
        let p = base.permuted(&mut DetRng::new(rng.next_below(1000)));
        let mut a = base.node_counts();
        let mut b = p.node_counts();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    });
}

/// The least-squares fit is scale-equivariant: scaling y scales the
/// slope and intercept, and leaves |r| unchanged.
#[test]
fn linear_fit_scale_equivariance() {
    check("linear_fit_scale_equivariance", 64, |rng| {
        let len = rng.range(3, 40);
        let (xs, ys): (Vec<f64>, Vec<f64>) = (0..len)
            .map(|_| (rng.next_f64() * 1000.0, rng.next_f64() * 1000.0 - 500.0))
            .unzip();
        let scale = 1.0 + rng.next_f64() * 49.0;
        if xs.iter().all(|&x| (x - xs[0]).abs() <= 1e-9) {
            return; // no spread in x: the fit is undefined
        }
        let base = linear_fit(&xs, &ys).expect("x has spread");
        let scaled_ys: Vec<f64> = ys.iter().map(|y| y * scale).collect();
        let scaled = linear_fit(&xs, &scaled_ys).expect("same xs");
        assert!((scaled.slope - base.slope * scale).abs() < 1e-6 * scale.max(1.0));
        assert!((scaled.intercept - base.intercept * scale).abs() < 1e-4 * scale.max(1.0));
        assert!((scaled.r.abs() - base.r.abs()).abs() < 1e-9);
    });
}
