//! Property-based engine tests: random well-formed programs (barrier
//! aligned, lock balanced, ascending lock nesting) must run deadlock-free,
//! deterministically, and uphold the protocol invariants.

use acorr_dsm::{Dsm, DsmConfig, LockId, Op, Program, WriteMode};
use acorr_mem::PAGE_SIZE;
use acorr_sim::{check, ClusterConfig, DetRng, FaultPlan, Mapping, SimDuration};

const PAGES: u64 = 8;
const LOCKS: usize = 3;
/// Generated programs per property, after the recorded regressions.
const CASES: usize = 64;

/// One generated atom of work.
#[derive(Debug, Clone)]
enum Atom {
    Read {
        page: u64,
        off: u64,
        len: u64,
    },
    Write {
        page: u64,
        off: u64,
        len: u64,
    },
    Compute(u64),
    /// A critical section over `lock`, containing simple accesses.
    Locked {
        lock: usize,
        body: Vec<(bool, u64)>,
    },
}

#[derive(Debug, Clone)]
struct GenProgram {
    threads: usize,
    /// segments[segment][thread] = atoms
    segments: Vec<Vec<Vec<Atom>>>,
}

impl Program for GenProgram {
    fn name(&self) -> &str {
        "generated"
    }
    fn shared_bytes(&self) -> u64 {
        PAGES * PAGE_SIZE as u64
    }
    fn num_threads(&self) -> usize {
        self.threads
    }
    fn num_locks(&self) -> usize {
        LOCKS
    }
    fn script(&self, thread: usize, _iteration: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for (s, segment) in self.segments.iter().enumerate() {
            for atom in &segment[thread] {
                match *atom {
                    Atom::Read { page, off, len } => {
                        ops.push(Op::read(page * PAGE_SIZE as u64 + off, len));
                    }
                    Atom::Write { page, off, len } => {
                        ops.push(Op::write(page * PAGE_SIZE as u64 + off, len));
                    }
                    Atom::Compute(ns) => ops.push(Op::compute(ns)),
                    Atom::Locked { lock, ref body } => {
                        ops.push(Op::Lock(LockId(lock as u16)));
                        for &(is_write, page) in body {
                            let addr = page * PAGE_SIZE as u64;
                            if is_write {
                                ops.push(Op::write(addr, 64));
                            } else {
                                ops.push(Op::read(addr, 64));
                            }
                        }
                        ops.push(Op::Unlock(LockId(lock as u16)));
                    }
                }
            }
            if s + 1 < self.segments.len() {
                ops.push(Op::Barrier);
            }
        }
        ops
    }
}

fn atom(rng: &mut DetRng) -> Atom {
    let access = |rng: &mut DetRng| {
        let (page, off) = (rng.next_below(PAGES), rng.next_below(3000));
        let len = rng.range(1, 1024).min(PAGE_SIZE as u64 - off);
        (page, off, len)
    };
    match rng.next_below(4) {
        0 => {
            let (page, off, len) = access(rng);
            Atom::Read { page, off, len }
        }
        1 => {
            let (page, off, len) = access(rng);
            Atom::Write { page, off, len }
        }
        2 => Atom::Compute(rng.next_below(50_000)),
        _ => Atom::Locked {
            lock: rng.index(LOCKS),
            body: (0..rng.range(1, 4))
                .map(|_| (rng.chance(0.5), rng.next_below(PAGES)))
                .collect(),
        },
    }
}

fn gen_program(rng: &mut DetRng) -> GenProgram {
    let threads = rng.range(2, 6) as usize;
    let segments = (0..rng.range(1, 4))
        .map(|_| {
            (0..threads)
                .map(|_| (0..rng.next_below(6)).map(|_| atom(rng)).collect())
                .collect()
        })
        .collect();
    GenProgram { threads, segments }
}

/// Two shrunk programs that once failed an engine property: lock
/// sections interleaved with unaligned multi-page writes.
fn regressions() -> [GenProgram; 2] {
    let read = |page, off, len| Atom::Read { page, off, len };
    let write = |page, off, len| Atom::Write { page, off, len };
    let locked = |lock, body: &[(bool, u64)]| Atom::Locked {
        lock,
        body: body.to_vec(),
    };
    [
        GenProgram {
            threads: 3,
            segments: vec![
                vec![vec![], vec![], vec![locked(0, &[(false, 0)])]],
                vec![
                    vec![locked(0, &[(true, 7)])],
                    vec![write(7, 2332, 773), write(2, 2273, 847)],
                    vec![],
                ],
                vec![
                    vec![locked(1, &[(true, 6)]), locked(2, &[(true, 1)])],
                    vec![
                        Atom::Compute(3212),
                        Atom::Compute(38403),
                        write(1, 2008, 723),
                        write(0, 2150, 442),
                    ],
                    vec![
                        Atom::Compute(47319),
                        Atom::Compute(1385),
                        Atom::Compute(9453),
                    ],
                ],
            ],
        },
        GenProgram {
            threads: 4,
            segments: vec![
                vec![
                    vec![locked(0, &[(false, 4)]), read(0, 0, 1)],
                    vec![],
                    vec![locked(0, &[(true, 1)]), locked(0, &[(true, 4)])],
                    vec![],
                ],
                vec![
                    vec![write(4, 0, 1), read(4, 0, 1)],
                    vec![write(1, 0, 1)],
                    vec![locked(0, &[(false, 2), (true, 4)])],
                    vec![read(3, 0, 1), write(4, 30, 289)],
                ],
                vec![
                    vec![locked(0, &[(false, 0), (true, 1), (false, 0)])],
                    vec![
                        locked(0, &[(true, 2)]),
                        read(7, 1808, 759),
                        Atom::Compute(30494),
                        write(5, 38, 110),
                    ],
                    vec![
                        write(3, 1483, 215),
                        write(5, 1987, 106),
                        read(4, 1306, 814),
                        read(7, 818, 133),
                    ],
                    vec![],
                ],
            ],
        },
    ]
}

/// Runs `property` on the recorded regressions (cases 0 and 1), then on
/// [`CASES`] generated programs. Any further input, such as a fault
/// plan, is drawn from the case's generator.
fn check_programs(name: &str, mut property: impl FnMut(GenProgram, &mut DetRng)) {
    let mut recorded = regressions().into_iter();
    check(name, 2 + CASES, |rng| {
        let program = recorded.next().unwrap_or_else(|| gen_program(rng));
        property(program, rng);
    });
}

/// An arbitrary (but bounded) deterministic fault plan: any mix of delay
/// jitter, transient drops with retry, reordering, and slowdown windows.
fn fault_plan(rng: &mut DetRng) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.seed = rng.next_u64();
    plan.delay_prob = rng.next_f64() * 0.4;
    plan.max_delay = SimDuration::from_micros(rng.next_below(1001));
    plan.drop_prob = rng.next_f64() * 0.1;
    plan.max_retries = rng.range(1, 7) as u32;
    plan.retry_timeout = SimDuration::from_micros(rng.range(50, 1001));
    plan.reorder_prob = rng.next_f64() * 0.2;
    plan.reorder_depth = rng.next_below(6) as u32;
    plan.slow_every = rng.index(4);
    plan.slow_period = SimDuration::from_millis(2);
    plan.slow_duty = 0.4;
    plan.slow_factor = 1.0 + rng.next_f64() * 3.0;
    plan
}

fn run(program: &GenProgram, nodes: usize, iterations: usize) -> acorr_dsm::IterStats {
    let cluster = ClusterConfig::new(nodes, program.threads).expect("cluster");
    let mut dsm = Dsm::new(
        DsmConfig::new(cluster),
        program.clone(),
        Mapping::stretch(&cluster),
    )
    .expect("dsm");
    dsm.run_iterations(iterations)
        .expect("generated programs never deadlock")
}

/// Any well-formed program runs to completion (the lock discipline is
/// a simple non-nested critical section, so no deadlock is possible)
/// and produces identical statistics on a re-run.
#[test]
fn deterministic_and_deadlock_free() {
    check_programs("deterministic_and_deadlock_free", |program, _| {
        assert_eq!(run(&program, 2, 2), run(&program, 2, 2));
    });
}

/// Protocol invariants hold on arbitrary programs.
#[test]
fn protocol_invariants() {
    check_programs("protocol_invariants", |program, _| {
        let stats = run(&program, 2, 3);
        // Remote misses and coherence faults are the same events.
        assert_eq!(stats.remote_misses, stats.coherence_faults);
        // Every twin is finalized into exactly one diff by the barrier.
        assert_eq!(stats.twin_faults, stats.diffs_created);
        // Barrier count: (segments - 1) explicit + 1 implicit, per
        // iteration.
        let expected = program.segments.len() as u64 * 3;
        assert_eq!(stats.barriers, expected);
        // Time moves forward.
        assert!(stats.elapsed.as_nanos() > 0);
        // Diff payloads include framing, so bytes >= count * header.
        assert!(stats.diff_bytes_created >= stats.diffs_created * 16);
    });
}

/// The single-writer protocol terminates (no thrashing livelock thanks
/// to completed-at-fetch semantics), is deterministic, and never
/// creates diffs or garbage-collects.
#[test]
fn single_writer_invariants() {
    check_programs("single_writer_invariants", |program, _| {
        let cluster = ClusterConfig::new(2, program.threads).expect("cluster");
        let build = |delta_us: u64| {
            Dsm::new(
                DsmConfig::new(cluster).with_write_mode(WriteMode::SingleWriter {
                    delta: SimDuration::from_micros(delta_us),
                }),
                program.clone(),
                Mapping::stretch(&cluster),
            )
            .expect("dsm")
        };
        let a = build(0).run_iterations(2).expect("terminates");
        let b = build(0).run_iterations(2).expect("terminates");
        assert_eq!(a, b, "deterministic");
        assert_eq!(a.diffs_created, 0);
        assert_eq!(a.gc_runs, 0);
        assert_eq!(a.remote_misses, a.coherence_faults);
        // A positive delta reshuffles timing (and with it the exact
        // interleaving, so event counts can wiggle by a few), but it must
        // still terminate and stay in the same regime.
        let frozen = build(500).run_iterations(2).expect("terminates");
        let close = |x: u64, y: u64| x.abs_diff(y) <= 4 + x.max(y) / 4;
        assert!(
            close(frozen.remote_misses, a.remote_misses),
            "misses {} vs {}",
            frozen.remote_misses,
            a.remote_misses
        );
        assert!(
            close(frozen.ownership_transfers, a.ownership_transfers),
            "transfers {} vs {}",
            frozen.ownership_transfers,
            a.ownership_transfers
        );
    });
}

/// Active tracking observes exactly the pages the scripts touch: no
/// page is missed, none is invented.
#[test]
fn tracking_is_exact() {
    check_programs("tracking_is_exact", |program, _| {
        let cluster = ClusterConfig::new(2, program.threads).expect("cluster");
        let mut dsm = Dsm::new(
            DsmConfig::new(cluster),
            program.clone(),
            Mapping::stretch(&cluster),
        )
        .expect("dsm");
        let (_, access) = dsm.run_tracked_iteration().expect("tracked run");
        for t in 0..program.threads {
            let mut expected = std::collections::BTreeSet::new();
            for op in program.script(t, 0) {
                if let Op::Read { addr, len } | Op::Write { addr, len } = op {
                    if len > 0 {
                        for p in (addr / 4096)..=((addr + len - 1) / 4096) {
                            expected.insert(p as usize);
                        }
                    }
                }
            }
            let observed: std::collections::BTreeSet<usize> =
                access.bitmap(t).iter_ones().collect();
            assert_eq!(observed, expected, "thread {t}");
        }
    });
}

/// Under any fault plan, on any node count, every run terminates, the
/// coherence oracle certifies release-consistency conformance, and a
/// re-run with the same (seed, plan) reproduces every statistic —
/// network ledgers and retry counts included — byte-identically.
#[test]
fn faulty_runs_are_oracle_clean_and_deterministic() {
    check_programs(
        "faulty_runs_are_oracle_clean_and_deterministic",
        |program, rng| {
            let plan = fault_plan(rng);
            for nodes in [1usize, 2, 4] {
                if nodes > program.threads {
                    continue;
                }
                let cluster = ClusterConfig::new(nodes, program.threads).expect("cluster");
                let build = || {
                    let mut dsm = Dsm::new(
                        DsmConfig::new(cluster).with_faults(plan.clone()),
                        program.clone(),
                        Mapping::stretch(&cluster),
                    )
                    .expect("dsm");
                    dsm.enable_oracle();
                    dsm
                };
                let mut first = build();
                let a = first.run_iterations(2).expect("oracle-clean run");
                let report = first.oracle_report().expect("oracle enabled");
                assert_eq!(report.violations, 0, "nodes {nodes}");
                assert!(report.barriers_checked >= 2);
                let b = build().run_iterations(2).expect("oracle-clean rerun");
                assert_eq!(a, b, "nodes {nodes}");
            }
        },
    );
}

/// A zero-fault plan is a strict identity: no statistic moves relative
/// to the default configuration, and no retransmission is recorded.
#[test]
fn zero_fault_plan_is_an_identity() {
    check_programs("zero_fault_plan_is_an_identity", |program, _| {
        let baseline = run(&program, 2, 2);
        let cluster = ClusterConfig::new(2, program.threads).expect("cluster");
        let explicit = Dsm::new(
            DsmConfig::new(cluster).with_faults(FaultPlan::none()),
            program.clone(),
            Mapping::stretch(&cluster),
        )
        .expect("dsm")
        .run_iterations(2)
        .expect("clean run");
        assert_eq!(baseline, explicit.clone());
        assert_eq!(explicit.retries, 0);
        assert_eq!(explicit.net.total_retrans_messages(), 0);
        assert_eq!(explicit.net.total_retrans_bytes(), 0);
    });
}

/// For barrier-only programs, statistics other than faults and timing
/// are unperturbed by tracking: the mechanism is observation-only.
///
/// (Lock-using programs are excluded deliberately: pinned scheduling
/// reorders lock acquisitions across nodes, and §2 of the paper notes
/// that such scheduling nondeterminism legitimately shifts remote-miss
/// counts by a few faults.)
#[test]
fn tracking_preserves_coherence_behaviour() {
    check_programs(
        "tracking_preserves_coherence_behaviour",
        |mut program, _| {
            for segment in &mut program.segments {
                for atoms in segment.iter_mut() {
                    for atom in atoms.iter_mut() {
                        if matches!(atom, Atom::Locked { .. }) {
                            *atom = Atom::Compute(1_000);
                        }
                    }
                }
            }
            let cluster = ClusterConfig::new(2, program.threads).expect("cluster");
            let build = || {
                Dsm::new(
                    DsmConfig::new(cluster),
                    program.clone(),
                    Mapping::stretch(&cluster),
                )
                .expect("dsm")
            };
            let mut plain = build();
            let off = plain.run_iterations(1).expect("plain run");
            let mut tracked = build();
            let (on, _) = tracked.run_tracked_iteration().expect("tracked run");
            assert_eq!(off.remote_misses, on.remote_misses);
            assert_eq!(off.diffs_created, on.diffs_created);
            assert_eq!(off.diff_bytes_created, on.diff_bytes_created);
            assert_eq!(off.lock_acquires, on.lock_acquires);
            // And the *next* iteration behaves identically on both instances.
            assert_eq!(
                plain.run_iterations(1).expect("second"),
                tracked.run_iterations(1).expect("second")
            );
        },
    );
}
