//! Property tests for the placement/throughput layer v2: the placement-index-backed
//! machine selection must be behaviourally indistinguishable from the linear digest
//! scan it replaced, the adaptive scan/kernel dispatch must not change any schedule,
//! and the parallel batch engine must return exactly the sequential results in the
//! sequential order, at every pool width.

use busytime::minbusy::{first_fit_in_order, first_fit_in_order_kernel, first_fit_in_order_scan};
use busytime::par::ThreadPool;
use busytime::{Duration, Instance, MachinePool, Problem, Schedule, Solver};
use proptest::prelude::*;

/// Random instances mixing overlap-heavy and scattered jobs.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec((-80i64..80, 1i64..50), 0..40),
        1usize..5,
    )
        .prop_map(|(jobs, g)| {
            let jobs: Vec<(i64, i64)> = jobs.into_iter().map(|(s, l)| (s, s + l)).collect();
            Instance::try_from_ticks(&jobs, g).expect("generated jobs are non-empty")
        })
}

/// Small batches of such instances.
fn batch_strategy() -> impl Strategy<Value = Vec<Instance>> {
    prop::collection::vec(instance_strategy(), 0..8)
}

proptest! {
    /// Index-streamed first fit ≡ the linear digest scan, placement by placement
    /// (same machine and thread chosen for every job, not just the same cost).
    #[test]
    fn index_first_fit_equals_linear_probe(instance in instance_strategy()) {
        let mut indexed = MachinePool::new(instance.capacity());
        let mut linear = MachinePool::new(instance.capacity());
        let mut indexed_schedule = Schedule::empty(instance.len());
        let mut linear_schedule = Schedule::empty(instance.len());
        for job in 0..instance.len() {
            let iv = instance.job(job);
            let via_index = indexed.first_fit_slot(iv);
            let via_scan = linear.first_fit_slot_linear(iv);
            prop_assert_eq!(via_index, via_scan, "job {} diverged", job);
            indexed.insert(iv, via_index.0, via_index.1);
            linear.insert(iv, via_scan.0, via_scan.1);
            indexed_schedule.assign(job, via_index.0);
            linear_schedule.assign(job, via_scan.0);
        }
        prop_assert_eq!(indexed.cost(), linear.cost());
        prop_assert_eq!(indexed_schedule, linear_schedule);
    }

    /// Index-backed best fit ≡ the linear digest scan: identical (machine, thread,
    /// delta) for every job against every intermediate pool state.
    #[test]
    fn index_best_fit_equals_linear_probe(instance in instance_strategy()) {
        let mut pool = MachinePool::new(instance.capacity());
        let mut schedule = Schedule::empty(instance.len());
        for job in 0..instance.len() {
            let iv = instance.job(job);
            let via_index = pool.best_fit_slot(iv);
            let via_scan = pool.best_fit_slot_linear(iv);
            prop_assert_eq!(via_index, via_scan, "job {} diverged", job);
            pool.insert(iv, via_index.machine, via_index.thread);
            schedule.assign(job, via_index.machine);
        }
        schedule.validate_complete(&instance).unwrap();
        prop_assert_eq!(pool.cost(), schedule.cost(&instance));
    }

    /// FirstFit's scan/kernel choice returns the same schedule as both sides —
    /// whichever side of the threshold an instance lands on.
    #[test]
    fn adaptive_dispatch_is_invisible(instance in instance_strategy()) {
        let order: Vec<usize> = (0..instance.len()).collect();
        let adaptive = first_fit_in_order(&instance, &order);
        prop_assert_eq!(&adaptive, &first_fit_in_order_kernel(&instance, &order));
        prop_assert_eq!(&adaptive, &first_fit_in_order_scan(&instance, &order));
    }

    /// Parallel `solve_batch` ≡ sequential `solve`: same algorithms, same objective
    /// values, same order, at several pool widths (including widths far above the
    /// item count).
    #[test]
    fn parallel_batch_equals_sequential(instances in batch_strategy(), threads in 1usize..9) {
        let solver = Solver::new();
        let problems: Vec<Problem> = instances
            .iter()
            .flat_map(|inst| {
                [
                    Problem::min_busy(inst.clone()),
                    Problem::max_throughput(inst.clone(), Duration::new(25)),
                ]
            })
            .collect();
        let sequential: Vec<_> = problems.iter().map(|p| solver.solve(p)).collect();
        // `solve_batch` reads the process-wide default width; drive the pool directly
        // at an explicit width so the test is independent of global state.
        let parallel = ThreadPool::new(threads).map(&problems, |p| solver.solve(p));
        prop_assert_eq!(parallel.len(), sequential.len());
        for (seq, par) in sequential.iter().zip(&parallel) {
            match (seq, par) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.algorithm, b.algorithm);
                    prop_assert_eq!(a.objective, b.objective);
                    prop_assert_eq!(&a.schedule, &b.schedule);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "sequential {:?} vs parallel {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }

    /// The pool's generic map is order-preserving and exhaustive for any item count
    /// and width (the engine-level contract everything above relies on).
    #[test]
    fn pool_map_is_identity_on_indices(n in 0usize..600, threads in 1usize..9) {
        let items: Vec<usize> = (0..n).collect();
        let out = ThreadPool::new(threads).map(&items, |&i| i);
        prop_assert_eq!(out, items);
    }
}
