//! # busytime
//!
//! Busy-time interval scheduling on parallel machines — a complete, from-scratch
//! reproduction of *"Optimizing Busy Time on Parallel Machines"* (Mertzios, Shalom,
//! Voloshin, Wong, Zaks; IEEE IPDPS 2012, journal version in Theoretical Computer
//! Science 562, 2015).
//!
//! ## The model
//!
//! `n` jobs are fixed time intervals; a machine may run at most `g` jobs simultaneously;
//! a machine is *busy* whenever at least one of its jobs runs, and the cost of a schedule
//! is the total busy time over all machines (machines are free and unlimited in number).
//!
//! * **MinBusy** — schedule every job, minimize total busy time ([`minbusy`]).
//! * **MaxThroughput** — given a busy-time budget `T`, schedule as many jobs as possible
//!   ([`maxthroughput`]).
//! * The 2-D generalization to rectangular jobs (Section 3.4 of the paper) lives in
//!   [`twodim`].
//!
//! ## Quick start
//!
//! Every problem goes through the unified [`Solver`] facade: build a [`Problem`], solve
//! it, and read the schedule, objective, chosen algorithm and dispatch trace off the
//! returned [`Solution`].
//!
//! ```rust
//! use busytime::{Problem, Solver, Instance, Duration};
//!
//! // Four jobs sharing a common time, capacity 2.
//! let instance = Instance::from_ticks(&[(0, 10), (2, 12), (4, 14), (6, 16)], 2);
//! let solver = Solver::new();
//!
//! // MinBusy: the dispatcher picks the optimal proper-clique DP here and says so.
//! let solution = solver.solve(&Problem::min_busy(instance.clone())).unwrap();
//! assert!(solution.is_exact());
//! assert_eq!(solution.algorithm.name(), "proper-clique-dp");
//! solution.schedule.validate_complete(&instance).unwrap();
//!
//! // MaxThroughput with a tight budget; the trace records every dispatch decision.
//! let budgeted = solver
//!     .solve(&Problem::max_throughput(instance, Duration::new(12)))
//!     .unwrap();
//! assert!(budgeted.objective.cost() <= Duration::new(12));
//! assert!(!budgeted.trace.is_empty());
//!
//! // Policies: force an algorithm, require exactness, budget the exact backends.
//! let exact_only = Solver::builder().require_exact(true).build();
//! assert!(exact_only.policy().require_exact);
//! ```
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`solver`] | the [`Solver`] / [`Problem`] / [`Solution`] facade with policy-driven dispatch |
//! | [`machine`] | incremental [`MachineState`] / [`MachinePool`]: the one placement engine of the greedies and the online scheduler |
//! | [`online`] | the event-driven [`OnlineScheduler`] maintaining a live schedule under arrivals and departures |
//! | [`placement`] | the global [`PlacementIndex`] selecting machines in `O(log m)` |
//! | [`tuning`] | calibrated scan/kernel cutover thresholds behind [`minbusy::first_fit_in_order`] |
//! | [`minbusy`] | every MinBusy algorithm of Section 3 plus baselines |
//! | [`maxthroughput`] | every MaxThroughput algorithm of Section 4 plus the reductions of Section 2 |
//! | [`twodim`] | rectangular jobs, FirstFit-2D and BucketFirstFit (Section 3.4) |
//! | [`demand`] | the Section 5 extension with per-job capacity demands (\[16\]) |
//! | [`bounds`] | the parallelism / span / length bounds of Observation 2.1 |
//! | [`analysis`] | schedule summaries and ratio reporting |
//! | [`report`] | the shared JSON result schemas ([`ScheduleReport`], [`SimulationReport`]) the CLI and server emit |
//! | [`par`] | the [`par::ThreadPool`] batch engine: scoped workers on an atomic cursor |

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The dynamic programs index several tables in lockstep by the same variable, exactly
// as the paper's recurrences are written; iterator rewrites would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod analysis;
pub mod bounds;
pub mod demand;
mod error;
mod instance;
pub mod machine;
pub mod maxthroughput;
pub mod minbusy;
pub mod online;
pub mod par;
pub mod placement;
pub mod report;
mod schedule;
pub mod solver;
pub mod tuning;
pub mod twodim;

pub use busytime_interval::{Duration, Interval, Time};
pub use error::Error;
pub use instance::{Instance, JobId};
pub use machine::{MachinePool, MachineState, Placement};
pub use online::{OnlinePolicy, OnlineRun, OnlineScheduler, OnlineSnapshot};
pub use placement::{MachineDigest, PlacementIndex};
pub use report::{ScheduleReport, SimulationReport};
pub use schedule::{MachineId, Schedule, SolveResult, ThroughputResult};
pub use solver::{
    Algorithm, AttemptOutcome, DispatchAttempt, ExactBackend, ExactBudget, ExactOracle,
    ExactOutcome, InstanceBounds, Objective, Problem, ProblemKind, SkipReason, Solution,
    SolveError, SolvePolicy, Solver, SolverBuilder,
};
