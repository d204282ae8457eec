//! Error types for the busytime scheduling library.

use busytime_interval::Duration;
use core::fmt;

/// Errors reported by instance constructors, algorithms and validators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The parallelism parameter `g` must be at least 1.
    InvalidCapacity,
    /// A job interval is empty or reversed (`start >= completion`), reported with its
    /// position in the input so malformed job files point at the offending record.
    EmptyJob {
        /// Position of the job in the input list.
        index: usize,
        /// The offending start tick.
        start: i64,
        /// The offending completion tick.
        end: i64,
    },
    /// The algorithm requires a clique instance (all jobs sharing a common time).
    NotClique,
    /// The algorithm requires a proper instance (no job properly containing another).
    NotProper,
    /// The algorithm requires a proper clique instance.
    NotProperClique,
    /// The algorithm requires a one-sided clique instance.
    NotOneSided,
    /// The algorithm is specific to a particular capacity (e.g. the matching algorithm of
    /// Lemma 3.1 requires `g = 2`).
    WrongCapacity {
        /// Capacity the algorithm supports.
        expected: usize,
        /// Capacity of the instance.
        actual: usize,
    },
    /// The candidate-set family of the set-cover algorithm (Lemma 3.2) would exceed its
    /// size limit; the algorithm is only meant for fixed small `g`.
    SetFamilyTooLarge {
        /// Number of candidate sets that would have to be enumerated.
        required: usize,
        /// The limit it exceeds.
        limit: usize,
    },
    /// A schedule assigns more than `g` simultaneous jobs to one machine.
    CapacityExceeded {
        /// The offending machine.
        machine: usize,
        /// Number of simultaneously running jobs observed on that machine.
        observed: usize,
        /// The capacity `g`.
        capacity: usize,
    },
    /// A schedule that was required to be complete leaves a job unscheduled.
    JobUnscheduled {
        /// The unscheduled job.
        job: usize,
    },
    /// A schedule exceeds the busy-time budget of a MaxThroughput instance.
    BudgetExceeded {
        /// The schedule's total busy time.
        cost: Duration,
        /// The budget `T`.
        budget: Duration,
    },
    /// A schedule references a job id outside the instance.
    UnknownJob {
        /// The offending job id.
        job: usize,
    },
    /// An exponential exact backend was asked to solve an instance above its job-count
    /// ceiling (e.g. the subset DP forced past `MAX_EXACT_JOBS`).
    TooManyJobs {
        /// The instance's job count.
        jobs: usize,
        /// The backend's ceiling.
        limit: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidCapacity => write!(f, "the parallelism parameter g must be at least 1"),
            Error::EmptyJob { index, start, end } => write!(
                f,
                "job {index} has interval [{start}, {end}), which is empty or reversed; jobs must have positive length"
            ),
            Error::NotClique => write!(f, "this algorithm requires a clique instance"),
            Error::NotProper => write!(f, "this algorithm requires a proper instance"),
            Error::NotProperClique => write!(f, "this algorithm requires a proper clique instance"),
            Error::NotOneSided => write!(f, "this algorithm requires a one-sided clique instance"),
            Error::WrongCapacity { expected, actual } => write!(
                f,
                "this algorithm only supports capacity g = {expected}, but the instance has g = {actual}"
            ),
            Error::SetFamilyTooLarge { required, limit } => write!(
                f,
                "the set-cover reduction would enumerate {required} candidate sets, above the limit of {limit}; \
                 it is only practical for small fixed g"
            ),
            Error::CapacityExceeded { machine, observed, capacity } => write!(
                f,
                "machine {machine} runs {observed} jobs simultaneously, above the capacity g = {capacity}"
            ),
            Error::JobUnscheduled { job } => write!(f, "job {job} is left unscheduled by a complete schedule"),
            Error::BudgetExceeded { cost, budget } => {
                write!(f, "schedule busy time {cost} exceeds the budget {budget}")
            }
            Error::UnknownJob { job } => write!(f, "job id {job} does not exist in the instance"),
            Error::TooManyJobs { jobs, limit } => write!(
                f,
                "instance has {jobs} jobs, above this exact backend's ceiling of {limit}"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(Error::NotClique.to_string().contains("clique"));
        assert!(Error::WrongCapacity {
            expected: 2,
            actual: 5
        }
        .to_string()
        .contains("g = 2"));
        let e = Error::CapacityExceeded {
            machine: 3,
            observed: 4,
            capacity: 2,
        };
        assert!(e.to_string().contains("machine 3"));
        let e = Error::BudgetExceeded {
            cost: Duration::new(10),
            budget: Duration::new(7),
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('7'));
    }
}
