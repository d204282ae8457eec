//! Branch-and-bound exact MinBusy solver ([`branch_and_bound`]): the backend behind
//! [`busytime::Algorithm::ExactBnB`], for instances above the subset-DP ceiling.
//!
//! # Search shape
//!
//! Busy time is additive across connected components of the interval overlap graph
//! (machines never profit from mixing jobs of different components), so the solver
//! decomposes the instance and runs one search per component, sharing a single node
//! budget.  Within a component it branches on jobs in canonical order — earliest start
//! first, ties by longest first — and each node assigns the next job either to one of
//! the machines already opened (one child per *distinct* machine with a free thread)
//! or to exactly one fresh machine.  Opening machines in branch order and skipping
//! machines whose interval lists equal an earlier candidate's removes the
//! machine-permutation symmetry without losing any schedule.  Children are tried
//! cheapest marginal cost first (ties in machine order, the fresh machine last).
//!
//! Because starts are non-decreasing along a branch, every job already on a machine
//! starts at or before the next window `[s, e)`.  Two facts follow, and together they
//! replace any per-machine interval structure:
//!
//! * the machine covers `[s, ∞)` on exactly `[s, reach)`, where `reach` is its
//!   furthest end, so the window is newly covered on `[max(s, reach), e)` — that is
//!   the marginal cost;
//! * a job on the machine conflicts with the window iff it ends after `s`, and such a
//!   job is the last one on its thread, so a thread is free iff its end is `≤ s`.
//!   Left-endpoint greedy coloring of an interval graph is optimal, so "some thread
//!   end `≤ s`" is a *complete* capacity check, and which free thread takes the job
//!   never matters to a later job.
//!
//! Each machine is therefore just its `reach`, its thread ends (`min(g, n)` of them)
//! and the head of a per-job linked list of its jobs (read only to compare machines
//! and to report schedules); insert and undo are `O(1)` apart from the ledger below.
//!
//! # Bound stack
//!
//! Every bound is read off one **segment ledger** per component.  The component's job
//! endpoints, sorted and deduplicated, cut the line into at most `2n − 1` elementary
//! segments; segment `k` keeps its static length `len[k]` and
//! `need[k] = ⌈depth(k)/g⌉`, the live `busy[k]` (how many open machines cover it), and
//! the ledger keeps the running total `Σ len·max(busy, need)`.
//!
//! * **Warm start** — the incumbent opens as the better of the paper's FirstFit
//!   (canonical longest-first order) and FirstFit in branch order, then *polished* by a
//!   strictly-improving single-job relocation descent (`polish`).  FirstFit in branch
//!   order is read off the same thread ends the search keeps, and both candidates are
//!   priced by one reach sweep over the jobs in start order.  The descent keeps each
//!   machine's jobs in start order, so a move is priced by one forward pass over the
//!   target's jobs clipped to the job's window — it stops at the first start past the
//!   window and keeps fewer than `g` live ends for the capacity test, with no sort —
//!   and after the first sweep it re-examines only the jobs whose window a move
//!   touched.  Every new incumbent the search finds is polished the same way: on
//!   instances whose optimum meets the clique relaxation, landing the incumbent on it
//!   ends the search immediately, so incumbent quality is a pruning lever, not
//!   cosmetics.
//! * **Static clique relaxation** — `Σ len·need = ∫ ⌈depth(t)/g⌉ dt` over the whole
//!   component: the ledger's total before any job is placed.  No schedule can beat it
//!   (Observation 2.1 generalized pointwise).
//! * **Committed cost** — the sum of the open machines' busy times, the running sum of
//!   the children's marginal costs; machine unions only grow, so it never decreases
//!   along a branch.
//! * **Pricing bound** — `∫ max(busy(t), ⌈depth(t)/g⌉) dt`, the ledger's running
//!   total: every open machine stays busy wherever it is busy now, and the unassigned
//!   jobs still force `⌈depth/g⌉` machines pointwise.  It dominates both cheaper
//!   bounds, which are still tried first because they prune a child before it is
//!   placed.
//!
//! Placing a job bumps `busy` on exactly the segments it newly covers, updating the
//! total as it goes, and undo walks the same segments back; reading the bound is
//! `O(1)`.  So an insert or undo costs `O(segments touched)`, a node adds
//! `O(machines · g)` for the capacity checks, and an interior node neither sorts nor
//! allocates: children are kept in cost order by insertion as they are generated, on
//! one flat stack that every depth reuses (it grows only when a path outgrows every
//! earlier one).  Memory is `O(segments + machines · g)` per component.
//!
//! # Budget semantics
//!
//! The node budget ([`busytime::ExactBudget`]) is deterministic; the optional
//! wall-clock cap is for interactive use and bounds polishing as well as the search
//! (a polish cut short still leaves a valid incumbent, whose cost is the upper bound).
//! When the budget runs out the search *abandons* the open subtrees but remembers the
//! smallest lower bound among them, so the reported pair stays sound:
//! `lower = max(static, min(upper, abandoned))` per component, summed across
//! components.  Bounds are therefore valid even on exhaustion — `lower ≤ OPT ≤ upper`
//! always holds.

use std::time::Instant;

use busytime::minbusy::first_fit;
use busytime::{Duration, ExactBudget, ExactOutcome, Instance, Schedule};
use busytime_interval::Interval;

/// Exact MinBusy by branch-and-bound over job→machine assignments.
///
/// Returns [`ExactOutcome::Optimal`] when the search finishes within `budget`, and
/// [`ExactOutcome::Exhausted`] — with a sound `lower ≤ OPT ≤ upper` pair and the best
/// incumbent schedule — when it does not.  Any instance size is accepted; unlike the
/// subset DP there is no hard job-count ceiling, only the budget.
pub fn branch_and_bound(instance: &Instance, budget: &ExactBudget) -> ExactOutcome {
    run(instance, budget, None, &mut SearchStats::default())
}

/// What a search did, counted as it ran (summed over components and read only by
/// the tests, which pin them so that a change that reshapes the tree shows here).
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Default)]
pub(crate) struct SearchStats {
    /// Children generated: every distinct machine with a free thread, plus the fresh one.
    pub children: u64,
    /// Children pruned by the committed or static bound before placement.
    pub pruned_committed: u64,
    /// Children placed and then pruned by the pricing bound.
    pub pruned_pricing: u64,
    /// Complete assignments reached.
    pub leaves: u64,
    /// Leaves that improved the incumbent.
    pub improvements: u64,
    /// Passes of the relocation descent over a component's jobs, root and leaves.
    pub polish_sweeps: u64,
    /// Relocations the descent made.
    pub polish_moves: u64,
}

/// What the search exposes at every explored node (test hook for bound soundness; the
/// fields are only read by the `cfg(test)` visitors).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct NodeView<'a> {
    /// Busy time already committed to the open machines.
    pub committed: Duration,
    /// The node's lower bound on *any* completion of this partial assignment.
    pub lower: Duration,
    /// Component-local ids of the not-yet-assigned jobs, in branch order.
    pub unassigned: &'a [usize],
    /// Each open machine's intervals, in placement order.
    pub machines: Vec<Vec<Interval>>,
}

/// A per-node callback: `(component instance, node view)`.
pub(crate) type NodeVisitor<'a> = dyn FnMut(&Instance, &NodeView<'_>) + 'a;

/// [`branch_and_bound`] with an optional per-node visitor (used by the bound-soundness
/// proptests to cross-check every explored node).
#[cfg(test)]
pub(crate) fn branch_and_bound_with_visitor(
    instance: &Instance,
    budget: &ExactBudget,
    visitor: Option<&mut NodeVisitor<'_>>,
) -> ExactOutcome {
    run(instance, budget, visitor, &mut SearchStats::default())
}

/// The search behind [`branch_and_bound`]: one per component, under one budget,
/// handing each node to `visitor` and counting into `stats`.
fn run(
    instance: &Instance,
    budget: &ExactBudget,
    mut visitor: Option<&mut NodeVisitor<'_>>,
    stats: &mut SearchStats,
) -> ExactOutcome {
    let n = instance.len();
    if n == 0 {
        return ExactOutcome::Optimal {
            schedule: Schedule::empty(0),
            cost: Duration::ZERO,
            nodes: 0,
        };
    }
    let deadline = budget
        .max_millis
        .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
    let mut nodes = 0u64;
    let mut schedule = Schedule::empty(n);
    let mut total_cost = 0i64;
    let mut total_lower = 0i64;
    let mut all_optimal = true;
    let mut machine_offset = 0usize;
    for ids in instance.connected_components() {
        let (comp, mapping) = instance.sub_instance(&ids);
        let reborrowed: Option<&mut NodeVisitor<'_>> = visitor.as_deref_mut();
        let result = solve_component(
            &comp,
            budget.max_nodes,
            deadline,
            &mut nodes,
            reborrowed,
            stats,
        );
        for (local, &machine) in result.assignment.iter().enumerate() {
            schedule.assign(mapping[local], machine_offset + machine);
        }
        machine_offset += result.machines_used;
        total_cost += result.cost;
        total_lower += result.lower;
        all_optimal &= result.optimal;
    }
    let cost = Duration::new(total_cost);
    if all_optimal {
        ExactOutcome::Optimal {
            schedule,
            cost,
            nodes,
        }
    } else {
        ExactOutcome::Exhausted {
            incumbent: schedule,
            lower: Duration::new(total_lower),
            upper: cost,
            nodes,
        }
    }
}

/// Busy time of a complete assignment in one pass over the jobs.  A component's job
/// ids are in start order, so each machine's busy time grows by the part of the next
/// job's window past the machine's reach (its furthest end so far).
fn busy_time(comp: &Instance, assignment: &[usize]) -> i64 {
    let mut reach: Vec<i64> = Vec::new();
    let mut cost = 0;
    for (iv, &m) in comp.jobs().iter().zip(assignment) {
        if m >= reach.len() {
            reach.resize(m + 1, i64::MIN);
        }
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        let from = s.max(reach[m]);
        if e > from {
            cost += e - from;
            reach[m] = e;
        }
    }
    cost
}

/// FirstFit in branch order, on the search's own representation: jobs arrive in
/// non-decreasing start order, so a thread is free iff its end is `≤ s` (module
/// docs), and each job takes the first free thread of the first machine, in opening
/// order, that has one — the placement `first_fit_in_order(comp, order)` makes.
/// Returns `assignment[job] = machine`.
fn first_fit_in_branch_order(order: &[usize], span: &[(u32, u32)], threads: usize) -> Vec<usize> {
    // `ends[m * threads + t]`: the end of thread `t` of machine `m` (0 while empty).
    let mut ends: Vec<u32> = Vec::new();
    let mut assignment = vec![0; span.len()];
    for &job in order {
        let (s, e) = span[job];
        let slot = ends.iter().position(|&end| end <= s).unwrap_or_else(|| {
            ends.resize(ends.len() + threads, 0);
            ends.len() - threads
        });
        ends[slot] = e;
        assignment[job] = slot / threads;
    }
    assignment
}

/// Reusable scratch for pricing one job window against one machine's jobs in
/// [`polish`].  Each machine keeps its jobs in id order, which in a component is
/// start order, so one forward pass clips them to the window and stops at the first
/// start past it.
#[derive(Default)]
struct Probe {
    /// Ends of the clipped jobs still running at the current start: fewer than `g`.
    live: Vec<i64>,
}

impl Probe {
    /// How much of `[s, e)` the jobs of `group` other than `skip` cover.  Given a
    /// `capacity`, `None` instead if that many of them run at once inside the window
    /// (then the machine has no thread for it).
    fn covered(
        &mut self,
        jobs: &[Interval],
        group: &[usize],
        (s, e): (i64, i64),
        skip: usize,
        capacity: Option<usize>,
    ) -> Option<i64> {
        self.live.clear();
        let (mut covered, mut reach) = (0i64, s);
        for &j in group {
            let (a, b) = (jobs[j].start().ticks(), jobs[j].end().ticks());
            if a >= e {
                break;
            }
            if b <= s || j == skip {
                continue;
            }
            let (a, b) = (a.max(s), b.min(e));
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
            if let Some(g) = capacity {
                // Touching jobs do not overlap: a job ending at `a` has stopped.
                self.live.retain(|&end| end > a);
                if self.live.len() + 1 >= g {
                    return None;
                }
                self.live.push(b);
            }
        }
        Some(covered)
    }
}

/// Strictly-improving single-job relocation descent on a complete assignment whose
/// busy time is `cost`: move any job to another open machine whenever the move lowers
/// total busy time, until no such move exists or `deadline` passes.  Total cost is a
/// strictly decreasing non-negative integer, so the loop terminates; stopping early
/// leaves a valid assignment whose cost is the returned value.
///
/// A move is priced from the job's window alone: it frees the part of the window no
/// other job on its machine covers, and costs the part the target leaves uncovered.
/// The target is feasible iff fewer than `g` of its jobs run at once inside the window
/// (the group itself already respects `g`), so no thread bookkeeping is needed.  A
/// fresh machine would cost the whole window, never less than the move frees, so it
/// is never a target.
///
/// Every price a job reads is a machine's jobs clipped to the job's window, so after
/// the first sweep a job is examined again only if a move since its last look touched
/// its window; any other job would stay put again.
///
/// Returns the polished cost; `assignment` is rewritten in place (machine ids stay
/// contiguous from 0).
fn polish(
    comp: &Instance,
    assignment: &mut [usize],
    mut cost: i64,
    deadline: Option<Instant>,
    stats: &mut SearchStats,
) -> i64 {
    debug_assert_eq!(cost, busy_time(comp, assignment));
    let (g, jobs) = (comp.capacity(), comp.jobs());
    let window = |j: usize| (jobs[j].start().ticks(), jobs[j].end().ticks());
    let machines = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); machines];
    for (job, &m) in assignment.iter().enumerate() {
        groups[m].push(job);
    }
    let mut probe = Probe::default();
    let mut stale = vec![true; jobs.len()];
    'descent: loop {
        stats.polish_sweeps += 1;
        let mut improved = false;
        for job in 0..jobs.len() {
            if !stale[job] {
                continue;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break 'descent;
            }
            stale[job] = false;
            let (s, e) = window(job);
            let source = assignment[job];
            let kept = probe.covered(jobs, &groups[source], (s, e), job, None);
            let gain = (e - s) - kept.expect("no capacity, so a price");
            if gain <= 0 {
                continue;
            }
            // The cheapest feasible target, the first of equals.
            let mut best: Option<(usize, i64)> = None;
            for (m, group) in groups.iter().enumerate() {
                if m == source {
                    continue;
                }
                let Some(covered) = probe.covered(jobs, group, (s, e), usize::MAX, Some(g)) else {
                    continue;
                };
                let added = (e - s) - covered;
                if best.is_none_or(|(_, b)| added < b) {
                    best = Some((m, added));
                }
            }
            let Some((target, added)) = best.filter(|&(_, added)| added < gain) else {
                continue;
            };
            let at = groups[source]
                .binary_search(&job)
                .expect("job on its machine");
            groups[source].remove(at);
            let at = groups[target].binary_search(&job).unwrap_err();
            groups[target].insert(at, job);
            assignment[job] = target;
            cost -= gain - added;
            improved = true;
            stats.polish_moves += 1;
            // The move changed two machines inside every window that overlaps the
            // job's; job ids are in start order, so the first start at `e` ends them.
            for (other, flag) in stale.iter_mut().enumerate() {
                let (a, b) = window(other);
                if a >= e {
                    break;
                }
                if b > s {
                    *flag = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    // Re-number machines contiguously (emptied sources leave holes).
    let mut next = 0usize;
    let mut remap: Vec<Option<usize>> = vec![None; groups.len()];
    for m in assignment.iter_mut() {
        let id = *remap[*m].get_or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        *m = id;
    }
    cost
}

/// One component's answer: a (possibly incumbent-only) assignment plus its bound pair.
struct ComponentResult {
    /// `assignment[local_job] = machine` (machines contiguous from 0).
    assignment: Vec<usize>,
    /// Cost of `assignment` (the component's upper bound).
    cost: i64,
    /// Proven lower bound on the component's optimum.
    lower: i64,
    /// Whether `cost` is the proven optimum.
    optimal: bool,
    /// Machines `assignment` uses.
    machines_used: usize,
}

/// The order the search assigns jobs in: earliest start first, ties longest first.
fn branch_order(comp: &Instance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..comp.len()).collect();
    order.sort_by_key(|&j| {
        let iv = comp.job(j);
        (iv.start().ticks(), -iv.end().ticks(), j)
    });
    order
}

fn solve_component(
    comp: &Instance,
    max_nodes: u64,
    deadline: Option<Instant>,
    nodes: &mut u64,
    visitor: Option<&mut NodeVisitor<'_>>,
    stats: &mut SearchStats,
) -> ComponentResult {
    let n = comp.len();
    let (ledger, span) = Ledger::new(comp);
    let static_lb = ledger.total;

    let order = branch_order(comp);

    // Warm start: the better of canonical FirstFit and FirstFit in branch order (the
    // canonical one on a tie), then relocation-polished — on components whose optimum
    // meets the clique relaxation this alone can end the search before it starts.
    let threads = comp.capacity().min(n);
    let canonical: Vec<usize> = first_fit(comp)
        .assignment()
        .iter()
        .map(|m| m.expect("first_fit schedules every job"))
        .collect();
    let in_order = first_fit_in_branch_order(&order, &span, threads);
    let (canonical_cost, in_order_cost) = (busy_time(comp, &canonical), busy_time(comp, &in_order));
    let (mut best_assignment, warm_cost) = if in_order_cost < canonical_cost {
        (in_order, in_order_cost)
    } else {
        (canonical, canonical_cost)
    };
    let best_cost = polish(comp, &mut best_assignment, warm_cost, deadline, stats);

    let mut search = Search {
        comp,
        order,
        span,
        ledger,
        static_lb,
        machines: Vec::with_capacity(n),
        threads,
        thread_ends: Vec::with_capacity(n * threads),
        below: vec![NO_JOB; n],
        children: Vec::with_capacity(2 * n + 2),
        current: vec![usize::MAX; n],
        best_cost,
        best_assignment,
        nodes,
        max_nodes,
        deadline,
        exhausted: false,
        abandoned_lb: i64::MAX,
        visitor,
        stats,
    };
    // The warm start may already match the relaxation; then no node needs exploring.
    if search.best_cost > static_lb {
        search.dfs(0, 0);
    }

    let optimal = !search.exhausted;
    let cost = search.best_cost;
    let lower = if optimal {
        cost
    } else {
        // Subtrees pruned by bound cannot beat the incumbent; abandoned subtrees can,
        // but not below their own node bounds.
        static_lb.max(cost.min(search.abandoned_lb))
    };
    let assignment = search.best_assignment;
    let machines_used = assignment.iter().copied().max().map_or(0, |m| m + 1);
    ComponentResult {
        assignment,
        cost,
        lower,
        optimal,
        machines_used,
    }
}

/// One elementary segment of a component's compressed time line.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Static length in ticks.
    len: i64,
    /// `⌈depth/g⌉`: machines every schedule runs on this segment.
    need: u32,
    /// Open machines whose jobs cover this segment.
    busy: u32,
}

/// The component's segment ledger: `coords` cut the line into `segments`, and
/// `total = Σ len·max(busy, need)` is kept live under [`Ledger::cover`] and
/// [`Ledger::uncover`].
struct Ledger {
    /// Sorted distinct job endpoints; segment `k` is `[coords[k], coords[k + 1])`.
    coords: Vec<i64>,
    segments: Vec<Segment>,
    total: i64,
}

impl Ledger {
    /// The ledger of `comp` with nothing placed (so `total` is the static clique
    /// relaxation), plus every job's `(start, end)` as indices into `coords`.
    fn new(comp: &Instance) -> (Ledger, Vec<(u32, u32)>) {
        let mut coords: Vec<i64> = comp
            .jobs()
            .iter()
            .flat_map(|iv| [iv.start().ticks(), iv.end().ticks()])
            .collect();
        coords.sort_unstable();
        coords.dedup();
        let index = |x: i64| {
            let k = coords.binary_search(&x).expect("a job endpoint");
            u32::try_from(k).expect("fewer than 2^32 distinct endpoints")
        };
        let span: Vec<(u32, u32)> = comp
            .jobs()
            .iter()
            .map(|iv| (index(iv.start().ticks()), index(iv.end().ticks())))
            .collect();
        let mut step = vec![0i64; coords.len()];
        for &(s, e) in &span {
            step[s as usize] += 1;
            step[e as usize] -= 1;
        }
        let g = comp.capacity() as i64;
        let mut depth = 0i64;
        let segments: Vec<Segment> = coords
            .windows(2)
            .zip(&step)
            .map(|(pair, &delta)| {
                depth += delta;
                Segment {
                    len: pair[1] - pair[0],
                    need: ((depth + g - 1) / g) as u32,
                    busy: 0,
                }
            })
            .collect();
        let total = segments
            .iter()
            .map(|seg| seg.len * i64::from(seg.need))
            .sum();
        (
            Ledger {
                coords,
                segments,
                total,
            },
            span,
        )
    }

    /// Length in ticks from coordinate `from` to coordinate `to`.
    fn length(&self, from: u32, to: u32) -> i64 {
        self.coords[to as usize] - self.coords[from as usize]
    }

    /// One more machine covers segments `from..to`.
    fn cover(&mut self, from: u32, to: u32) {
        for seg in &mut self.segments[from as usize..to as usize] {
            if seg.busy >= seg.need {
                self.total += seg.len;
            }
            seg.busy += 1;
        }
    }

    /// Undo [`Ledger::cover`] of the same range.
    fn uncover(&mut self, from: u32, to: u32) {
        for seg in &mut self.segments[from as usize..to as usize] {
            seg.busy -= 1;
            if seg.busy >= seg.need {
                self.total -= seg.len;
            }
        }
    }
}

/// End of the linked list threading a machine's jobs.
const NO_JOB: usize = usize::MAX;

/// An open machine: enough to price, admit and undo the next placement exactly (see
/// the module docs), plus the head of its job list.
#[derive(Debug, Clone, Copy)]
struct Machine {
    /// Furthest end of the machine's jobs, as a coordinate index.
    reach: u32,
    /// The machine's most recently placed job; `Search::below` links the rest.
    last: usize,
    /// Number of jobs on the machine.
    jobs: usize,
}

/// One child of a node: the next job goes on `machine` (the open-machine count = a
/// fresh one), on `thread`, raising committed cost by `delta`.
#[derive(Debug, Clone, Copy)]
struct Child {
    machine: usize,
    thread: usize,
    delta: i64,
}

/// What [`Search::place`] overwrote, for [`Search::unplace`].
struct Placed {
    reach: u32,
    thread_end: u32,
}

/// Depth-first search state for one component.
struct Search<'a, 'v> {
    comp: &'a Instance,
    /// Jobs in branch order (non-decreasing starts).
    order: Vec<usize>,
    /// `span[job] = (start, end)` as coordinate indices into the ledger.
    span: Vec<(u32, u32)>,
    ledger: Ledger,
    static_lb: i64,
    machines: Vec<Machine>,
    /// Threads per machine: `min(g, n)`, as no machine can run more than `n` jobs.
    threads: usize,
    /// `thread_ends[m * threads + t]`: the end of thread `t` of machine `m`, as a
    /// coordinate index (0 while the thread is empty).
    thread_ends: Vec<u32>,
    /// `below[job]`: the job placed on the same machine just before it.
    below: Vec<usize>,
    /// The children of every node on the current path, deepest last.
    children: Vec<Child>,
    /// `current[job] = machine`, `usize::MAX` while unassigned.
    current: Vec<usize>,
    best_cost: i64,
    best_assignment: Vec<usize>,
    nodes: &'a mut u64,
    max_nodes: u64,
    deadline: Option<Instant>,
    exhausted: bool,
    /// Smallest node bound among subtrees abandoned by the budget (`i64::MAX` = none).
    abandoned_lb: i64,
    visitor: Option<&'a mut NodeVisitor<'v>>,
    stats: &'a mut SearchStats,
}

impl Search<'_, '_> {
    fn dfs(&mut self, depth: usize, committed: i64) {
        let node_lb = self.ledger.total;
        if self.exhausted
            || *self.nodes >= self.max_nodes
            || self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            self.exhausted = true;
            self.abandoned_lb = self.abandoned_lb.min(node_lb);
            return;
        }
        *self.nodes += 1;
        if self.visitor.is_some() {
            self.visit(depth, committed, node_lb);
        }
        if depth == self.order.len() {
            // Strictly better only: ties keep the earlier (canonical) incumbent.
            // Polishing the found leaf may tunnel below anything this DFS region
            // can reach, pruning the rest of it wholesale.
            self.stats.leaves += 1;
            if committed < self.best_cost {
                self.stats.improvements += 1;
                let mut polished = self.current.clone();
                let polished_cost = polish(
                    self.comp,
                    &mut polished,
                    committed,
                    self.deadline,
                    self.stats,
                );
                debug_assert!(polished_cost <= committed);
                self.best_cost = polished_cost;
                self.best_assignment = polished;
            }
            return;
        }
        let job = self.order[depth];
        let (s, e) = self.span[job];

        // Children: every *distinct* open machine with a free thread, plus one fresh
        // machine, kept in order of marginal cost as they are generated (stable, so
        // ties stay in machine order and the fresh machine comes last).
        let base = self.children.len();
        'candidates: for m in 0..self.machines.len() {
            let ends = &self.thread_ends[m * self.threads..(m + 1) * self.threads];
            let Some(thread) = ends.iter().position(|&end| end <= s) else {
                continue;
            };
            for earlier in base..self.children.len() {
                if self.same_jobs(self.children[earlier].machine, m) {
                    continue 'candidates;
                }
            }
            let from = s.max(self.machines[m].reach);
            let delta = if e > from {
                self.ledger.length(from, e)
            } else {
                0
            };
            self.push_child(
                base,
                Child {
                    machine: m,
                    thread,
                    delta,
                },
            );
        }
        let fresh = Child {
            machine: self.machines.len(),
            thread: 0,
            delta: self.ledger.length(s, e),
        };
        self.push_child(base, fresh);
        self.stats.children += (self.children.len() - base) as u64;

        for i in base..self.children.len() {
            let child = self.children[i];
            let child_committed = committed + child.delta;
            if child_committed.max(self.static_lb) >= self.best_cost {
                self.stats.pruned_committed += 1;
                continue;
            }
            let placed = self.place(job, child);
            let child_lb = self.ledger.total;
            debug_assert!(child_lb >= child_committed && child_lb >= self.static_lb);
            if child_lb < self.best_cost {
                self.dfs(depth + 1, child_committed);
            } else {
                self.stats.pruned_pricing += 1;
            }
            self.unplace(job, child, placed);
        }
        self.children.truncate(base);
    }

    /// Append `child` to the node's children (those from `base` on), keeping them in
    /// non-decreasing `delta`; equal deltas keep their generation order.
    fn push_child(&mut self, base: usize, child: Child) {
        let mut at = self.children.len();
        self.children.push(child);
        while at > base && self.children[at - 1].delta > child.delta {
            self.children.swap(at - 1, at);
            at -= 1;
        }
    }

    /// Do machines `a` and `b` run the same intervals?  Jobs land in branch order, so
    /// equal multisets are equal lists.
    fn same_jobs(&self, a: usize, b: usize) -> bool {
        let (ma, mb) = (self.machines[a], self.machines[b]);
        if ma.jobs != mb.jobs || ma.reach != mb.reach {
            return false;
        }
        let (mut x, mut y) = (ma.last, mb.last);
        while x != NO_JOB {
            if self.span[x] != self.span[y] {
                return false;
            }
            (x, y) = (self.below[x], self.below[y]);
        }
        true
    }

    /// Put `job` on `child`'s machine (opening it if fresh) and update the ledger.
    fn place(&mut self, job: usize, child: Child) -> Placed {
        let (s, e) = self.span[job];
        if child.machine == self.machines.len() {
            self.machines.push(Machine {
                reach: 0,
                last: NO_JOB,
                jobs: 0,
            });
            self.thread_ends
                .resize(self.thread_ends.len() + self.threads, 0);
        }
        let m = &mut self.machines[child.machine];
        let reach = m.reach;
        let from = s.max(reach);
        if e > from {
            m.reach = e;
            self.ledger.cover(from, e);
        }
        self.below[job] = m.last;
        m.last = job;
        m.jobs += 1;
        let slot = child.machine * self.threads + child.thread;
        let thread_end = std::mem::replace(&mut self.thread_ends[slot], e);
        self.current[job] = child.machine;
        Placed { reach, thread_end }
    }

    /// Undo the [`Search::place`] of `job` on `child` that returned `placed`.
    fn unplace(&mut self, job: usize, child: Child, placed: Placed) {
        let (s, e) = self.span[job];
        self.current[job] = usize::MAX;
        self.thread_ends[child.machine * self.threads + child.thread] = placed.thread_end;
        let m = &mut self.machines[child.machine];
        m.jobs -= 1;
        m.last = self.below[job];
        let from = s.max(placed.reach);
        if e > from {
            m.reach = placed.reach;
            self.ledger.uncover(from, e);
        }
        if m.jobs == 0 {
            // The placement opened this machine, so it is the last one.
            debug_assert_eq!(child.machine + 1, self.machines.len());
            self.machines.pop();
            self.thread_ends.truncate(child.machine * self.threads);
        }
    }

    /// Hand the current node to the visitor, if any.
    fn visit(&mut self, depth: usize, committed: i64, node_lb: i64) {
        let Some(visitor) = self.visitor.take() else {
            return;
        };
        let machines = self
            .machines
            .iter()
            .map(|m| {
                let mut jobs = Vec::with_capacity(m.jobs);
                let mut job = m.last;
                while job != NO_JOB {
                    jobs.push(self.comp.job(job));
                    job = self.below[job];
                }
                jobs.reverse();
                jobs
            })
            .collect();
        visitor(
            self.comp,
            &NodeView {
                committed: Duration::new(committed),
                lower: Duration::new(node_lb),
                unassigned: &self.order[depth..],
                machines,
            },
        );
        self.visitor = Some(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_minbusy_cost, MAX_EXACT_JOBS};
    use busytime::minbusy::first_fit_in_order;
    use busytime_interval::union;
    use busytime_workload::{general_instance, proper_instance, seeded_rng};
    use proptest::prelude::*;

    /// The reference [`polish`] is pinned to: the same descent, written the plain way.
    /// Every probe collects the group's jobs clipped to the window as sweep events
    /// and sorts them, every sweep examines every job, and a fresh machine is priced
    /// as a target too.
    fn reference_polish(
        comp: &Instance,
        assignment: &mut [usize],
        deadline: Option<Instant>,
    ) -> i64 {
        let g = comp.capacity();
        let machines = assignment.iter().copied().max().map_or(0, |m| m + 1);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); machines];
        for (job, &m) in assignment.iter().enumerate() {
            groups[m].push(job);
        }
        let mut events: Vec<(i64, i32)> = Vec::new();
        // `(covered, depth)` of `group` (minus job `skip`) inside the window `[s, e)`.
        let mut measure = |group: &[usize], (s, e): (i64, i64), skip: usize| {
            events.clear();
            for &j in group {
                let iv = comp.job(j);
                let (a, b) = (iv.start().ticks(), iv.end().ticks());
                if j != skip && a < e && s < b {
                    events.push((a.max(s), 1));
                    events.push((b.min(e), -1));
                }
            }
            // Ends sort before starts at equal time: touching jobs do not overlap.
            events.sort_unstable();
            let (mut covered, mut depth, mut deepest, mut prev) = (0i64, 0i32, 0i32, s);
            for &(x, step) in &events {
                if depth > 0 {
                    covered += x - prev;
                }
                depth += step;
                deepest = deepest.max(depth);
                prev = x;
            }
            (covered, deepest as usize)
        };
        let everywhere = (i64::MIN, i64::MAX);
        let mut cost: i64 = groups
            .iter()
            .map(|group| measure(group, everywhere, usize::MAX).0)
            .sum();
        'descent: loop {
            let mut improved = false;
            #[allow(clippy::needless_range_loop)]
            for job in 0..comp.len() {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break 'descent;
                }
                let iv = comp.job(job);
                let window = (iv.start().ticks(), iv.end().ticks());
                let fresh = iv.len().ticks();
                let source = assignment[job];
                let gain = fresh - measure(&groups[source], window, job).0;
                if gain <= 0 {
                    continue;
                }
                let mut best: Option<(usize, i64)> = None;
                for (m, group) in groups.iter().enumerate() {
                    if m == source {
                        continue;
                    }
                    let (covered, depth) = measure(group, window, usize::MAX);
                    if depth >= g {
                        continue;
                    }
                    let added = fresh - covered;
                    if best.is_none_or(|(_, b)| added < b) {
                        best = Some((m, added));
                    }
                }
                let (target, added) = match best {
                    Some((m, added)) if added <= fresh => (m, added),
                    _ => (groups.len(), fresh),
                };
                if added < gain {
                    if target == groups.len() {
                        groups.push(Vec::new());
                    }
                    groups[source].retain(|&j| j != job);
                    groups[target].push(job);
                    assignment[job] = target;
                    cost -= gain - added;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        let mut next = 0usize;
        let mut remap: Vec<Option<usize>> = vec![None; groups.len()];
        for m in assignment.iter_mut() {
            let id = *remap[*m].get_or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            *m = id;
        }
        cost
    }

    /// `picks` folded onto `machines` machines, one per job of `inst`.
    fn assignment_from(inst: &Instance, picks: &[usize], machines: usize) -> Vec<usize> {
        (0..inst.len())
            .map(|j| picks[j % picks.len()] % machines)
            .collect()
    }

    /// [`polish`] and [`reference_polish`] on the same assignment reach the same cost
    /// and the same assignment; the warm-start price agrees with `Schedule::cost`.
    fn assert_polish_matches_reference(inst: &Instance, assignment: &[usize], expired: bool) {
        let schedule = Schedule::from_assignment(assignment.iter().map(|&m| Some(m)).collect());
        let cost = busy_time(inst, assignment);
        assert_eq!(
            cost,
            schedule.cost(inst).ticks(),
            "busy_time vs Schedule::cost"
        );
        let deadline = expired.then(Instant::now);
        let (mut fast, mut slow) = (assignment.to_vec(), assignment.to_vec());
        let fast_cost = polish(inst, &mut fast, cost, deadline, &mut SearchStats::default());
        let slow_cost = reference_polish(inst, &mut slow, deadline);
        assert_eq!(
            (fast_cost, &fast),
            (slow_cost, &slow),
            "polish vs reference"
        );
        assert_eq!(fast_cost, busy_time(inst, &fast));
    }

    /// FirstFit read off the search's representation is `first_fit_in_order` in branch
    /// order, machine for machine.
    fn assert_first_fit_matches(inst: &Instance) {
        let order = branch_order(inst);
        let (_, span) = Ledger::new(inst);
        let threads = inst.capacity().min(inst.len());
        let expected: Vec<usize> = first_fit_in_order(inst, &order)
            .assignment()
            .iter()
            .map(|m| m.expect("FirstFit schedules every job"))
            .collect();
        assert_eq!(first_fit_in_branch_order(&order, &span, threads), expected);
    }

    #[test]
    fn polish_matches_reference_on_hand_picked_shapes() {
        // Touching endpoints (a job ending where another starts does not run with
        // it) at g = 1 and 2, verbatim duplicates at g = 1, and a capacity above n.
        let touching = [(0, 4), (4, 8), (8, 12), (2, 6), (6, 10), (4, 6)];
        let instances = [
            Instance::from_ticks(&touching, 1),
            Instance::from_ticks(&touching, 2),
            Instance::from_ticks(&[(3, 9); 5], 1),
            Instance::from_ticks(&[(0, 5), (1, 6), (2, 7), (3, 8)], 9),
        ];
        for inst in &instances {
            let n = inst.len();
            for machines in 1..=n {
                let spread: Vec<usize> = (0..n).map(|j| j % machines).collect();
                for expired in [false, true] {
                    assert_polish_matches_reference(inst, &spread, expired);
                }
            }
            assert_first_fit_matches(inst);
        }
    }

    fn solved(instance: &Instance) -> (Schedule, Duration, u64) {
        match branch_and_bound(instance, &ExactBudget::default()) {
            ExactOutcome::Optimal {
                schedule,
                cost,
                nodes,
            } => (schedule, cost, nodes),
            ExactOutcome::Exhausted { lower, upper, .. } => {
                panic!("default budget exhausted on a test instance ({lower} ≤ OPT ≤ {upper})")
            }
        }
    }

    /// The pricing bound recomputed from scratch by sorting every event:
    /// `∫ max(busy(t), ⌈depth(t)/g⌉) dt`, with `busy(t)` the number of `machines`
    /// whose job union covers `t` and `depth(t)` over every job of `comp`.
    fn reference_pricing(comp: &Instance, machines: &[Vec<Interval>]) -> i64 {
        let mut events: Vec<(i64, i32, i32)> = Vec::new();
        for iv in comp.jobs() {
            events.push((iv.start().ticks(), 1, 0));
            events.push((iv.end().ticks(), -1, 0));
        }
        for list in machines {
            for segment in union(list) {
                events.push((segment.start().ticks(), 0, 1));
                events.push((segment.end().ticks(), 0, -1));
            }
        }
        events.sort_unstable();
        let g = comp.capacity() as i64;
        let (mut depth, mut busy) = (0i64, 0i64);
        let mut prev = 0i64;
        let mut total = 0i64;
        let mut i = 0;
        let mut started = false;
        while i < events.len() {
            let x = events[i].0;
            if started && x > prev {
                let need = (depth + g - 1) / g;
                total += (x - prev) * need.max(busy);
            }
            while i < events.len() && events[i].0 == x {
                depth += i64::from(events[i].1);
                busy += i64::from(events[i].2);
                i += 1;
            }
            prev = x;
            started = true;
        }
        total
    }

    /// Visit every node of a default-budget search, asserting the ledger's bound
    /// against [`reference_pricing`] and the committed cost against the machines'
    /// spans; returns how many nodes were checked.
    fn check_ledger_at_every_node(inst: &Instance) -> u64 {
        let mut checked = 0u64;
        let mut visitor = |comp: &Instance, view: &NodeView<'_>| {
            assert_eq!(
                view.lower.ticks(),
                reference_pricing(comp, &view.machines),
                "ledger bound vs sorted reference"
            );
            let spans: i64 = view
                .machines
                .iter()
                .map(|list| union(list).iter().map(|s| s.len().ticks()).sum::<i64>())
                .sum();
            assert_eq!(view.committed.ticks(), spans, "committed vs machine spans");
            let placed: usize = view.machines.iter().map(Vec::len).sum();
            assert_eq!(placed + view.unassigned.len(), comp.len());
            checked += 1;
        };
        let outcome =
            branch_and_bound_with_visitor(inst, &ExactBudget::default(), Some(&mut visitor));
        match outcome {
            ExactOutcome::Optimal { nodes, .. } => assert_eq!(checked, nodes),
            ExactOutcome::Exhausted { .. } => panic!("default budget exhausted"),
        }
        checked
    }

    #[test]
    fn trivial_instances() {
        let empty = Instance::from_ticks(&[], 2);
        let (schedule, cost, _) = solved(&empty);
        assert_eq!(cost, Duration::ZERO);
        assert!(schedule.is_empty());

        let single = Instance::from_ticks(&[(2, 9)], 3);
        let (schedule, cost, _) = solved(&single);
        assert_eq!(cost, Duration::new(7));
        schedule.validate_complete(&single).unwrap();
    }

    #[test]
    fn matches_known_optimal_clique_pairing() {
        let inst = Instance::from_ticks(&[(0, 20), (2, 18), (8, 12), (9, 11)], 2);
        let (schedule, cost, _) = solved(&inst);
        assert_eq!(cost, Duration::new(24));
        schedule.validate_complete(&inst).unwrap();
        assert_eq!(schedule.cost(&inst), cost);
    }

    #[test]
    fn decomposes_across_components() {
        // Two far-apart copies of the same component: cost doubles, search stays tiny.
        let inst = Instance::from_ticks(
            &[
                (0, 20),
                (2, 18),
                (8, 12),
                (1000, 1020),
                (1002, 1018),
                (1008, 1012),
            ],
            2,
        );
        let (schedule, cost, _) = solved(&inst);
        schedule.validate_complete(&inst).unwrap();
        assert_eq!(cost, exact_minbusy_cost(&inst));
    }

    #[test]
    fn solves_above_the_dp_ceiling() {
        // n > MAX_EXACT_JOBS: the DP would panic, B&B must still prove an optimum.
        let mut rng = seeded_rng(7);
        let inst = general_instance(&mut rng, MAX_EXACT_JOBS + 8, 3, 200, 30);
        let (schedule, cost, _) = solved(&inst);
        schedule.validate_complete(&inst).unwrap();
        assert_eq!(schedule.cost(&inst), cost);
        assert!(cost >= inst.lower_bound());
    }

    #[test]
    fn wall_clock_cap_bounds_polishing() {
        // One ~3,000-job component: polishing its warm start to a fixpoint takes
        // seconds, so only a deadline inside `polish` keeps a 20 ms cap.
        let inst = proper_instance(&mut seeded_rng(5), 3000, 4, 40, 8);
        assert_eq!(inst.connected_components().len(), 1);
        let budget = ExactBudget {
            max_millis: Some(20),
            ..ExactBudget::default()
        };
        let clock = Instant::now();
        let outcome = branch_and_bound(&inst, &budget);
        let elapsed = clock.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "a 20 ms cap took {elapsed:?}");
        let ExactOutcome::Exhausted {
            incumbent,
            lower,
            upper,
            ..
        } = outcome
        else {
            panic!("a 20 ms cap proved a 3,000-job optimum");
        };
        // The search was abandoned at its root, so the bracket falls back to the
        // clique relaxation — sound for every schedule.
        assert_eq!(lower.ticks(), Ledger::new(&inst).0.total);
        assert!(lower <= upper);
        incumbent.validate_complete(&inst).unwrap();
        assert_eq!(incumbent.cost(&inst), upper);
    }

    #[test]
    fn ledger_matches_reference_through_a_deep_search() {
        // Many random instances close on the warm start and visit no node at all;
        // this one (the scaling grid's proper-dense n = 20 row) closes only after
        // thousands of nodes, so every one of them is cross-checked.
        let inst = proper_instance(&mut seeded_rng(2012), 20, 4, 40, 8);
        assert!(check_ledger_at_every_node(&inst) > 1_000);
    }

    #[test]
    fn ledger_starts_at_the_clique_relaxation() {
        let inst = Instance::from_ticks(&[(0, 10), (2, 8), (4, 6), (20, 25)], 2);
        let (mut ledger, span) = Ledger::new(&inst);
        assert_eq!(ledger.coords, vec![0, 2, 4, 6, 8, 10, 20, 25]);
        assert_eq!(span, vec![(0, 5), (1, 4), (2, 3), (6, 7)]);
        // ⌈depth/2⌉ per segment: [0,2)·1 [2,4)·1 [4,6)·2 [6,8)·1 [8,10)·1
        // [10,20)·0 [20,25)·1.
        assert_eq!(ledger.total, 2 + 2 + 2 * 2 + 2 + 2 + 5);
        assert_eq!(ledger.total, reference_pricing(&inst, &[]));
        // One machine over [0,10) changes nothing; a second over [2,8) adds the
        // segments where it is the second machine but only one is needed.
        ledger.cover(0, 5);
        assert_eq!(ledger.total, 17);
        ledger.cover(1, 4);
        assert_eq!(ledger.total, 17 + 2 + 2);
        ledger.uncover(1, 4);
        ledger.uncover(0, 5);
        assert_eq!(ledger.total, 17);
    }

    /// The benchmark-shaped rows of `tests/exact_bnb_oracle.rs` (capacity 4, a
    /// 300-node budget): what each search did, as `(family, jobs, seed)` and then
    /// children, pruned before placement, pruned after placement, leaves, incumbent
    /// improvements, polish sweeps and polish moves.  A change that claims to keep the
    /// search tree keeps every count.
    #[rustfmt::skip]
    const PINNED_STATS: &[(&str, usize, u64, [u64; 7])] = &[
        ("proper-dense", 30, 0, [723, 90, 318, 1, 1, 4, 2]),
        ("proper-dense", 30, 1, [1024, 475, 226, 0, 0, 1, 0]),
        ("proper-dense", 30, 2, [654, 238, 93, 0, 0, 2, 3]),
        ("proper-dense", 30, 3, [774, 264, 186, 0, 0, 3, 2]),
        ("proper-dense", 30, 4, [881, 452, 108, 0, 0, 1, 0]),
        ("proper-dense", 30, 5, [712, 252, 142, 0, 0, 3, 2]),
        ("proper-dense", 36, 0, [800, 351, 118, 0, 0, 4, 5]),
        ("proper-dense", 36, 1, [753, 401, 12, 0, 0, 3, 4]),
        ("proper-dense", 36, 2, [967, 480, 153, 0, 0, 3, 3]),
        ("proper-dense", 36, 3, [594, 191, 76, 0, 0, 2, 1]),
        ("general", 20, 0, [0, 0, 0, 0, 0, 7, 0]),
        ("general", 20, 7, [31, 12, 6, 0, 0, 5, 0]),
        ("general", 20, 9, [28, 8, 8, 0, 0, 9, 0]),
        ("general", 20, 70, [77, 33, 13, 2, 2, 9, 0]),
        ("general", 20, 165, [63, 14, 22, 2, 2, 7, 0]),
    ];

    #[test]
    fn search_stats_reproduce_the_pinned_rows() {
        let budget = ExactBudget {
            max_nodes: 300,
            max_millis: None,
        };
        for &(family, jobs, seed, pinned) in PINNED_STATS {
            let rng = &mut seeded_rng(seed);
            let inst = match family {
                "proper-dense" => proper_instance(rng, jobs, 4, 40, 8),
                _ => general_instance(rng, jobs, 4, 300, 30),
            };
            let mut s = SearchStats::default();
            run(&inst, &budget, None, &mut s);
            let counts = [
                s.children,
                s.pruned_committed,
                s.pruned_pricing,
                s.leaves,
                s.improvements,
                s.polish_sweeps,
                s.polish_moves,
            ];
            assert_eq!(counts, pinned, "{family} n={jobs} seed={seed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// B&B ≡ subset DP on random general instances small enough for the DP.
        #[test]
        fn differential_vs_subset_dp(seed in 0u64..5_000, n in 2usize..12, g in 1usize..5) {
            let mut rng = seeded_rng(seed);
            let inst = general_instance(&mut rng, n, g, 120, 25);
            let (schedule, cost, _) = solved(&inst);
            schedule.validate_complete(&inst).unwrap();
            prop_assert_eq!(cost, exact_minbusy_cost(&inst));
            prop_assert_eq!(schedule.cost(&inst), cost);
        }

        /// Every explored node's lower bound is sound: it never exceeds
        /// `committed + OPT(residual)`, which upper-bounds the node's best completion
        /// (finish the unassigned jobs on fresh machines).
        #[test]
        fn node_bounds_never_exceed_residual_optimum(seed in 0u64..5_000, n in 2usize..11, g in 1usize..4) {
            let mut rng = seeded_rng(seed);
            let inst = general_instance(&mut rng, n, g, 100, 20);
            let mut checked = 0u64;
            let mut visitor = |comp: &Instance, view: &NodeView<'_>| {
                let (residual, _) = comp.sub_instance(view.unassigned);
                let residual_opt = exact_minbusy_cost(&residual);
                assert!(
                    view.lower <= view.committed + residual_opt,
                    "node bound {} exceeds committed {} + residual OPT {}",
                    view.lower,
                    view.committed,
                    residual_opt
                );
                checked += 1;
            };
            let outcome =
                branch_and_bound_with_visitor(&inst, &ExactBudget::default(), Some(&mut visitor));
            if let ExactOutcome::Optimal { cost, nodes, .. } = outcome {
                prop_assert_eq!(cost, exact_minbusy_cost(&inst));
                prop_assert_eq!(checked, nodes);
            } else {
                prop_assert!(false, "default budget exhausted on a tiny instance");
            }
        }

        /// The ledger's O(1) bound equals the sorted from-scratch pricing formula at
        /// every visited node, and committed cost equals the machines' spans — on
        /// random general instances.
        #[test]
        fn ledger_matches_reference_on_general_instances(seed in 0u64..5_000, n in 2usize..16, g in 1usize..5) {
            let inst = general_instance(&mut seeded_rng(seed), n, g, 120, 30);
            check_ledger_at_every_node(&inst);
        }

        /// …and on overlap-heavy instances with verbatim duplicates, where the
        /// identical-machine rule skips children.
        #[test]
        fn ledger_matches_reference_on_overlap_heavy_duplicates(
            jobs in prop::collection::vec((-6i64..6, 1i64..15), 1..9),
            copies in 1usize..5,
            g in 1usize..5,
        ) {
            let mut jobs: Vec<(i64, i64)> = jobs.into_iter().map(|(s, l)| (s, s + l)).collect();
            let dup: Vec<(i64, i64)> = jobs.iter().copied().cycle().take(copies).collect();
            jobs.extend(dup);
            check_ledger_at_every_node(&Instance::from_ticks(&jobs, g));
        }

        /// The sort-free polish ≡ the sort-based reference on random (not FirstFit)
        /// assignments of general instances, from g = 1 up past n; FirstFit in branch
        /// order ≡ `first_fit_in_order`.
        #[test]
        fn polish_matches_reference_on_general_instances(
            seed in 0u64..5_000,
            n in 1usize..24,
            g in 1usize..26,
            machines in 1usize..9,
            picks in prop::collection::vec(0usize..64, 1..24),
            expired in any::<bool>(),
        ) {
            let inst = general_instance(&mut seeded_rng(seed), n, g, 120, 30);
            assert_polish_matches_reference(&inst, &assignment_from(&inst, &picks, machines), expired);
            assert_first_fit_matches(&inst);
        }

        /// …and on overlap-heavy instances with touching endpoints and verbatim
        /// duplicates.
        #[test]
        fn polish_matches_reference_on_overlap_heavy_duplicates(
            jobs in prop::collection::vec((-6i64..6, 1i64..15), 1..12),
            copies in 1usize..6,
            g in 1usize..6,
            machines in 1usize..7,
            picks in prop::collection::vec(0usize..64, 1..24),
            expired in any::<bool>(),
        ) {
            let mut jobs: Vec<(i64, i64)> = jobs.into_iter().map(|(s, l)| (s, s + l)).collect();
            let dup: Vec<(i64, i64)> = jobs.iter().copied().cycle().take(copies).collect();
            jobs.extend(dup);
            let inst = Instance::from_ticks(&jobs, g);
            assert_polish_matches_reference(&inst, &assignment_from(&inst, &picks, machines), expired);
            assert_first_fit_matches(&inst);
        }

        /// Starving the budget still yields a sound bracket: `lower ≤ OPT ≤ upper`,
        /// with the incumbent schedule valid and costing exactly `upper`.
        #[test]
        fn exhausted_budgets_keep_sound_bounds(seed in 0u64..5_000, n in 6usize..14, max_nodes in 0u64..6) {
            let mut rng = seeded_rng(seed);
            let inst = general_instance(&mut rng, n, 2, 150, 30);
            let opt = exact_minbusy_cost(&inst);
            let budget = ExactBudget { max_nodes, max_millis: None };
            match branch_and_bound(&inst, &budget) {
                ExactOutcome::Optimal { schedule, cost, .. } => {
                    // Warm start met the relaxation: optimal without any search.
                    prop_assert_eq!(cost, opt);
                    schedule.validate_complete(&inst).unwrap();
                }
                ExactOutcome::Exhausted { incumbent, lower, upper, .. } => {
                    prop_assert!(lower <= opt, "lower {} > OPT {}", lower, opt);
                    prop_assert!(opt <= upper, "OPT {} > upper {}", opt, upper);
                    incumbent.validate_complete(&inst).unwrap();
                    prop_assert_eq!(incumbent.cost(&inst), upper);
                }
            }
        }
    }
}
