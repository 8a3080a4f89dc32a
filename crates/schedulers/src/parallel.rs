//! Multiprocessor scheduling of independent dataflow components.
//!
//! Many BCI workloads are embarrassingly parallel at the component level —
//! 96 electrode channels each running the same DWT, or the independent
//! subtrees of a shallow `DWT(n, d)` — and emerging BCI processors ship
//! several compute sites, each with its own small SRAM.  This module
//! extends the paper's single-memory model in the direction of the
//! multiprocessor red-blue pebble game it cites (Böhnlein et al., SPAA'24):
//!
//! * each of `p` processors owns a *private* fast memory of the same
//!   weighted budget,
//! * the CDAG's weakly-connected components are scheduled independently
//!   (Lemma 3.3's first observation: interleaving independent subgraphs
//!   never helps) and packed onto processors with the LPT rule,
//! * the plan reports per-processor weighted I/O and the **makespan**
//!   (bottleneck I/O), the quantity a parallel implementation minimises.
//!
//! Concatenating all per-processor schedules yields a valid
//! single-processor schedule of the same total cost, which is how the plan
//! is validated; lifting each processor's schedule onto its own red set
//! replays it in the multiprocessor model ([`validate_multi_schedule`]).
//!
//! The module stays beside `partition-belady` and `comm-list` because on
//! its target workload, independent channels, exact per-component
//! schedules packed by LPT beat both: on 96 × `full_kary(2, 4,
//! Equal(16))` with 8 processors of 128 bits, the lifted plan replays at
//! makespan 6,144 and I/O 26,112 with no communication, against makespan
//! 11,664 and I/O 67,936 plus 192 of communication (`partition-belady`)
//! and 11,264 and 66,176 plus 32 (`comm-list`).
//!
//! [`validate_multi_schedule`]: pebblyn_core::validate_multi_schedule

use pebblyn_core::{Cdag, Move, NodeId, Schedule, Weight};

/// A parallel execution plan over independent components.
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    /// Per-processor schedules, in *original-graph* node ids.
    pub schedules: Vec<Schedule>,
    /// Per-processor weighted I/O cost.
    pub io_per_proc: Vec<Weight>,
    /// `assignment[c]` = processor that runs component `c`.
    pub assignment: Vec<usize>,
}

impl ParallelPlan {
    /// The bottleneck (maximum per-processor) weighted I/O.
    pub fn makespan(&self) -> Weight {
        self.io_per_proc.iter().copied().max().unwrap_or(0)
    }

    /// Total weighted I/O across processors (equals the sequential cost).
    pub fn total_io(&self) -> Weight {
        self.io_per_proc.iter().sum()
    }

    /// Parallel speedup over running everything on one processor.
    pub fn speedup(&self) -> f64 {
        if self.makespan() == 0 {
            1.0
        } else {
            self.total_io() as f64 / self.makespan() as f64
        }
    }

    /// Concatenate all per-processor schedules into one sequential
    /// schedule (valid under the same per-processor budget, since each
    /// processor's schedule releases all fast memory when it finishes).
    pub fn sequential(&self) -> Schedule {
        let mut all = Schedule::new();
        for s in &self.schedules {
            all.extend(s);
        }
        all
    }
}

/// Schedule each weakly-connected component with `component_scheduler`
/// (which sees the component as a standalone [`Cdag`]) and pack the
/// results onto `procs` processors, longest-processing-time first.
///
/// Returns `None` if any component cannot be scheduled (the scheduler
/// returned `None`, e.g. budget below that component's feasibility).
pub fn schedule_components<F>(
    graph: &Cdag,
    procs: usize,
    mut component_scheduler: F,
) -> Option<ParallelPlan>
where
    F: FnMut(&Cdag) -> Option<Schedule>,
{
    assert!(procs >= 1, "at least one processor");
    let components = graph.weakly_connected_components();

    // Schedule every component in isolation, remapping to original ids.
    let mut scheduled: Vec<(usize, Weight, Schedule)> = Vec::with_capacity(components.len());
    for (c, nodes) in components.iter().enumerate() {
        let (sub, to_orig) = graph.induced_subgraph(nodes);
        let sub_sched = component_scheduler(&sub)?;
        let remapped: Schedule = sub_sched.iter().map(|mv| remap(mv, &to_orig)).collect();
        let cost = remapped.cost(graph);
        scheduled.push((c, cost, remapped));
    }

    // LPT: heaviest component first, onto the least-loaded processor.
    scheduled.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut io_per_proc = vec![0 as Weight; procs];
    let mut schedules = vec![Schedule::new(); procs];
    let mut assignment = vec![0usize; components.len()];
    for (c, cost, sched) in scheduled {
        let p = (0..procs)
            .min_by_key(|&p| io_per_proc[p])
            .expect("procs >= 1");
        io_per_proc[p] += cost;
        schedules[p].extend(&sched);
        assignment[c] = p;
    }

    Some(ParallelPlan {
        schedules,
        io_per_proc,
        assignment,
    })
}

fn remap(mv: Move, to_orig: &[NodeId]) -> Move {
    let v = to_orig[mv.node().index()];
    match mv {
        Move::Load(_) => Move::Load(v),
        Move::Store(_) => Move::Store(v),
        Move::Compute(_) => Move::Compute(v),
        Move::Delete(_) => Move::Delete(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kary, naive};
    use pebblyn_core::{
        algorithmic_lower_bound, validate_multi_schedule, validate_schedule, MachineSpec,
        MultiMove, MultiSchedule,
    };
    use pebblyn_graphs::tree::full_kary;
    use pebblyn_graphs::{DwtGraph, WeightScheme};

    /// Eight independent channels, each a small binary tree.
    fn channels(count: usize) -> Cdag {
        let tree = full_kary(2, 2, WeightScheme::Equal(16)).unwrap();
        let parts: Vec<&Cdag> = std::iter::repeat_n(&tree, count).collect();
        Cdag::disjoint_union(&parts).0
    }

    #[test]
    fn balanced_channels_split_evenly() {
        let g = channels(8);
        let budget = 6 * 16 + 32;
        let plan = schedule_components(&g, 4, |sub| kary::schedule(sub, budget)).unwrap();
        assert_eq!(plan.io_per_proc.len(), 4);
        // 8 identical components over 4 procs: perfectly balanced.
        assert!(plan.io_per_proc.iter().all(|&c| c == plan.io_per_proc[0]));
        assert!((plan.speedup() - 4.0).abs() < 1e-9);
        // The concatenation is a valid sequential schedule of the same cost.
        let seq = plan.sequential();
        let stats = validate_schedule(&g, budget, &seq).unwrap();
        assert_eq!(stats.cost, plan.total_io());
        assert_eq!(stats.cost, algorithmic_lower_bound(&g));
    }

    #[test]
    fn dwt_forest_parallelises() {
        // DWT(32, 2) has 8 independent subgraphs.
        let dwt = DwtGraph::new(32, 2, WeightScheme::Equal(16)).unwrap();
        let g = dwt.cdag();
        assert_eq!(g.weakly_connected_components().len(), 8);
        let budget = 8 * 16;
        let plan = schedule_components(g, 3, |sub| naive::schedule(sub, budget)).unwrap();
        assert_eq!(plan.assignment.len(), 8);
        let seq = plan.sequential();
        validate_schedule(g, budget, &seq).unwrap();
        assert!(plan.speedup() > 2.5, "speedup {}", plan.speedup());
    }

    #[test]
    fn lpt_beats_worst_case_on_skewed_components() {
        // 1 big + 4 small trees on 2 procs: LPT puts the big one alone.
        let big = full_kary(2, 4, WeightScheme::Equal(16)).unwrap();
        let small = full_kary(2, 1, WeightScheme::Equal(16)).unwrap();
        let parts: Vec<&Cdag> = vec![&big, &small, &small, &small, &small];
        let (g, _) = Cdag::disjoint_union(&parts);
        let budget = 8 * 16;
        let plan = schedule_components(&g, 2, |sub| kary::schedule(sub, budget)).unwrap();
        let big_cost = plan.io_per_proc.iter().max().unwrap();
        let small_cost = plan.io_per_proc.iter().min().unwrap();
        // The big tree (16 leaf loads + 1 root store, 16 bits each = 272)
        // dominates; the four small trees (3 * 16 each = 192) share the
        // other processor.
        assert_eq!(*big_cost, 272);
        assert_eq!(*small_cost, 192);
        assert_eq!(plan.makespan(), 272);
    }

    #[test]
    fn lifted_plan_replays_in_the_multiprocessor_model() {
        let tree = full_kary(2, 4, WeightScheme::Equal(16)).unwrap();
        let parts: Vec<&Cdag> = std::iter::repeat_n(&tree, 96).collect();
        let g = Cdag::disjoint_union(&parts).0;
        let (procs, budget) = (8, 128);
        let plan = schedule_components(&g, procs, |sub| kary::schedule(sub, budget)).unwrap();
        let lifted: MultiSchedule = plan
            .schedules
            .iter()
            .enumerate()
            .flat_map(|(p, s)| s.iter().map(move |mv| MultiMove::from_single(mv, p)))
            .collect();
        let spec = MachineSpec::symmetric(procs, budget);
        let stats = validate_multi_schedule(&g, &spec, &lifted).unwrap();
        assert_eq!(stats.io_cost, plan.total_io());
        assert_eq!(stats.io_cost, 26_112);
        assert_eq!(stats.comm_moves, 0);
        // Twelve trees per processor, each 16 loads + 15 computes + 1
        // store of 16 bits on that processor's clock.
        assert_eq!(stats.makespan, 6_144);
    }

    #[test]
    fn single_proc_is_sequential() {
        let g = channels(3);
        let budget = 1024;
        let plan = schedule_components(&g, 1, |sub| kary::schedule(sub, budget)).unwrap();
        assert_eq!(plan.makespan(), plan.total_io());
        assert!((plan.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_component_fails_the_plan() {
        let g = channels(2);
        assert!(schedule_components(&g, 2, |sub| kary::schedule(sub, 16)).is_none());
    }

    #[test]
    fn more_procs_than_components_is_fine() {
        let g = channels(2);
        let plan = schedule_components(&g, 5, |sub| kary::schedule(sub, 1024)).unwrap();
        assert_eq!(plan.io_per_proc.iter().filter(|&&c| c > 0).count(), 2);
        assert!(plan.schedules[4].is_empty());
    }
}
