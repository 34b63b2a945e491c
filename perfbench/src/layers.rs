//! Layer probes shared by the traced runs: the benchmark's own calls
//! into the runtime's claim queue and kernel, on a workload's graphs.

use orchestra_delirium::DelirGraph;
use orchestra_runtime::threaded::queue::ChunkQueue;
use orchestra_runtime::threaded::Plan;
use orchestra_runtime::{costs_of_node, PolicyKind, TaskCtx, TaskKernel};
use std::time::Instant;

/// A running total of time spent on some number of tasks.
#[derive(Debug, Default, Clone, Copy)]
pub struct PerTask {
    ns: f64,
    tasks: u64,
}

impl PerTask {
    /// Nanoseconds per task; 0 when nothing was timed.
    pub fn ns_per_task(self) -> f64 {
        self.ns / self.tasks.max(1) as f64
    }
}

/// Drains every planned op's `ChunkQueue` on one thread.
pub fn claim_drain(plan: &Plan, policy: PolicyKind, workers: usize, acc: &mut PerTask) {
    for op in plan.ops.iter().filter(|o| o.tasks > 0) {
        let q = ChunkQueue::new(policy.instantiate(op.tasks), op.tasks, workers);
        let t0 = Instant::now();
        while std::hint::black_box(q.claim()).is_some() {}
        acc.ns += t0.elapsed().as_nanos() as f64;
        acc.tasks += op.tasks as u64;
    }
}

/// Drives `kernel.run_task` directly over the first `limit` tasks of
/// each node, with the cost hints the executor would give them.
pub fn kernel_drive(
    g: &DelirGraph,
    seed: u64,
    kernel: &dyn TaskKernel,
    limit: usize,
    acc: &mut PerTask,
) {
    for node in &g.nodes {
        let costs = costs_of_node(node, seed);
        let n = costs.len().min(limit);
        let t0 = Instant::now();
        for (task, &cost_hint) in costs.iter().enumerate().take(n) {
            let ctx = TaskCtx { node, iter: 0, task, cost_hint, inputs: &[] };
            std::hint::black_box(kernel.run_task(&ctx));
        }
        acc.ns += t0.elapsed().as_nanos() as f64;
        acc.tasks += n as u64;
    }
}
