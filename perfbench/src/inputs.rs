//! Workload inputs, made from the seed alone. The program under test
//! receives only these; the same seed gives the same inputs, which
//! [`InputHash`] makes checkable.

use orchestra_apps::{climate, emu, psirrfan, vortex, Scale};
use orchestra_delirium::{DataAnno, DelirGraph, NodeKind};
use orchestra_lang::ast::{Expr, Program};
use std::collections::HashMap;

/// SplitMix64: a small, fixed generator, so inputs do not depend on
/// any library's choice of algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bbb1))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// FNV-1a over everything a workload hands the program.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a number.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds in a graph (its Delirium text) and its pipeline counts.
    pub fn graph(&mut self, g: &DelirGraph, iters: &HashMap<String, usize>) {
        self.bytes(orchestra_delirium::text::print(g, "g").as_bytes());
        let mut it: Vec<_> = iters.iter().collect();
        it.sort();
        for (k, v) in it {
            self.bytes(k.as_bytes());
            self.u64(*v as u64);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One graph run through the threaded backend.
#[derive(Debug, Clone)]
pub struct GraphJob {
    /// Display name.
    pub name: String,
    /// The graph.
    pub graph: DelirGraph,
    /// Pipeline iteration counts for its groups.
    pub iters: HashMap<String, usize>,
    /// Cost-sampling seed passed to the executor.
    pub seed: u64,
}

/// The four paper applications' split graphs. Each app's size is
/// chosen so its graph takes about the same time, which keeps the
/// per-job latency distribution one cluster instead of four; the seed
/// draws the task costs.
pub fn apps(seed: u64) -> Vec<GraphJob> {
    let at = |n| Scale { n, seed };
    let apps = [
        psirrfan::workload(&at(320)),
        climate::workload(&at(224)),
        emu::workload(&at(480)),
        vortex::workload(&at(448)),
    ];
    let mut rng = Rng::new(seed, 1);
    apps.into_iter()
        .map(|w| GraphJob {
            name: w.name.to_string(),
            graph: w.split,
            iters: w.pipeline_iters,
            seed: rng.next_u64(),
        })
        .collect()
}

/// One `small_jobs` job.
#[derive(Debug, Clone)]
pub enum SmallJob {
    /// MF source taken through the whole compile half.
    Source {
        /// Display name (kernel and extent).
        name: String,
        /// MF source text.
        src: String,
        /// Cost-sampling seed passed to the executor.
        seed: u64,
    },
    /// A prebuilt tiny-task graph.
    Graph(GraphJob),
}

/// Per-kernel MF jobs in one pass.
const SOURCES_PER_KERNEL: usize = 6;

/// MF source of an app kernel with its extent `n` replaced.
pub fn kernel_source(kernel: &Program, n: i64) -> String {
    let mut k = kernel.clone();
    for d in &mut k.decls {
        if d.name == "n" && d.init.is_some() {
            d.init = Some(Expr::IntLit(n));
        }
    }
    orchestra_lang::pretty_print(&k)
}

/// A one-op graph of `tasks` tasks.
pub fn flat_graph(tasks: usize, mean_cost: f64) -> DelirGraph {
    let mut g = DelirGraph::new();
    g.add_node("flat", NodeKind::DataParallel { tasks, mean_cost, cv: 0.5 }, None);
    g
}

/// `len` equal-length ops in a line: every edge is element-wise, so
/// the threaded backend streams each one.
pub fn chain_graph(len: usize, tasks: usize, mean_cost: f64) -> DelirGraph {
    let mut g = DelirGraph::new();
    let mut prev = None;
    for i in 0..len {
        let id =
            g.add_node(format!("c{i}"), NodeKind::DataParallel { tasks, mean_cost, cv: 0.3 }, None);
        if let Some(p) = prev {
            g.add_edge(p, id, DataAnno::array("x", tasks as u64));
        }
        prev = Some(id);
    }
    g
}

/// The `small_jobs` list: each app kernel at [`SOURCES_PER_KERNEL`]
/// extents drawn from the seed in 12..=41, a flat 40 000-task graph and a 48×512
/// streamed chain, in a seed-shuffled order.
pub fn small_jobs(seed: u64) -> Vec<SmallJob> {
    let mut rng = Rng::new(seed, 2);
    let kernels = [
        ("psirrfan", psirrfan::kernel()),
        ("climate", climate::kernel()),
        ("emu", emu::kernel()),
        ("vortex", vortex::kernel()),
    ];
    let mut jobs = Vec::new();
    for (name, k) in &kernels {
        // One extent from each of six strata of 12..=41, so the seed
        // varies the extents but barely the total work of a pass.
        for stratum in 0..SOURCES_PER_KERNEL as u64 {
            let n = rng.range(12 + 5 * stratum, 16 + 5 * stratum) as i64;
            let src = kernel_source(k, n);
            jobs.push(SmallJob::Source { name: format!("{name}@{n}"), src, seed: rng.next_u64() });
        }
    }
    jobs.push(SmallJob::Graph(GraphJob {
        name: "flat40000".into(),
        graph: flat_graph(40_000, 0.05),
        iters: HashMap::new(),
        seed: rng.next_u64(),
    }));
    jobs.push(SmallJob::Graph(GraphJob {
        name: "chain48x512".into(),
        graph: chain_graph(48, 512, 0.05),
        iters: HashMap::new(),
        seed: rng.next_u64(),
    }));
    rng.shuffle(&mut jobs);
    jobs
}

/// One served job variant: a graph and the cost seed it runs with.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// Graph sent over the wire.
    pub graph: DelirGraph,
    /// `JobOptions::seed`.
    pub seed: u64,
}

/// Seeds drawn per served kind; every variant gets its own reference.
const SERVE_SEEDS_PER_KIND: usize = 4;

/// The served mix: distinct variants, and the order in which one pass
/// of the open loop sends them: 3 small, 4 large and 1 chain, the seed
/// fixing both the order and each variant's cost seed. Half the jobs
/// are large, so the median latency falls inside the large jobs' range
/// rather than in the upper tail of the small ones, where it would
/// swing with every scheduling stall.
pub fn serve(seed: u64) -> (Vec<ServeJob>, Vec<Vec<usize>>) {
    let mut rng = Rng::new(seed, 3);
    let mut variants = Vec::new();
    // Small flat jobs, large-result flat jobs (~34 KB response) and
    // short streamed chains.
    let kinds: [fn() -> DelirGraph; 3] =
        [|| flat_graph(64, 20.0), || flat_graph(2000, 20.0), || chain_graph(8, 128, 20.0)];
    for make in kinds {
        for _ in 0..SERVE_SEEDS_PER_KIND {
            variants.push(ServeJob { graph: make(), seed: rng.next_u64() });
        }
    }
    let per = SERVE_SEEDS_PER_KIND;
    let passes = (0..per)
        .map(|p| {
            let mut pass: Vec<usize> = (0..3).map(|i| (p + i) % per).collect();
            pass.extend((0..4).map(|i| per + (p + i) % per));
            pass.push(2 * per + p % per);
            rng.shuffle(&mut pass);
            pass
        })
        .collect();
    (variants, passes)
}

/// The hash of everything a workload's run is given.
pub fn hash(workload: &str, seed: u64) -> u64 {
    let mut h = InputHash::default();
    h.bytes(workload.as_bytes());
    match workload {
        "apps" | "apps_ckpt" => {
            for j in apps(seed) {
                h.graph(&j.graph, &j.iters);
                h.u64(j.seed);
            }
        }
        "small_jobs" => {
            for j in small_jobs(seed) {
                match j {
                    SmallJob::Source { src, seed, .. } => {
                        h.bytes(src.as_bytes());
                        h.u64(seed);
                    }
                    SmallJob::Graph(g) => {
                        h.graph(&g.graph, &g.iters);
                        h.u64(g.seed);
                    }
                }
            }
        }
        _ => {
            let (variants, passes) = serve(seed);
            for v in &variants {
                h.graph(&v.graph, &HashMap::new());
                h.u64(v.seed);
            }
            for i in passes.iter().flatten() {
                h.u64(*i as u64);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in ["apps", "small_jobs", "serve"] {
            assert_eq!(hash(w, 7), hash(w, 7), "{w}");
            assert_ne!(hash(w, 7), hash(w, 8), "{w}: the seed must reach the inputs");
        }
    }

    #[test]
    fn kernel_sources_compile_at_drawn_extents() {
        for job in small_jobs(3) {
            if let SmallJob::Source { name, src, .. } = job {
                let c = orchestra_core::compile_source(&src, &Default::default())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let (g, _) = orchestra_core::graph_of_compiled(&c);
                assert!(g.validate().is_ok(), "{name}");
            }
        }
    }

    #[test]
    fn serve_passes_hold_the_stated_mix() {
        let (variants, passes) = serve(11);
        for pass in &passes {
            let tasks = |n| {
                pass.iter()
                    .filter(|&&i| orchestra_daemon::graph_tasks(&variants[i].graph) == n)
                    .count()
            };
            assert_eq!(tasks(64), 3);
            assert_eq!(tasks(2000), 4);
            assert_eq!(tasks(8 * 128), 1);
        }
    }
}
