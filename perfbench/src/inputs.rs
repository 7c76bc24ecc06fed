//! Workload definitions and their seeded inputs.
//!
//! Every workload plans a pair set, adapts it through a seeded run of
//! churn batches, and runs the plan on an epoch engine. The workloads
//! differ in scale and in the engine, so each one loads a different
//! set of layers (see the README's layer table).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use remo_core::{
    AttrCatalog, AttrId, CapacityMap, CostModel, MonitoringTask, NodeId, PairSet, TaskId,
};
use remo_runtime::transport::{NetConfig, NetSpec};
use remo_runtime::Sampler;
use remo_workloads::TaskGenConfig;
use std::sync::Arc;

/// The epoch engine a workload runs its plan on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `remo-sim`'s deterministic single-threaded engine only.
    Sim,
    /// A threaded `Deployment` on `PerfectTransport`.
    Threads,
    /// A threaded `Deployment` on `LossyTransport` with ARQ.
    ThreadsLossy,
    /// One `CollectorService` and `spawn_node` clients over loopback TCP.
    Hub,
}

/// Static shape of a workload. A run repeats whole cycles of one
/// set-up, one engine block, the cold plans, one planning round, and
/// one simulator block.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub engine: Engine,
    /// Churn batches per planning round.
    pub batches: usize,
    /// Measured epochs per engine block (one deployment life).
    pub block_epochs: u64,
    /// Simulator epochs per cycle.
    pub sim_epochs: u64,
    /// Cold plans per cycle, the set-up's included; `plan_ms` is their
    /// median.
    pub cold_plans: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "plan-churn",
        engine: Engine::Sim,
        batches: 1,
        block_epochs: 0,
        sim_epochs: 5,
        cold_plans: 1,
    },
    Workload {
        name: "collect",
        engine: Engine::Threads,
        batches: 8,
        block_epochs: 150,
        sim_epochs: 25,
        cold_plans: 4,
    },
    Workload {
        name: "collect-lossy",
        engine: Engine::ThreadsLossy,
        batches: 3,
        block_epochs: 150,
        sim_epochs: 25,
        cold_plans: 4,
    },
    Workload {
        name: "dist-hub",
        engine: Engine::Hub,
        batches: 24,
        block_epochs: 150,
        sim_epochs: 25,
        cold_plans: 2,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything a workload's run is built from; a pure function of the
/// workload, `--seed`, and the mode flags.
pub struct Inputs {
    pub pairs: PairSet,
    /// The budgets the plan is made for.
    pub caps: CapacityMap,
    /// The budgets the threaded engine's agents run with.
    pub deploy_caps: CapacityMap,
    pub cost: CostModel,
    pub catalog: AttrCatalog,
    /// Attribute universe the churn draws replacements from.
    pub attrs: usize,
    /// Seed of the churn chain.
    pub churn_seed: u64,
    /// Seed of the closed-form sampler.
    pub value_seed: u64,
    pub netspec: NetSpec,
    pub net: NetConfig,
}

/// bench_planner's pair-set generator: the task count and attribute
/// universe grow with the system, the per-task shape stays small.
fn bench_planner_pairs(nodes: usize) -> (PairSet, usize) {
    let attrs = (nodes / 10).clamp(12, 100);
    let tasks = (nodes / 2).clamp(10, 2_000);
    let gen = TaskGenConfig::small_scale(nodes, attrs);
    let mut rng = SmallRng::seed_from_u64(42 + nodes as u64);
    let pairs = gen
        .generate(tasks, TaskId(0), &mut rng)
        .iter()
        .flat_map(MonitoringTask::pairs)
        .collect();
    (pairs, attrs)
}

/// `nodes` nodes, each monitoring `per_node` distinct attributes drawn
/// at random from `0..attrs`.
fn random_pairs(nodes: usize, attrs: usize, per_node: usize, rng: &mut SmallRng) -> PairSet {
    let mut universe: Vec<u32> = (0..attrs as u32).collect();
    let mut pairs = PairSet::new();
    for n in 0..nodes as u32 {
        universe.shuffle(rng);
        for &a in &universe[..per_node] {
            pairs.insert(NodeId(n), AttrId(a));
        }
    }
    pairs
}

impl Inputs {
    /// `headroom: false` deploys collect-lossy's agents at the budgets
    /// the plan fills (the budget-saturated regime the README records).
    pub fn generate(w: &Workload, seed: u64, quick: bool, headroom: bool) -> Inputs {
        // The runtime workloads' pair sets are fixed, like plan-churn's,
        // so every seed plans the same forest; `seed` drives the sampled
        // values and the network faults, and plan-churn's churn chain.
        // The runtime workloads churn a few dozen nodes by one or two
        // nodes a batch, so a batch's replan time ranges over an order
        // of magnitude; their chain is fixed, so that every run times
        // the same batches.
        let mut rng = SmallRng::seed_from_u64(0x5EED_B4C4);
        let mut deploy_caps = None;
        let (attrs, pairs, caps, cost) = match w.engine {
            Engine::Sim => {
                // bench_planner's n=10k row (57,737 pairs over 100
                // attributes) with its capacity rule; quick mode plans
                // its n=2k row instead.
                let nodes = if quick { 2_000 } else { 10_000 };
                let (pairs, attrs) = bench_planner_pairs(nodes);
                let per_node = (0.35 * pairs.len() as f64 / attrs as f64).max(60.0);
                let caps = cap_map(nodes, per_node, 40.0 * nodes as f64);
                (attrs, pairs, caps, ratio_cost(20.0))
            }
            Engine::Threads => {
                // Budget-constrained: relays run near their budgets and
                // part of the demand stays uncovered. This is the regime
                // where relays drop frames that race their parent's tick
                // (see the README).
                let (nodes, attrs) = if quick { (48, 16) } else { (256, 16) };
                let pairs = random_pairs(nodes, attrs, 4, &mut rng);
                let caps = cap_map(nodes, 40.0, 100_000.0);
                (attrs, pairs, caps, CostModel::default())
            }
            Engine::ThreadsLossy => {
                // Every pair covered, and agents deployed with three
                // times the budget the plan fills, so retransmissions
                // and frames bunched by delay never run into a relay's
                // budget.
                let (nodes, attrs) = if quick { (16, 12) } else { (64, 12) };
                let pairs = random_pairs(nodes, attrs, 6, &mut rng);
                let caps = cap_map(nodes, 400.0, 100_000.0);
                if headroom {
                    deploy_caps = Some(cap_map(nodes, 1_200.0, 100_000.0));
                }
                (attrs, pairs, caps, CostModel::default())
            }
            Engine::Hub => {
                // Budgets that cover every pair yet make relaying pay,
                // so node-to-node traffic crosses the hub.
                let (nodes, attrs) = if quick { (8, 6) } else { (32, 8) };
                let pairs = random_pairs(nodes, attrs, 4, &mut rng);
                let caps = cap_map(nodes, 150.0, 100_000.0);
                (attrs, pairs, caps, ratio_cost(10.0))
            }
        };
        let netspec = NetSpec {
            seed,
            drop: 0.05,
            delay_max: 2,
            dup: 0.03,
            reorder: 0.1,
            ..NetSpec::default()
        };
        // A retry budget deep enough that a frame outlives any run of
        // drops the spec can produce (data or ack lost: p ~ 0.1 per
        // attempt, 0.1^10 per frame), and an ingress bound and
        // collector budget that never shed or degrade.
        let net = NetConfig {
            max_attempts: 10,
            base_rto: 2,
            ingress_capacity: 1 << 20,
            record_deliveries: w.engine == Engine::ThreadsLossy,
            ..NetConfig::default()
        };
        Inputs {
            attrs,
            churn_seed: if w.engine == Engine::Sim {
                seed ^ 0xC4A0_0A11
            } else {
                0xC4A0_0A11
            },
            pairs,
            deploy_caps: deploy_caps.unwrap_or_else(|| caps.clone()),
            caps,
            cost,
            catalog: AttrCatalog::new(),
            value_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA11C_E5ED,
            netspec,
            net,
        }
    }

    /// The closed-form sampler every engine's agents read values from.
    pub fn sampler(&self) -> Sampler {
        let seed = self.value_seed;
        Arc::new(move |n, a, e| sample(seed, n, a, e))
    }
}

fn cap_map(nodes: usize, per_node: f64, collector: f64) -> CapacityMap {
    CapacityMap::uniform(nodes, per_node, collector)
        .unwrap_or_else(|e| panic!("capacity map for {nodes} nodes: {e}"))
}

fn ratio_cost(ratio: f64) -> CostModel {
    CostModel::from_ratio(ratio).unwrap_or_else(|e| panic!("cost ratio {ratio}: {e}"))
}

/// The value node `n` samples for attribute `a` at epoch `e`: a
/// SplitMix64 hash of the tuple, scaled to `[0, 1000)`. Checks
/// recompute it independently of the runtime.
pub fn sample(seed: u64, n: NodeId, a: AttrId, e: u64) -> f64 {
    let mut z = seed
        .wrapping_add(u64::from(n.0) << 40)
        .wrapping_add(u64::from(a.0) << 20)
        .wrapping_add(e)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 1000.0
}
