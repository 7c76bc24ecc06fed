//! Planning rounds. Every cycle of a run plans the workload's pair set
//! cold into fresh `AdaptivePlanner`s (the first inside the timed
//! set-up), then feeds one of them the next seeded churn batches, each
//! followed by one node failure and its recovery. The batch generator
//! runs on across cycles, so a run's replan and repair figures cover
//! many distinct batches, while every cycle starts from the same pair
//! set.

use crate::checks::{check_excluded, check_plan, pick_victim, Accounting};
use crate::inputs::Inputs;
use crate::stats::ms;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo_core::adapt::{AdaptScheme, AdaptationReport, AdaptivePlanner};
use remo_core::planner::{PlanReport, Planner};
use remo_core::{CapacityMap, MonitoringPlan, NodeId, PairSet};
use remo_obs::span;
use remo_workloads::churn::{churn_pairs, ChurnConfig};
use std::time::Instant;

#[derive(Debug, Default)]
pub struct PlanStats {
    pub rounds: usize,
    pub cold_ms: Vec<f64>,
    pub replan_ms: Vec<f64>,
    pub repair_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    /// Collected pairs and message volume of each cycle's set-up plan
    /// and of the plan after each churn batch.
    pub covered: Vec<f64>,
    pub volume: Vec<f64>,
    /// Per-batch `AdaptationReport`s of the churn updates.
    pub updates: Vec<AdaptationReport>,
    /// Tree-cache counters, summed over the rounds' planners.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Plans produced and plans that failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl PlanStats {
    /// Checks one plan (and, after a failure repair, that `victim`
    /// carries no traffic); returns its accounting when it passes.
    pub fn check(
        &mut self,
        inp: &Inputs,
        plan: &MonitoringPlan,
        pairs: &PairSet,
        caps: &CapacityMap,
        victim: Option<NodeId>,
    ) -> Option<Accounting> {
        self.attempted += 1;
        let _s = span!("audit.check_plan");
        let verdict = check_plan(plan, pairs, caps, inp.cost, &inp.catalog).and_then(|acc| {
            victim.map_or(Ok(()), |v| check_excluded(plan, v))?;
            Ok(acc)
        });
        match verdict {
            Ok(acc) => Some(acc),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    /// Records a cold plan taken in `plan_ms` and checks it.
    pub fn cold(&mut self, inp: &Inputs, ap: &AdaptivePlanner, plan_ms: f64) -> Option<Accounting> {
        self.cold_ms.push(plan_ms);
        self.check(inp, ap.plan(), ap.pairs(), ap.caps(), None)
    }

    /// Records coverage and volume of a plan the run goes on with: the
    /// set-up's cold plan and the plan after each batch.
    pub fn record_plan(&mut self, plan: &MonitoringPlan) {
        self.covered.push(plan.collected_pairs() as f64);
        self.volume.push(plan.message_volume());
    }
}

/// The adaptive planner every workload uses: the default engine with
/// its tree cache on, under the paper's Adaptive scheme.
pub fn adaptive(inp: &Inputs) -> AdaptivePlanner {
    AdaptivePlanner::new(
        Planner::default(),
        AdaptScheme::Adaptive,
        inp.pairs.clone(),
        inp.caps.clone(),
        inp.cost,
        inp.catalog.clone(),
    )
}

/// The seeded generator of churn batches (5% of nodes, half of their
/// attributes, as in the paper).
pub struct Churn {
    cfg: ChurnConfig,
    rng: SmallRng,
    batch: u64,
}

impl Churn {
    pub fn new(inp: &Inputs) -> Churn {
        Churn {
            cfg: ChurnConfig {
                node_fraction: 0.05,
                attr_fraction: 0.5,
                attr_universe: inp.attrs,
            },
            rng: SmallRng::seed_from_u64(inp.churn_seed),
            batch: 0,
        }
    }
}

/// A cold plan into a fresh `AdaptivePlanner`, and its wall time in
/// milliseconds.
pub fn cold_plan(inp: &Inputs) -> (AdaptivePlanner, f64) {
    let t = Instant::now();
    let ap = {
        let _s = span!("core.planner.cold_plan");
        adaptive(inp)
    };
    (ap, ms(t.elapsed()))
}

/// One planning round on `ap`: `batches` churn batches with a failure
/// and a recovery after each.
pub fn round(
    inp: &Inputs,
    churn: &mut Churn,
    mut ap: AdaptivePlanner,
    batches: usize,
    st: &mut PlanStats,
) {
    for _ in 0..batches {
        churn.batch += 1;
        let now = 100 * churn.batch;
        let next = churn_pairs(ap.pairs(), &churn.cfg, &mut churn.rng);
        let t = Instant::now();
        let rep = {
            let _s = span!("core.adapt.update");
            ap.update(next, now)
        };
        st.replan_ms.push(ms(t.elapsed()));
        st.updates.push(rep);
        st.check(inp, ap.plan(), ap.pairs(), ap.caps(), None);
        st.record_plan(ap.plan());

        let Some(victim) = pick_victim(ap.plan(), churn.batch as usize) else {
            continue;
        };
        let capacity = inp.caps.node(victim).unwrap_or(0.0);
        let t = Instant::now();
        {
            let _s = span!("core.adapt.handle_node_failure");
            ap.handle_node_failure(victim, now + 1);
        }
        st.repair_ms.push(ms(t.elapsed()));
        st.check(inp, ap.plan(), ap.pairs(), ap.caps(), Some(victim));

        let t = Instant::now();
        {
            let _s = span!("core.adapt.handle_node_recovery");
            ap.handle_node_recovery(victim, capacity, now + 2);
        }
        st.recover_ms.push(ms(t.elapsed()));
        st.check(inp, ap.plan(), ap.pairs(), ap.caps(), None);
    }
    let cache = ap.cache_stats();
    st.cache_hits += cache.hits;
    st.cache_misses += cache.misses;
    st.rounds += 1;
}

/// One cold `Planner` plan with its phase breakdown, then the tree
/// build of its final partition alone (`Planner::evaluate_partition`),
/// in milliseconds.
pub fn phase_breakdown(inp: &Inputs) -> (PlanReport, f64) {
    let planner = Planner::default();
    let (plan, report) = {
        let _s = span!("core.planner.plan_with_report");
        planner.plan_with_report(&inp.pairs, &inp.caps, inp.cost, &inp.catalog)
    };
    let t = Instant::now();
    {
        let _s = span!("core.build.evaluate_partition");
        planner.evaluate_partition(
            plan.partition(),
            &inp.pairs,
            &inp.caps,
            inp.cost,
            &inp.catalog,
        );
    }
    (report, ms(t.elapsed()))
}
