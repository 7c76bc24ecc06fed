//! Epoch engines: `remo-sim`'s simulator, the threaded `Deployment`
//! (perfect or lossy transport), and the TCP hub.
//!
//! Every engine runs in blocks of a fixed number of measured epochs.
//! A threaded or hub block is one deployment life: launch, the
//! measured epochs, a drain window in which in-flight readings land,
//! the checks, shutdown. Every block repeats the same operations, so a
//! run's failure share does not depend on its length.

use crate::checks::{check_snapshot, Accounting};
use crate::inputs::{sample, Inputs};
use crate::stats::{ms, process_cpu_s, thread_cpu_s, threads_cpu_s};
use remo_core::{AttrId, MonitoringPlan, NodeId};
use remo_node::{spawn_node, CollectorService, NodeConfig, NodeHandle, ServiceConfig};
use remo_obs::span;
use remo_runtime::deployment::{Deployment, TransportSpec};
use remo_runtime::transport::NetSpec;
use remo_runtime::{EpochReport, HealthConfig};
use remo_sim::engine::{SimConfig, SimSetup, Simulator};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Snapshot ages are sampled every this many epochs.
const AGE_EVERY: u64 = 10;
/// Agent and node threads are named `remo-agent-<id>` by the runtime.
const AGENT_THREADS: &str = "remo-agent";

#[derive(Debug, Default)]
pub struct EpochStats {
    pub blocks: u64,
    pub epochs: u64,
    pub epoch_ms: Vec<f64>,
    /// Epoch wall time minus the driving thread's on-CPU time in it.
    pub wait_ms: Vec<f64>,
    pub process_cpu_s: f64,
    pub coordinator_cpu_s: f64,
    pub agent_cpu_s: f64,
    pub delivered: u64,
    /// Cost units the engine charged.
    pub volume: f64,
    /// Cost units the plan predicts for the same epochs.
    pub planned_volume: f64,
    /// `received − produced` of delivered readings.
    pub ages: Vec<f64>,
    pub dropped_readings: u64,
    pub retransmits: u64,
    pub duplicates_ignored: u64,
    pub abandoned: u64,
    pub net_dropped_frames: u64,
    pub shed_readings: u64,
    pub degrade_factor_max: u64,
    pub protocol_rejects: u64,
    /// Duplicates the hub's `RunSummary` reports (0 off the hub).
    pub dist_duplicates_ignored: u64,
    /// Epochs run and epochs that failed (see the README).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl EpochStats {
    fn time_epoch<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let c = thread_cpu_s();
        let out = f();
        let wall = ms(t.elapsed());
        let cpu = (thread_cpu_s() - c) * 1e3;
        self.epoch_ms.push(wall);
        self.wait_ms.push((wall - cpu).max(0.0));
        self.epochs += 1;
        self.attempted += 1;
        out
    }

    fn fold(&mut self, r: &EpochReport) {
        self.delivered += r.delivered_values;
        self.volume += r.volume;
        self.dropped_readings += r.dropped_readings;
        self.retransmits += r.retransmit_messages;
        self.duplicates_ignored += r.duplicate_messages_ignored;
        self.abandoned += r.abandoned_messages;
        self.shed_readings += r.shed_readings;
        self.degrade_factor_max = self.degrade_factor_max.max(r.degrade_factor);
    }

    fn error(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

fn health() -> HealthConfig {
    // Generous: a loaded two-core box must never suspect a live agent.
    HealthConfig {
        deadline: Duration::from_secs(2),
        confirm_after: 3,
        ..HealthConfig::default()
    }
}

// ------------------------------------------------------------ simulator

pub fn simulator(inp: &Inputs, plan: &MonitoringPlan) -> Simulator {
    let _s = span!("sim.engine.new");
    Simulator::new(SimSetup {
        plan,
        planned_pairs: &inp.pairs,
        metric_pairs: None,
        caps: &inp.caps,
        cost: inp.cost,
        catalog: &inp.catalog,
        aliases: BTreeMap::new(),
        config: SimConfig {
            seed: inp.value_seed,
            ..SimConfig::default()
        },
    })
}

/// Steps the simulator until its deepest pair has delivered, so the
/// measured epochs run in steady state.
pub fn warm_sim(sim: &mut Simulator, acc: &Accounting) {
    let _s = span!("sim.engine.warm_up");
    sim.run(acc.hops.values().copied().max().unwrap_or(0) + 1);
}

/// Steps the simulator for one block of `block` epochs.
pub fn sim_block(st: &mut EpochStats, sim: &mut Simulator, acc: &Accounting, block: u64) {
    let p0 = process_cpu_s();
    let c0 = thread_cpu_s();
    for _ in 0..block {
        let s = st.time_epoch(|| {
            let _s = span!("sim.engine.step");
            sim.step()
        });
        st.delivered += s.delivered_values;
        st.volume += s.monitoring_volume;
        st.dropped_readings += s.dropped_readings;
        if st.epochs.is_multiple_of(AGE_EVERY) {
            for &(n, a) in acc.hops.keys() {
                if let Some(v) = sim.collector().get(n, a) {
                    st.ages.push(v.received.saturating_sub(v.produced) as f64);
                }
            }
        }
    }
    st.process_cpu_s += process_cpu_s() - p0;
    st.coordinator_cpu_s += thread_cpu_s() - c0;
    st.planned_volume += acc.volume * block as f64;
    st.blocks += 1;
}

/// The simulator's values come from its own seeded processes, so its
/// check is structural: coverage and timestamps.
pub fn check_sim(st: &mut EpochStats, sim: &Simulator, acc: &Accounting) {
    let store = acc.hops.keys().filter_map(|&(n, a)| {
        sim.collector()
            .get(n, a)
            .map(|v| ((n, a), (v.value, v.produced, v.received)))
    });
    if let Err(e) = check_snapshot(store, &acc.hops, &|_, _, _| None, true) {
        st.error(format!("sim: {e}"));
    }
}

// ------------------------------------------------------------- threads

/// Launches a deployment of `plan` whose faults (if any) stop after
/// `epochs`, so a block's drain window runs on a quiet network.
pub fn launch(inp: &Inputs, plan: &MonitoringPlan, lossy: bool, epochs: u64) -> Deployment {
    let spec = if lossy {
        TransportSpec::Lossy(
            NetSpec {
                active_until: Some(epochs),
                ..inp.netspec.clone()
            },
            inp.net,
        )
    } else {
        TransportSpec::Perfect
    };
    let _s = span!("runtime.deployment.launch");
    Deployment::launch_with_transport(
        plan,
        &inp.pairs,
        &inp.deploy_caps,
        inp.cost,
        &inp.catalog,
        inp.sampler(),
        health(),
        spec,
    )
}

/// Upper bound on the epochs after a block's last measured epoch
/// until every reading it produced has landed: one per hop, plus the
/// transport delay and the ARQ retry window on the lossy path.
fn drain_epochs(inp: &Inputs, acc: &Accounting, lossy: bool) -> u64 {
    let depth = acc.hops.values().copied().max().unwrap_or(1);
    if lossy {
        depth * (inp.netspec.delay_max + 2) + inp.net.retry_window() + 2
    } else {
        depth + 2
    }
}

/// Ticks the drain window. On the lossy path it stops early once every
/// reading due in the block's `block` measured epochs is in the
/// delivery log (the log is checked for duplicates separately).
fn drain(dep: &mut Deployment, acc: &Accounting, lossy: bool, block: u64, limit: u64) {
    let _s = span!("runtime.deployment.drain");
    let due = acc.hops.len() * block as usize;
    let (mut seen, mut landed) = (0, 0);
    for _ in 0..limit {
        dep.tick();
        if !lossy {
            continue;
        }
        let log = dep.delivery_log();
        landed += log[seen..].iter().filter(|d| d.produced <= block).count();
        seen = log.len();
        if landed >= due {
            break;
        }
    }
}

/// One deployment life: `block` measured epochs, the drain window,
/// the checks, shutdown. `dep` is a deployment set-up launched, or
/// `None` to launch a fresh one.
pub fn threads_block(
    st: &mut EpochStats,
    inp: &Inputs,
    plan: &MonitoringPlan,
    acc: &Accounting,
    lossy: bool,
    block: u64,
    dep: Option<Deployment>,
) {
    let mut dep = dep.unwrap_or_else(|| launch(inp, plan, lossy, block));
    let net0 = dep.net_stats().total_dropped();
    let a0 = threads_cpu_s(AGENT_THREADS);
    let p0 = process_cpu_s();
    let c0 = thread_cpu_s();
    for _ in 0..block {
        let r = st.time_epoch(|| {
            let _s = span!("runtime.deployment.tick");
            dep.tick()
        });
        st.fold(&r);
        if r.suspected > 0 || r.confirmed_dead > 0 {
            st.failed += 1;
        }
        if !lossy && st.epochs.is_multiple_of(AGE_EVERY) {
            let (values, _) = dep.snapshot(acc.hops.keys().copied());
            st.ages.extend(
                values
                    .values()
                    .map(|o| o.received.saturating_sub(o.produced) as f64),
            );
        }
    }
    st.coordinator_cpu_s += thread_cpu_s() - c0;
    st.process_cpu_s += process_cpu_s() - p0;
    st.agent_cpu_s += threads_cpu_s(AGENT_THREADS) - a0;
    st.planned_volume += acc.volume * block as f64;
    drain(&mut dep, acc, lossy, block, drain_epochs(inp, acc, lossy));
    st.net_dropped_frames += dep.net_stats().total_dropped() - net0;

    // Snapshot: every demanded pair is queried, so an observed
    // uncovered pair shows up as well as a missing covered one.
    let (values, _) = dep.snapshot(inp.pairs.iter());
    let store = values
        .iter()
        .map(|(&k, o)| (k, (o.value, o.produced, o.received)));
    let seed = inp.value_seed;
    let value = |n, a, e| Some(sample(seed, n, a, e));
    if let Err(e) = check_snapshot(store, &acc.hops, &value, !lossy) {
        st.error(format!("block {}: {e}", st.blocks));
    }
    if lossy {
        check_deliveries(st, &dep, acc, block);
    }
    {
        let _s = span!("runtime.deployment.shutdown");
        dep.shutdown();
    }
    st.blocks += 1;
}

/// Lossy-path delivery audit over the block's log: no reading is
/// delivered twice, and every reading due in a measured epoch arrived
/// by the end of the drain window (an epoch with a missing reading is
/// a failed operation). Ages come from the same log.
fn check_deliveries(st: &mut EpochStats, dep: &Deployment, acc: &Accounting, block: u64) {
    let mut delivered: BTreeSet<(NodeId, AttrId, u64)> = BTreeSet::new();
    for d in dep.delivery_log() {
        if !delivered.insert((d.node, d.attr, d.produced)) {
            st.error(format!(
                "reading ({}, {}, {}) delivered twice",
                d.node.0, d.attr.0, d.produced
            ));
        }
        if d.produced <= block {
            st.ages.push(d.received.saturating_sub(d.produced) as f64);
        }
    }
    for e in 1..=block {
        let missing = acc
            .hops
            .keys()
            .filter(|&&(n, a)| !delivered.contains(&(n, a, e)))
            .count();
        if missing > 0 {
            st.failed += 1;
        }
    }
}

// ----------------------------------------------------------------- hub

/// A started collector service with its node clients registered.
pub struct Hub {
    service: CollectorService,
    nodes: Vec<NodeHandle>,
    epochs: u64,
    /// `(node, attr, produced)` of every snapshot entry the service's
    /// end-of-run integrity pass visits.
    snapshot: Arc<Mutex<Vec<(NodeId, AttrId, u64)>>>,
}

/// Starts a service for `epochs` unpaced epochs and registers one
/// in-process node client per node.
pub fn start_hub(inp: &Inputs, epochs: u64) -> std::io::Result<Hub> {
    let _s = span!("node.service.start");
    let snapshot: Arc<Mutex<Vec<(NodeId, AttrId, u64)>>> = Arc::default();
    let seed = inp.value_seed;
    let seen = Arc::clone(&snapshot);
    let mut cfg = ServiceConfig::new("127.0.0.1:0", inp.pairs.clone(), inp.caps.clone());
    cfg.cost = inp.cost;
    cfg.catalog = inp.catalog.clone();
    cfg.net = inp.net;
    cfg.health = health();
    cfg.epochs = epochs;
    cfg.epoch_interval = Duration::ZERO;
    cfg.startup_wait = Duration::from_secs(20);
    cfg.integrity_sampler = Some(Arc::new(move |n, a, e| {
        if let Ok(mut s) = seen.lock() {
            s.push((n, a, e));
        }
        sample(seed, n, a, e)
    }));
    let service = CollectorService::start(cfg)?;
    let addr = service.addr().to_string();
    let nodes: Vec<NodeHandle> = inp
        .caps
        .node_ids()
        .map(|id| spawn_node(NodeConfig::new(addr.clone(), id), inp.sampler()))
        .collect();
    let connected = service.wait_for_nodes(nodes.len());
    if connected != nodes.len() {
        return Err(std::io::Error::other(format!(
            "{connected} of {} nodes registered",
            nodes.len()
        )));
    }
    Ok(Hub {
        service,
        nodes,
        epochs,
        snapshot,
    })
}

/// One hub life: drives the started hub's epochs, then checks its
/// `RunSummary`. The epoch time is the gap between consecutive `run`
/// callbacks.
pub fn hub_block(st: &mut EpochStats, hub: Hub, acc: &Accounting) {
    let epochs = hub.epochs;
    let a0 = threads_cpu_s(AGENT_THREADS);
    let p0 = process_cpu_s();
    let c0 = thread_cpu_s();
    let mut ends = (p0, c0, a0);
    let mut last = (Instant::now(), c0);
    let summary = {
        let _s = span!("node.service.run");
        hub.service.run(|r| {
            let now = Instant::now();
            let cpu = thread_cpu_s();
            let wall = ms(now - last.0);
            st.epoch_ms.push(wall);
            st.wait_ms.push((wall - (cpu - last.1) * 1e3).max(0.0));
            st.epochs += 1;
            st.attempted += 1;
            st.fold(r);
            if r.suspected > 0 || r.confirmed_dead > 0 {
                st.failed += 1;
            }
            if r.epoch == epochs {
                ends = (process_cpu_s(), cpu, threads_cpu_s(AGENT_THREADS));
            }
            last = (Instant::now(), thread_cpu_s());
        })
    };
    for n in hub.nodes {
        n.join();
    }
    st.blocks += 1;
    st.process_cpu_s += ends.0 - p0;
    st.coordinator_cpu_s += ends.1 - c0;
    st.agent_cpu_s += ends.2 - a0;
    st.planned_volume += acc.volume * epochs as f64;
    st.dist_duplicates_ignored += summary.duplicate_messages_ignored;
    st.protocol_rejects += summary.protocol_rejects;
    let snapshot = hub.snapshot.lock().map(|s| s.clone()).unwrap_or_default();
    // The service exposes its store only to the integrity pass, after
    // the last epoch: ages there are `last epoch + 1 − produced`.
    st.ages.extend(
        snapshot
            .iter()
            .map(|&(_, _, p)| (epochs + 1).saturating_sub(p) as f64),
    );
    let observed: BTreeSet<(NodeId, AttrId)> = snapshot.iter().map(|&(n, a, _)| (n, a)).collect();
    let covered: BTreeSet<(NodeId, AttrId)> = acc.hops.keys().copied().collect();
    let verdicts = [
        (summary.epochs == epochs, "not every epoch ran"),
        (
            summary.observed_pairs == summary.planned_pairs,
            "observed pairs differ from planned pairs",
        ),
        (observed == covered, "snapshot pairs differ from the plan's"),
        (summary.integrity_checked > 0, "no value was checked"),
        (summary.integrity_violations == 0, "integrity violations"),
        (summary.protocol_rejects == 0, "protocol rejects"),
        (summary.confirmed_dead == 0, "a node was confirmed dead"),
    ];
    for (ok, what) in verdicts {
        if !ok {
            st.error(format!("dist-hub: {what}: {summary:?}"));
        }
    }
}
