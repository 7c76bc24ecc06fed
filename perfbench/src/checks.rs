//! Correctness checks. Each one recomputes a property from the plan or
//! the sampler's closed form instead of comparing with stored output.

use remo_audit::{Audit, AuditInput};
use remo_core::{
    AttrCatalog, AttrId, CapacityMap, CostModel, MonitoringPlan, NodeId, PairSet, Parent,
};
use std::collections::{BTreeMap, BTreeSet};

/// Independent cost-model accounting of one plan.
#[derive(Debug, Default)]
pub struct Accounting {
    /// Per-node cost units per epoch: send cost of its own message
    /// plus the receive cost of each child's.
    pub usage: BTreeMap<NodeId, f64>,
    pub collector: f64,
    /// Σ send costs: the plan's per-epoch message volume.
    pub volume: f64,
    pub messages: usize,
    /// Values each tree's root sends to the collector per epoch.
    pub root_loads: Vec<usize>,
    /// Covered pair → hops from its node to the collector (1 = root).
    pub hops: BTreeMap<(NodeId, AttrId), u64>,
}

/// Recomputes every tree's load bottom-up with `C + a·x`, where `x` is
/// the node's own values in the tree's attribute set plus everything
/// its subtree forwards (holistic attributes, frequency 1).
fn account(plan: &MonitoringPlan, pairs: &PairSet, cost: CostModel) -> Accounting {
    let mut acc = Accounting::default();
    for (set, planned) in plan.partition().sets().iter().zip(plan.trees()) {
        let Some(tree) = planned.tree.as_ref() else {
            continue;
        };
        let own = |n: NodeId| -> Vec<AttrId> {
            pairs
                .attrs_of(n)
                .map(|a| a.intersection(set).copied().collect())
                .unwrap_or_default()
        };
        // Post-order over the tree from its root.
        let mut order = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(n) = stack.pop() {
            order.push(n);
            stack.extend_from_slice(tree.children(n));
        }
        let mut carried: BTreeMap<NodeId, f64> = BTreeMap::new();
        for &n in order.iter().rev() {
            let x = own(n).len() as f64 + tree.children(n).iter().map(|c| carried[c]).sum::<f64>();
            carried.insert(n, x);
            let send = cost.message_cost(x);
            let recv: f64 = tree
                .children(n)
                .iter()
                .map(|c| cost.message_cost(carried[c]))
                .sum();
            *acc.usage.entry(n).or_insert(0.0) += send + recv;
            acc.volume += send;
            acc.messages += 1;
        }
        acc.collector += cost.message_cost(carried[&tree.root()]);
        acc.root_loads.push(carried[&tree.root()] as usize);
        for n in tree.nodes() {
            let mut hops = 1;
            let mut cur = n;
            while let Some(Parent::Node(p)) = tree.parent(cur) {
                hops += 1;
                cur = p;
            }
            for a in own(n) {
                acc.hops.insert((n, a), hops);
            }
        }
    }
    acc
}

/// A plan passes when the workspace audit is clean, the independent
/// accounting keeps every node and the collector within budget, and
/// it agrees with the plan's own coverage and volume figures.
pub fn check_plan(
    plan: &MonitoringPlan,
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
    catalog: &AttrCatalog,
) -> Result<Accounting, String> {
    let outcome = Audit::new().run(&AuditInput::new(plan, pairs, caps, cost, catalog));
    if !outcome.is_clean() {
        return Err(format!("audit: {}", outcome.render()));
    }
    let acc = account(plan, pairs, cost);
    let slack = |cap: f64| 1e-6 * cap.abs().max(1.0);
    for (&n, &u) in &acc.usage {
        let cap = caps.node(n).unwrap_or(0.0);
        if u > cap + slack(cap) {
            return Err(format!("node {} uses {u} of {cap}", n.0));
        }
    }
    if acc.collector > caps.collector() + slack(caps.collector()) {
        return Err(format!(
            "collector uses {} of {}",
            acc.collector,
            caps.collector()
        ));
    }
    if acc.hops.len() != plan.collected_pairs() {
        return Err(format!(
            "plan claims {} covered pairs, its trees carry {}",
            plan.collected_pairs(),
            acc.hops.len()
        ));
    }
    if (acc.volume - plan.message_volume()).abs() > 1e-6 * acc.volume.max(1.0) {
        return Err(format!(
            "plan claims volume {}, its trees cost {}",
            plan.message_volume(),
            acc.volume
        ));
    }
    Ok(acc)
}

/// After a failure repair the failed node belongs to no tree.
pub fn check_excluded(plan: &MonitoringPlan, node: NodeId) -> Result<(), String> {
    for t in plan.trees() {
        if t.tree.as_ref().is_some_and(|tree| tree.contains(node)) {
            return Err(format!("failed node {} still carries traffic", node.0));
        }
    }
    Ok(())
}

/// The node whose failure forces the most repair work in batch `k`:
/// among the plan's relays (nodes with children), the one with the
/// most children, ties broken by a `k`-dependent rotation so batches
/// hit different nodes.
pub fn pick_victim(plan: &MonitoringPlan, k: usize) -> Option<NodeId> {
    let mut fanout: BTreeMap<NodeId, usize> = BTreeMap::new();
    for t in plan.trees() {
        if let Some(tree) = t.tree.as_ref() {
            for n in tree.nodes() {
                *fanout.entry(n).or_insert(0) += tree.children(n).len();
            }
        }
    }
    let best = fanout.values().copied().max()?;
    let top: Vec<NodeId> = fanout
        .iter()
        .filter(|&(_, &f)| f == best)
        .map(|(&n, _)| n)
        .collect();
    top.get(k % top.len()).copied()
}

/// Checks a collector's per-pair snapshot against the plan: every
/// covered pair observed and no other, every value equal to the
/// closed-form sampler at its production epoch (when `value` knows
/// it), `received ≥ produced`, and (when `ages_within_hops`) every age
/// `received − produced` within its pair's hop count.
pub fn check_snapshot(
    store: impl IntoIterator<Item = ((NodeId, AttrId), (f64, u64, u64))>,
    covered: &BTreeMap<(NodeId, AttrId), u64>,
    value: &dyn Fn(NodeId, AttrId, u64) -> Option<f64>,
    ages_within_hops: bool,
) -> Result<(), String> {
    let mut seen: BTreeSet<(NodeId, AttrId)> = BTreeSet::new();
    for ((n, a), (v, produced, received)) in store {
        let Some(&hops) = covered.get(&(n, a)) else {
            return Err(format!("uncovered pair ({}, {}) observed", n.0, a.0));
        };
        if let Some(expect) = value(n, a, produced) {
            if v != expect {
                return Err(format!(
                    "pair ({}, {}) at epoch {produced}: observed {v}, sampler says {expect}",
                    n.0, a.0
                ));
            }
        }
        if received < produced {
            return Err(format!(
                "pair ({}, {}) received at {received} before produced at {produced}",
                n.0, a.0
            ));
        }
        if ages_within_hops && received - produced > hops {
            return Err(format!(
                "pair ({}, {}) is {} epochs old over {hops} hops",
                n.0,
                a.0,
                received - produced
            ));
        }
        seen.insert((n, a));
    }
    if let Some((n, a)) = covered.keys().find(|k| !seen.contains(k)) {
        return Err(format!("covered pair ({}, {}) never observed", n.0, a.0));
    }
    Ok(())
}
