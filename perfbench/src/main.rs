//! One benchmark for REMO: planning under churn, threaded and lossy
//! collection, and the TCP hub.
//!
//! ```text
//! remo-perfbench --workload <plan-churn|collect|collect-lossy|dist-hub>
//!                --seed <n> --seconds <s> --trace <0|1> [--quick] [--no-headroom]
//! ```
//!
//! Every workload repeats whole cycles for `--seconds`: a timed set-up
//! (inputs, a cold plan, the simulator, the engine launched), a block
//! of epochs on that engine, more cold plans, a planning round (churn
//! batches, a failure and a recovery after each), and a block of
//! simulator epochs on the same plan. `--trace 1` runs the same work
//! with `remo-obs` span recording on, adds the per-layer probes, and prints
//! the per-layer metrics instead of the end-to-end ones. `--quick`
//! shrinks every phase to a few epochs or one batch and keeps every
//! check. `--no-headroom` deploys collect-lossy's agents at the budgets
//! their plan fills. The last line of standard output is the JSON
//! result.

mod checks;
mod engines;
mod inputs;
mod layers;
mod planning;
mod stats;

use checks::Accounting;
use engines::EpochStats;
use inputs::{Engine, Inputs, Workload};
use planning::PlanStats;
use remo_core::adapt::AdaptivePlanner;
use remo_core::planner::PlanReport;
use remo_core::MonitoringPlan;
use remo_obs::span;
use remo_runtime::deployment::Deployment;
use remo_sim::engine::Simulator;
use stats::{mean, median, quantile, ratio};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    headroom: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut headroom = true;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => {
                quick = true;
                continue;
            }
            "--no-headroom" => {
                headroom = false;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    inputs::workload(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
        quick,
        headroom,
    })
}

/// What one set-up leaves behind for its cycle.
struct Setup {
    inputs: Inputs,
    planner: AdaptivePlanner,
    plan: MonitoringPlan,
    plan_ms: f64,
    sim: Simulator,
    deployment: Option<Deployment>,
    hub: Option<engines::Hub>,
}

/// One timed set-up: generates the inputs, plans them cold, builds the
/// simulator of the plan, and launches the workload's engine on it (a
/// hub for `block` epochs). Checks run after it, off the clock.
fn set_up(args: &Args, block: u64) -> Result<Setup, String> {
    let _s = span!("perfbench.setup");
    let w = &args.workload;
    let inputs = Inputs::generate(w, args.seed, args.quick, args.headroom);
    let (planner, plan_ms) = planning::cold_plan(&inputs);
    let plan = planner.plan().clone();
    let sim = engines::simulator(&inputs, &plan);
    let deployment = match w.engine {
        Engine::Threads | Engine::ThreadsLossy => Some(engines::launch(
            &inputs,
            &plan,
            w.engine == Engine::ThreadsLossy,
            block,
        )),
        _ => None,
    };
    let hub = match w.engine {
        Engine::Hub => Some(engines::start_hub(&inputs, block).map_err(|e| e.to_string())?),
        _ => None,
    };
    Ok(Setup {
        inputs,
        planner,
        plan,
        plan_ms,
        sim,
        deployment,
        hub,
    })
}

fn block_epochs(args: &Args) -> u64 {
    if args.quick {
        20
    } else {
        args.workload.block_epochs
    }
}

fn sim_epochs(args: &Args) -> u64 {
    if args.quick {
        10
    } else {
        args.workload.sim_epochs
    }
}

/// Everything one run measured.
struct Measured {
    setup_s: Vec<f64>,
    plan: PlanStats,
    engine: EpochStats,
    sim: EpochStats,
    /// The first cycle's plan, its accounting, and the simulator
    /// stepping it for the whole run.
    acc: Accounting,
    engine_plan: MonitoringPlan,
    simulator: Simulator,
}

/// Repeats whole cycles until `--seconds` have passed: a timed set-up,
/// an engine block on the engine it launched, the remaining cold
/// plans, a planning round on the set-up's planner, and a simulator
/// block. Interleaving the phases spreads each one's samples over the
/// whole window. The first cycle's simulator is kept and warmed off
/// the clock; later cycles' simulators are only built, as part of
/// their set-up.
fn measure(args: &Args) -> Result<Measured, String> {
    let w = args.workload;
    let block = block_epochs(args);
    let batches = if args.quick { 1 } else { w.batches };
    let cold_plans = if args.quick { 1 } else { w.cold_plans };
    let seconds = if args.quick { 0.0 } else { args.seconds };
    let mut end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setup_s = Vec::new();
    let mut plan = PlanStats::default();
    let mut engine = EpochStats::default();
    let mut sim_stats = EpochStats::default();
    // The first cycle's accounting, plan and (warmed) simulator.
    let mut first: Option<(Accounting, MonitoringPlan, Simulator)> = None;
    let mut churn = None;
    loop {
        let t = Instant::now();
        let s = set_up(args, block)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let Setup {
            inputs,
            planner,
            plan: cold,
            plan_ms,
            sim,
            deployment,
            hub,
        } = s;
        plan.record_plan(&cold);
        let Some(acc) = plan.cold(&inputs, &planner, plan_ms) else {
            // Every cycle plans the same pair set, so a plan that fails
            // its check ends the run, once the hub's nodes have been
            // let go (a deployment stops on drop).
            if let Some(h) = hub {
                engines::hub_block(&mut EpochStats::default(), h, &Accounting::default());
            }
            return Err(format!("cold plan: {}", plan.errors.join("; ")));
        };
        match w.engine {
            Engine::Sim => {}
            Engine::Threads | Engine::ThreadsLossy => engines::threads_block(
                &mut engine,
                &inputs,
                &cold,
                &acc,
                w.engine == Engine::ThreadsLossy,
                block,
                deployment,
            ),
            Engine::Hub => {
                if let Some(h) = hub {
                    engines::hub_block(&mut engine, h, &acc);
                }
            }
        }
        for _ in 1..cold_plans {
            let (ap, ms) = planning::cold_plan(&inputs);
            plan.cold(&inputs, &ap, ms);
        }
        let churn = churn.get_or_insert_with(|| planning::Churn::new(&inputs));
        planning::round(&inputs, churn, planner, batches, &mut plan);

        let (acc, _, simulator) = first.get_or_insert_with(|| {
            let t = Instant::now();
            let mut simulator = sim;
            engines::warm_sim(&mut simulator, &acc);
            end += t.elapsed();
            (acc, cold, simulator)
        });
        engines::sim_block(&mut sim_stats, simulator, acc, sim_epochs(args));
        if Instant::now() >= end {
            break;
        }
    }
    let (acc, engine_plan, simulator) = first.ok_or("no cycle ran")?;
    engines::check_sim(&mut sim_stats, &simulator, &acc);
    Ok(Measured {
        setup_s,
        plan,
        engine,
        sim: sim_stats,
        acc,
        engine_plan,
        simulator,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The workload's epoch engine's figures: on plan-churn the simulator
/// is the engine.
fn engine_stats(m: &Measured, engine: Engine) -> &EpochStats {
    if engine == Engine::Sim {
        &m.sim
    } else {
        &m.engine
    }
}

fn end_to_end(m: &Measured, engine: Engine) -> Vec<Metric> {
    let e = engine_stats(m, engine);
    let covered: f64 = m.plan.covered.iter().sum();
    vec![
        metric("setup_s", median(&m.setup_s), "s"),
        metric("plan_ms", median(&m.plan.cold_ms), "ms"),
        metric("replan_p50_ms", median(&m.plan.replan_ms), "ms"),
        metric("repair_p50_ms", median(&m.plan.repair_ms), "ms"),
        metric("covered_pairs", mean(&m.plan.covered), "pairs"),
        metric(
            "volume_per_pair",
            ratio(m.plan.volume.iter().sum(), covered),
            "cost/pair",
        ),
        metric("epoch_p50_ms", median(&e.epoch_ms), "ms"),
        metric(
            "cpu_us_per_value",
            ratio(e.process_cpu_s * 1e6, e.delivered as f64),
            "us",
        ),
        metric(
            "volume_per_value",
            ratio(e.volume, e.delivered as f64),
            "cost/value",
        ),
        metric("staleness_p50_epochs", quantile(&e.ages, 0.5), "epochs"),
        metric("staleness_p99_epochs", quantile(&e.ages, 0.99), "epochs"),
        metric("sim_epoch_ms", median(&m.sim.epoch_ms), "ms"),
    ]
}

fn per_layer(
    m: &Measured,
    engine: Engine,
    report: &PlanReport,
    forest_ms: f64,
    probe: &layers::LayerProbe,
    overhead: (f64, f64),
) -> Vec<Metric> {
    let e = engine_stats(m, engine);
    let values = e.delivered as f64;
    let batches = m.plan.updates.len() as f64;
    let per_batch = |f: fn(&remo_core::adapt::AdaptationReport) -> usize| {
        ratio(m.plan.updates.iter().map(|u| f(u) as f64).sum(), batches)
    };
    vec![
        metric("planner.seed_ms", report.seed_ms, "ms"),
        metric("planner.rank_ms", report.rank_ms, "ms"),
        metric("planner.local_ms", report.local_ms, "ms"),
        metric("planner.global_ms", report.global_ms, "ms"),
        metric("planner.rounds", report.rounds as f64, "count"),
        metric("planner.local_evals", report.local_evals as f64, "count"),
        metric("build.forest_ms", forest_ms, "ms"),
        metric(
            "adapt.trees_rebuilt",
            per_batch(|u| u.trees_rebuilt),
            "count",
        ),
        metric("adapt.ops_applied", per_batch(|u| u.ops_applied), "count"),
        metric(
            "adapt.ops_throttled",
            per_batch(|u| u.ops_throttled),
            "count",
        ),
        metric(
            "adapt.messages",
            per_batch(|u| u.adaptation_messages),
            "count",
        ),
        metric("adapt.recover_p50_ms", median(&m.plan.recover_ms), "ms"),
        metric(
            "cache.hit_ratio",
            ratio(
                m.plan.cache_hits as f64,
                (m.plan.cache_hits + m.plan.cache_misses) as f64,
            ),
            "ratio",
        ),
        metric("tick.wait_p50_ms", median(&e.wait_ms), "ms"),
        metric(
            "agent.cpu_us_per_value",
            ratio(e.agent_cpu_s * 1e6, values),
            "us",
        ),
        metric(
            "coordinator.cpu_us_per_value",
            ratio(e.coordinator_cpu_s * 1e6, values),
            "us",
        ),
        metric(
            "proto.encode_ns_per_reading",
            probe.encode_ns_per_reading,
            "ns",
        ),
        metric(
            "proto.decode_ns_per_reading",
            probe.decode_ns_per_reading,
            "ns",
        ),
        metric(
            "collector.intake_ns_per_value",
            probe.intake_ns_per_value,
            "ns",
        ),
        metric(
            "fidelity.volume_ratio",
            ratio(e.volume, e.planned_volume),
            "ratio",
        ),
        metric(
            "runtime.dropped_readings",
            e.dropped_readings as f64,
            "count",
        ),
        metric(
            "arq.retransmits_per_value",
            ratio(e.retransmits as f64, values),
            "count",
        ),
        metric(
            "arq.duplicates_ignored",
            e.duplicates_ignored as f64,
            "count",
        ),
        metric("arq.abandoned", e.abandoned as f64, "count"),
        metric("net.dropped_frames", e.net_dropped_frames as f64, "count"),
        metric("collector.shed_readings", e.shed_readings as f64, "count"),
        metric(
            "collector.degrade_factor_max",
            e.degrade_factor_max.max(1) as f64,
            "count",
        ),
        metric(
            "framing.decode_ns_per_envelope",
            probe.framing_ns_per_envelope,
            "ns",
        ),
        metric("ctrl.codec_ns_per_msg", probe.ctrl_ns_per_msg, "ns"),
        // Hub-only counters from `RunSummary`: no other engine has a
        // hub, so they read 0 there.
        metric(
            "dist.duplicates_ignored",
            e.dist_duplicates_ignored as f64,
            "count",
        ),
        metric("dist.protocol_rejects", e.protocol_rejects as f64, "count"),
        metric("obs.plan_overhead_ratio", overhead.0, "ratio"),
        metric("obs.epoch_overhead_ratio", overhead.1, "ratio"),
    ]
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("remo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        remo_obs::enable();
    }
    let mut m = match measure(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("remo-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let engine = args.workload.engine;
    let errors: Vec<String> = [&m.plan.errors, &m.engine.errors, &m.sim.errors]
        .into_iter()
        .flatten()
        .cloned()
        .collect();
    let no_values = m.sim.delivered == 0 || engine_stats(&m, engine).delivered == 0;
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    if no_values {
        eprintln!("check failed: an engine delivered no values");
    }
    let attempted = m.plan.attempted + m.engine.attempted + m.sim.attempted;
    let failed = m.plan.failed + m.engine.failed + m.sim.failed;
    eprintln!(
        "{}: {} cycles: {} set-ups, {} cold plans, {} planning rounds, {} engine epochs \
         in {} blocks, {} sim epochs; {} pairs covered, up to {} hops",
        args.workload.name,
        m.sim.blocks,
        m.setup_s.len(),
        m.plan.cold_ms.len(),
        m.plan.rounds,
        m.engine.epochs,
        m.engine.blocks,
        m.sim.epochs,
        m.acc.hops.len(),
        m.acc.hops.values().max().copied().unwrap_or(0),
    );

    let metrics = if args.trace {
        let (report, forest_ms, probe, overhead) = traced_extras(&args, &mut m);
        if let Err(e) = write_trace(&args) {
            eprintln!("remo-perfbench: writing the trace: {e}");
        }
        per_layer(&m, engine, &report, forest_ms, &probe, overhead)
    } else {
        end_to_end(&m, engine)
    };
    let correct = errors.is_empty() && !no_values;
    println!("{}", render(correct, attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}

/// The traced run's extra work, after its measured window: the phase
/// breakdown of one cold plan, the layer probes, and cold plans and one
/// engine block with tracing off, for the overhead ratios.
fn traced_extras(
    args: &Args,
    m: &mut Measured,
) -> (PlanReport, f64, layers::LayerProbe, (f64, f64)) {
    let inputs = Inputs::generate(&args.workload, args.seed, args.quick, args.headroom);
    let (report, forest_ms) = planning::phase_breakdown(&inputs);
    let arq = matches!(args.workload.engine, Engine::ThreadsLossy | Engine::Hub);
    let probe = layers::probe(&inputs, &m.acc, arq);

    remo_obs::disable();
    let plan_ref: Vec<f64> = (0..m.plan.cold_ms.len().min(3))
        .map(|_| {
            let t = Instant::now();
            drop(planning::adaptive(&inputs));
            stats::ms(t.elapsed())
        })
        .collect();
    let mut reference = EpochStats::default();
    match args.workload.engine {
        Engine::Sim => {
            engines::sim_block(&mut reference, &mut m.simulator, &m.acc, sim_epochs(args));
        }
        Engine::Threads | Engine::ThreadsLossy => {
            let lossy = args.workload.engine == Engine::ThreadsLossy;
            let (plan, block) = (&m.engine_plan, block_epochs(args));
            engines::threads_block(&mut reference, &inputs, plan, &m.acc, lossy, block, None);
        }
        Engine::Hub => {
            if let Ok(hub) = engines::start_hub(&inputs, block_epochs(args)) {
                engines::hub_block(&mut reference, hub, &m.acc);
            }
        }
    }
    let traced = engine_stats(m, args.workload.engine);
    let overhead = (
        ratio(median(&m.plan.cold_ms), median(&plan_ref)),
        ratio(median(&traced.epoch_ms), median(&reference.epoch_ms)),
    );
    (report, forest_ms, probe, overhead)
}

fn write_trace(args: &Args) -> std::io::Result<()> {
    let path = std::path::PathBuf::from("perfbench/out")
        .join(format!("trace-{}-{}.jsonl", args.workload.name, args.seed));
    let records = remo_obs::drain_trace();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, remo_obs::trace::to_jsonl(&records))?;
    let lines = records.len();
    eprintln!("trace: {lines} records in {}", path.display());
    Ok(())
}
