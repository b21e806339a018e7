//! Drive one campaign cell directly through the engine API:
//! `NodeRecipe` → `CycleEngine`/`EventEngine` of `FaultApp` nodes → the
//! tick loop → the end-of-run scan.
//!
//! This replicates `scenarios::run_cell` for fault-free cells, so its
//! counters must equal `run_cell`'s exactly (the caller checks). In
//! [`Mode::Observed`] it also runs `run_cell`'s per-tick observer (the
//! best-quality scan, and on sampled ticks the metrics-ring sample), whose
//! samples must then equal the report's. Set-up — spec to a populated
//! network ready for tick 1 — and every tick are timed; with span
//! recording on, each call into a layer is a span (see [`crate::trace`]).

use crate::trace::{self, span, Layer, TimedNode, TimedObjective};
use gossipopt_core::experiment::{AsyncOpts, Budget, NodeRecipe, RunReport};
use gossipopt_core::metrics::{MetricSample, MetricsRing};
use gossipopt_functions::Objective;
use gossipopt_scenarios::{CellSpec, FaultApp, FaultSchedule};
use gossipopt_sim::{
    Application, Control, CycleConfig, CycleEngine, EventConfig, EventEngine, Transport, WireCounts,
};
use std::sync::Arc;
use std::time::Instant;

type Node = FaultApp<TimedNode>;

/// The deterministic counters a drive must share with `run_cell`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub evals: u64,
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub payload_bytes: u64,
    pub best_quality_bits: u64,
    pub ticks: u64,
    pub final_population: usize,
}

impl Counters {
    /// The same counters read off a `run_cell` report.
    pub fn of(r: &RunReport) -> Counters {
        Counters {
            evals: r.total_evals,
            sent: r.messages_sent,
            delivered: r.messages_delivered,
            dropped: r.messages_dropped,
            payload_bytes: r.payload_bytes,
            best_quality_bits: r.best_quality.to_bits(),
            ticks: r.ticks,
            final_population: r.final_population,
        }
    }
}

/// What one drive measured.
pub struct Drive {
    pub counters: Counters,
    /// Spec → populated network ready for tick 1.
    pub setup_ns: u64,
    /// Host time of each tick (cycle) or tick period (event).
    pub tick_ns: Vec<u64>,
    /// Whole drive, set-up and end-of-run scan included.
    pub total_ns: u64,
    /// Nodes inserted before tick 1.
    pub inserted: u64,
    /// Nodes built (initial population plus churn joiners).
    pub built: u64,
    pub churn_joins: u64,
    pub churn_crashes: u64,
    /// The metrics-ring series ([`Mode::Observed`] only).
    pub samples: Vec<MetricSample>,
}

/// How far a drive goes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Stop once the network is ready for tick 1.
    Setup,
    /// Run every tick through the engine alone.
    Bare,
    /// Run every tick followed by `run_cell`'s per-tick observer.
    Observed,
}

/// Kernel bootstrap-contact count, as `scenarios::exec` computes it.
fn bootstrap_sample(cell: &CellSpec, view_size: usize, dynamic: bool) -> usize {
    if dynamic {
        view_size.min(cell.nodes.saturating_sub(1)).max(1)
    } else {
        0
    }
}

/// Shared end-of-run scan over the surviving nodes.
struct Scan {
    quality: f64,
    evals: u64,
    wire: WireCounts,
    alive: usize,
}

fn scan<'a>(nodes: impl Iterator<Item = &'a Node>) -> Scan {
    let mut s = Scan {
        quality: f64::INFINITY,
        evals: 0,
        wire: WireCounts::new(),
        alive: 0,
    };
    for app in nodes {
        let node = app.inner().node();
        s.quality = s.quality.min(node.quality());
        s.evals += node.evals();
        s.wire.add(&app.wire_counts());
        s.alive += 1;
    }
    s
}

fn best_quality<'a>(nodes: impl Iterator<Item = &'a Node>) -> f64 {
    nodes.fold(f64::INFINITY, |q, app| q.min(app.inner().node().quality()))
}

/// The sampled-tick observer: `(quality, wire bytes, alive)`.
fn scan_sample<'a>(nodes: impl Iterator<Item = &'a Node>) -> (f64, u64, usize) {
    let (mut quality, mut bytes, mut alive) = (f64::INFINITY, 0, 0);
    for app in nodes {
        let node = app.inner().node();
        quality = quality.min(node.quality());
        bytes += node.payload_bytes_sent();
        alive += 1;
    }
    (quality, bytes, alive)
}

fn timed(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

/// Drive `cell`, which must carry no fault schedule.
pub fn drive(cell: &CellSpec, mode: Mode) -> Result<Drive, String> {
    if !cell.fault.is_empty() {
        return Err(format!(
            "cell `{}`: the direct drive runs fault-free cells only",
            cell.name
        ));
    }
    let start = Instant::now();
    cell.validate().map_err(|e| e.to_string())?;
    let spec = cell.to_dist_spec().map_err(|e| e.to_string())?;
    let seed = cell.resolved_seed();
    let raw: Arc<dyn Objective> = Arc::from(
        gossipopt_functions::by_name(&cell.function, cell.dim).ok_or("unknown objective")?,
    );
    let objective: Arc<dyn Objective> = if trace::enabled() {
        Arc::new(TimedObjective(raw))
    } else {
        raw
    };
    let recipe = span(Layer::CoreBuild, || {
        NodeRecipe::new(&spec, objective, Budget::PerNode(cell.budget), seed)
    })
    .map_err(|e| e.to_string())?;
    let n = spec.nodes;
    let budget = recipe.per_node_budget();
    let bootstrap = bootstrap_sample(cell, spec.newscast.view_size, spec.topology.is_dynamic());
    let sched = Arc::new(FaultSchedule::none(cell.dim, seed));
    let build = move |index: usize| -> Node {
        let node = span(Layer::CoreBuild, || recipe.build(index)).expect("recipe validated");
        FaultApp::new(TimedNode::new(node), Arc::clone(&sched))
    };
    let mut d = Drive {
        counters: Counters::default(),
        setup_ns: 0,
        tick_ns: Vec::new(),
        total_ns: 0,
        inserted: n as u64,
        built: 0,
        churn_joins: 0,
        churn_crashes: 0,
        samples: Vec::new(),
    };
    let observed = mode == Mode::Observed;
    let mut ring = MetricsRing::new(cell.metrics);

    match cell.kernel.as_str() {
        "cycle" => {
            let mut cfg = CycleConfig::seeded(seed);
            cfg.transport = Transport::lossy(spec.loss_prob);
            cfg.churn = spec.churn;
            cfg.bootstrap_sample = bootstrap;
            cfg.threads = spec.threads;
            let mut engine: CycleEngine<Node> = CycleEngine::new(cfg);
            for i in 0..n {
                let app = build(i);
                span(Layer::SimInsert, || engine.insert(app));
            }
            engine.set_spawner({
                let build = build.clone();
                move |id, _rng| build(id.raw() as usize)
            });
            d.setup_ns = start.elapsed().as_nanos() as u64;
            if mode == Mode::Setup {
                return Ok(d);
            }
            let mut ticks = budget;
            for t in 0..budget {
                let mut quality = f64::INFINITY;
                d.tick_ns.push(timed(|| {
                    span(Layer::SimKernel, || engine.tick());
                    if !observed {
                        return;
                    }
                    let now = engine.now();
                    quality = if ring.wants(now) {
                        let (quality, bytes, alive) = scan_sample(engine.nodes().map(|(_, a)| a));
                        let stats = engine.stats();
                        ring.record(MetricSample {
                            tick: now,
                            best_quality: quality,
                            alive,
                            delivered: stats.delivered,
                            wire_bytes: (bytes + engine.retired_wire_counts().total_bytes())
                                .saturating_sub(stats.frame_bytes_saved),
                        });
                        quality
                    } else {
                        best_quality(engine.nodes().map(|(_, a)| a))
                    };
                }));
                if let Some(thr) = cell.stop_at_quality {
                    if !observed {
                        quality = best_quality(engine.nodes().map(|(_, a)| a));
                    }
                    if quality <= thr {
                        ticks = t + 1;
                        break;
                    }
                }
            }
            let s = scan(engine.nodes().map(|(_, a)| a));
            let stats = engine.stats();
            let mut wire = s.wire;
            wire.add(&engine.retired_wire_counts());
            d.counters = Counters {
                evals: s.evals,
                sent: stats.sent,
                delivered: stats.delivered,
                dropped: stats.lost + stats.dead_letter + stats.hop_overflow,
                payload_bytes: wire.total_bytes().saturating_sub(stats.frame_bytes_saved),
                best_quality_bits: s.quality.to_bits(),
                ticks,
                final_population: s.alive,
            };
            d.churn_joins = stats.joins;
            d.churn_crashes = stats.crashes;
        }
        "event" => {
            let opts = AsyncOpts::default();
            let period = opts.tick_period;
            let mut cfg = EventConfig::seeded(seed);
            cfg.transport = Transport {
                loss_prob: spec.loss_prob,
                latency: opts.latency,
            };
            cfg.tick_period = period;
            cfg.jitter_phase = opts.jitter_phase;
            cfg.churn = spec.churn;
            cfg.bootstrap_sample = bootstrap;
            cfg.threads = spec.threads;
            let mut engine: EventEngine<Node> = EventEngine::new(cfg);
            for i in 0..n {
                let app = build(i);
                span(Layer::SimInsert, || engine.insert(app));
            }
            engine.set_spawner({
                let build = build.clone();
                move |id, _rng| build(id.raw() as usize)
            });
            d.setup_ns = start.elapsed().as_nanos() as u64;
            if mode == Mode::Setup {
                return Ok(d);
            }
            // Same horizon as `run_cell`: budget plus latency slack.
            let horizon = (budget * period + 10 * period + 200) / period;
            let mut end = 0;
            for t in 1..=horizon {
                let mut quality = f64::INFINITY;
                d.tick_ns.push(timed(|| {
                    end = span(Layer::SimKernel, || {
                        engine.run_until(t * period, period, |_, _| Control::Continue)
                    });
                    if !observed {
                        return;
                    }
                    quality = if ring.wants(t) {
                        let (quality, bytes, alive) = scan_sample(engine.nodes().map(|(_, a)| a));
                        ring.record(MetricSample {
                            tick: t,
                            best_quality: quality,
                            alive,
                            delivered: engine.delivered(),
                            wire_bytes: (bytes + engine.retired_wire_counts().total_bytes())
                                .saturating_sub(engine.frame_bytes_saved()),
                        });
                        quality
                    } else {
                        best_quality(engine.nodes().map(|(_, a)| a))
                    };
                }));
                if let Some(thr) = cell.stop_at_quality {
                    if !observed {
                        quality = best_quality(engine.nodes().map(|(_, a)| a));
                    }
                    if quality <= thr {
                        break;
                    }
                }
            }
            let s = scan(engine.nodes().map(|(_, a)| a));
            let mut wire = s.wire;
            wire.add(&engine.retired_wire_counts());
            d.counters = Counters {
                evals: s.evals,
                sent: engine.delivered() + engine.dropped(),
                delivered: engine.delivered(),
                dropped: engine.dropped(),
                payload_bytes: wire
                    .total_bytes()
                    .saturating_sub(engine.frame_bytes_saved()),
                best_quality_bits: s.quality.to_bits(),
                ticks: end / period,
                final_population: s.alive,
            };
            d.churn_joins = engine.churn_joins();
            d.churn_crashes = engine.churn_crashes();
        }
        other => return Err(format!("kernel `{other}`")),
    }
    d.built = n as u64 + d.churn_joins;
    if observed {
        d.samples = ring.to_series();
    }
    d.total_ns = start.elapsed().as_nanos() as u64;
    Ok(d)
}
