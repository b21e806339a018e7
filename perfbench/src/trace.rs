//! Span recording from outside the program: a self-time recorder plus
//! timing wrappers for the public `Objective` and `Application` traits.
//!
//! Every span is charged to one [`Layer`]. A span's self time is its
//! duration minus the time of the spans nested inside it, so the layer
//! self-times of a traced phase never double-count and, together with
//! the time spent outside any span, sum to the phase's wall time.
//! The engines run callbacks on the calling thread (kernel `threads = 0`),
//! so the recorder is thread-local.

use gossipopt_core::messages::{Msg, KIND_NAMES};
use gossipopt_core::node::OptNode;
use gossipopt_functions::Objective;
use gossipopt_scenarios::FaultTarget;
use gossipopt_sim::{Application, Ctx, FrameSavings, NodeId, WireCounts};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The layers self-time is charged to (this repository's modules).
#[derive(Clone, Copy)]
pub enum Layer {
    /// `scenarios::parse_campaign`.
    Parse,
    /// `Store::load`.
    StoreLoad,
    /// `Store::save` and `Store::save_obs`.
    StoreSave,
    /// `render_paper_tables`, `curves_csv`, `CampaignReport::to_{json,csv}`.
    Report,
    /// `NodeRecipe::new` and `NodeRecipe::build`.
    CoreBuild,
    /// `Application::on_tick` minus the evaluations inside it.
    CoreTick,
    /// `Application::on_message` for coordination kinds.
    CoreCoord,
    /// `Application::on_message` for NEWSCAST view exchanges.
    GossipNewscast,
    /// `Objective::eval` / `Objective::eval_batch`.
    Functions,
    /// Engine `insert` (bootstrap sampling and `on_join` included).
    SimInsert,
    /// Engine `tick` / `run_until` minus the callbacks inside them.
    SimKernel,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = Layer::SimKernel as usize + 1;

/// Wire kinds counted per `on_message` call.
pub const KINDS: usize = KIND_NAMES.len();

/// Accumulated totals of one traced phase.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Self time per layer, in nanoseconds.
    pub self_ns: [u128; LAYERS],
    /// Span count per layer.
    pub spans: [u64; LAYERS],
    /// `on_message` calls per wire kind.
    pub delivered: [u64; KINDS],
    /// Points evaluated through `eval_batch`.
    pub batch_points: u64,
    /// Points evaluated through `eval`.
    pub point_evals: u64,
}

/// Is span recording on? A plain flag (it publishes no other data), so
/// the wrappers cost one relaxed load per call while recording is off.
static ON: AtomicBool = AtomicBool::new(false);

struct Recorder {
    /// Open spans: `(layer, start, time covered by child spans)`.
    stack: Vec<(Layer, Instant, u128)>,
    totals: Totals,
}

thread_local! {
    static REC: RefCell<Recorder> = const {
        RefCell::new(Recorder { stack: Vec::new(), totals: Totals {
            self_ns: [0; LAYERS], spans: [0; LAYERS], delivered: [0; KINDS],
            batch_points: 0, point_evals: 0,
        } })
    };
}

/// Switch span recording on (clearing earlier totals) or off.
pub fn set_enabled(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "spans still open");
        if on {
            r.totals = Totals::default();
        }
    });
    ON.store(on, Ordering::Relaxed);
}

/// The totals recorded since the last [`set_enabled`]`(true)`.
pub fn totals() -> Totals {
    REC.with(|r| r.borrow().totals.clone())
}

/// Is span recording on?
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Run `f` inside a span charged to `layer` (a plain call when off).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    REC.with(|r| r.borrow_mut().stack.push((layer, Instant::now(), 0)));
    let out = f();
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let (layer, start, children) = r.stack.pop().expect("span opened above");
        let dur = end.duration_since(start).as_nanos();
        r.totals.self_ns[layer as usize] += dur - children.min(dur);
        r.totals.spans[layer as usize] += 1;
        if let Some(parent) = r.stack.last_mut() {
            parent.2 += dur;
        }
    });
    out
}

fn count(f: impl FnOnce(&mut Totals)) {
    if enabled() {
        REC.with(|r| f(&mut r.borrow_mut().totals));
    }
}

/// Timing wrapper for a shared objective: every `eval`/`eval_batch` is a
/// [`Layer::Functions`] span and its points are counted.
pub struct TimedObjective(pub Arc<dyn Objective>);

impl Objective for TimedObjective {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn bounds(&self, dim: usize) -> (f64, f64) {
        self.0.bounds(dim)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        count(|t| t.point_evals += 1);
        span(Layer::Functions, || self.0.eval(x))
    }
    fn eval_batch(&self, xs: &[f64], k: usize, out: &mut [f64]) {
        count(|t| t.batch_points += out.len() as u64);
        span(Layer::Functions, || self.0.eval_batch(xs, k, out))
    }
    fn optimum_value(&self) -> f64 {
        self.0.optimum_value()
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        self.0.optimum_position()
    }
}

/// Timing wrapper for a protocol node: `on_tick` is a
/// [`Layer::CoreTick`] span, `on_message` a [`Layer::GossipNewscast`] or
/// [`Layer::CoreCoord`] span by `Msg` kind, counted per kind. Every other
/// hook forwards unchanged, so trajectories are those of the bare node.
pub struct TimedNode(OptNode);

impl TimedNode {
    /// Wrap `node`.
    pub fn new(node: OptNode) -> Self {
        TimedNode(node)
    }

    /// The wrapped node.
    pub fn node(&self) -> &OptNode {
        &self.0
    }
}

impl Application for TimedNode {
    type Message = Msg;

    fn on_join(&mut self, contacts: &[NodeId], ctx: &mut Ctx<'_, Msg>) {
        self.0.on_join(contacts, ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        span(Layer::CoreTick, || self.0.on_tick(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let kind = msg.kind_index();
        count(|t| t.delivered[kind] += 1);
        let layer = if matches!(msg, Msg::Newscast(_)) {
            Layer::GossipNewscast
        } else {
            Layer::CoreCoord
        };
        span(layer, || self.0.on_message(from, msg, ctx));
    }

    fn quiet_tick(&self) -> bool {
        self.0.quiet_tick()
    }

    fn prefetch(&self) {
        self.0.prefetch();
    }

    fn coalesce_round(round: &mut Vec<(NodeId, NodeId, Msg)>) -> FrameSavings {
        OptNode::coalesce_round(round)
    }

    fn wire_counts(&self) -> WireCounts {
        self.0.wire_counts()
    }
}

impl FaultTarget for TimedNode {
    fn inject_lie(&mut self, lie: f64, dim: usize) {
        self.0.inject_lie(lie, dim);
    }

    fn unbatch(msg: Msg) -> Result<Vec<(NodeId, Msg)>, Msg> {
        OptNode::unbatch(msg)
    }
}
