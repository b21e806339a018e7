//! gossipopt benchmark harness.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_tables --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with no tracing: the campaign runner plus the result store,
//! exactly as `campaign report` runs them, beside a direct drive of the
//! same cells through the engine API that times set-up and ticks (see
//! `src/drive.rs`). `--trace 1` gives the
//! per-layer metrics from spans recorded around calls into each layer's
//! public functions. Every run checks its outputs; the last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/NOTES.md`.

mod drive;
mod trace;

use drive::{drive, Counters, Mode};
use gossipopt_core::messages::KIND_NAMES;
use gossipopt_obs::snapshot::DetSnapshot;
use gossipopt_scenarios::{
    cell_key, curves_csv, parse_campaign, render_paper_tables, run_campaign_stored, run_cell,
    run_cell_obs, CampaignReport, CampaignSpec, CellReport, Store, SCHEMA,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{span, Layer, Totals};

/// A workload: campaign files, relative to the repository root.
struct Workload {
    name: &'static str,
    files: &'static [&'static str],
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_tables",
        files: &[
            "scenarios/paper_table1.toml",
            "scenarios/paper_table2.toml",
            "scenarios/paper_table3.toml",
            "scenarios/paper_table4.toml",
        ],
    },
    Workload {
        name: "dpso_static",
        files: &["perfbench/campaigns/dpso_static.toml"],
    },
    Workload {
        name: "newscast_churn",
        files: &["perfbench/campaigns/newscast_churn.toml"],
    },
];

/// Fewest measured passes per untraced run, whatever `--seconds` says,
/// so every reported median is taken over at least this many samples.
const MIN_PASSES: usize = 3;

/// Least time spent replaying from the warm store in each pass.
const REPLAY_S: f64 = 0.2;

/// Set-up-only drives per pass.
const SETUPS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Campaign texts with every `[campaign] seed` replaced by `seed`.
fn load_campaigns(w: &Workload, seed: u64) -> Result<Vec<String>, String> {
    w.files
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut replaced = 0;
            let out: Vec<String> = text
                .lines()
                .map(|line| {
                    if line.trim_start().starts_with("seed") && line.contains('=') {
                        replaced += 1;
                        format!("seed = {seed}")
                    } else {
                        line.to_string()
                    }
                })
                .collect();
            if replaced != 1 {
                return Err(format!(
                    "{path}: expected one `seed =` line, found {replaced}"
                ));
            }
            Ok(out.join("\n") + "\n")
        })
        .collect()
}

fn parse_all(texts: &[String]) -> Vec<CampaignSpec> {
    texts
        .iter()
        .map(|t| parse_campaign(t).expect("workload campaigns parse"))
        .collect()
}

/// A working directory under the current one, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> WorkDir {
        let dir = PathBuf::from(".perfbench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the work directory");
        WorkDir(dir)
    }

    /// A fresh (emptied) subdirectory.
    fn fresh(&self, sub: &str) -> PathBuf {
        let dir = self.0.join(sub);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a work subdirectory");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

fn secs(ns: u128) -> f64 {
    ns as f64 / 1e9
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the campaign CLI's `report` mode writes, as `(file, text)`.
fn render(reports: &[CampaignReport]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for r in reports {
        out.push((format!("{}.json", r.name), r.to_json()));
        out.push((format!("{}.csv", r.name), r.to_csv()));
    }
    out.push(("paper_tables.txt".into(), render_paper_tables(reports)));
    for r in reports {
        out.push((format!("curves_{}.csv", r.name), curves_csv(r)));
    }
    out
}

/// Output invariants of one campaign cell (not golden values): the
/// campaign's `[assert]` bounds, and on a static network without an
/// early stop, every node spent exactly its budget.
fn check_cell(cell: &CellReport) -> Vec<String> {
    let mut out: Vec<String> = cell.failures.clone();
    let r = &cell.report;
    if cell.cell.churn == 0.0 && r.reached_threshold_at.is_none() {
        let want = cell.cell.nodes as u64 * cell.cell.budget;
        if r.total_evals != want {
            out.push(format!(
                "total_evals {} != nodes x budget {want}",
                r.total_evals
            ));
        }
    }
    out
}

fn counters_diff(what: &str, got: &Counters, want: &Counters) -> Option<String> {
    (got != want).then(|| format!("{what}: counters {got:?} differ from run_cell's {want:?}"))
}

/// The per-kind bytes of `run_cell_obs` minus frame savings must equal
/// the report's `payload_bytes`.
fn check_obs(report: &CellReport, det: &DetSnapshot) -> Option<String> {
    let net = det.wire_bytes_total() - det.frame_saved_total();
    (net != report.report.payload_bytes).then(|| {
        format!(
            "obs per-kind bytes - frame savings = {net} != payload_bytes {}",
            report.report.payload_bytes
        )
    })
}

/// Failure bookkeeping: one attempt per cell per round of checks.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Outcome {
    fn cell(&mut self, label: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                self.messages.push(format!("[{label}] {f}"));
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Fold `bytes` into a 64-bit FNV-1a hash.
fn fnv(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}

/// Simulated-statistics digest of a workload's reports: totals plus an
/// FNV-1a hash over every cell's counters, so a change meant only for
/// speed can be seen to leave them identical.
fn digest(reports: &[CampaignReport]) -> String {
    let mut h = FNV_OFFSET;
    let (mut evals, mut sent, mut delivered, mut dropped, mut bytes) = (0, 0, 0, 0, 0);
    let mut best = f64::INFINITY;
    for c in reports.iter().flat_map(|r| &r.cells) {
        let k = Counters::of(&c.report);
        for v in [
            k.evals,
            k.sent,
            k.delivered,
            k.dropped,
            k.payload_bytes,
            k.best_quality_bits,
            k.ticks,
            k.final_population as u64,
        ] {
            h = fnv(h, v.to_le_bytes());
        }
        evals += k.evals;
        sent += k.sent;
        delivered += k.delivered;
        dropped += k.dropped;
        bytes += k.payload_bytes;
        best = best.min(c.report.best_quality);
    }
    format!(
        "evals={evals} sent={sent} delivered={delivered} dropped={dropped} \
         payload_bytes={bytes} best_quality={:#018x} cells_fnv={h:016x}",
        best.to_bits()
    )
}

fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let rustc = command("rustc", &["--version"]);
    // Only a checkout's own `.git`: an enclosing repository would name
    // the wrong commit.
    let commit = if Path::new(".git").exists() {
        command("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "none (not a git checkout)".into()
    };
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit}")
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run reports: the result's metrics, rows printed beside them
/// but left out of the result, the simulated-statistics digest and a note.
struct RunOut {
    metrics: Vec<Metric>,
    rows: Vec<Metric>,
    digest: String,
    note: String,
}

/// One reported metric: name, value, unit, sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Measurements of one untraced pass.
struct Pass {
    setup_s: Vec<f64>,
    tables_s: f64,
    replay_s: Vec<f64>,
    evals_per_s: f64,
    msgs_per_s: f64,
    tick_ms: Vec<f64>,
}

/// One untraced pass: set up every cell `SETUPS` times, then drive each
/// once through its ticks with `run_cell`'s per-tick observer (set-up and
/// tick times, and the simulation rates), then run the campaigns cold
/// into an empty store and render, then again from the warm store.
/// Returns the cold reports too.
fn untraced_pass(
    texts: &[String],
    work: &WorkDir,
    out: &mut Outcome,
) -> (Pass, Vec<CampaignReport>) {
    // Set-ups only, all before any tick of this pass, so every sample
    // starts from the same heap state.
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let specs = parse_all(texts);
        let mut setup_ns = t.elapsed().as_nanos();
        for cell in specs.iter().flat_map(|s| &s.cells) {
            setup_ns += drive(cell, Mode::Setup)
                .expect("workload cells set up")
                .setup_ns as u128;
        }
        setup_s.push(secs(setup_ns));
    }

    // Ticks, through the engine API with run_cell's observer.
    let mut tick_ms = Vec::new();
    let mut sim_ns = 0u128;
    let mut drives = Vec::new();
    for cell in parse_all(texts).iter().flat_map(|s| &s.cells) {
        let d = drive(cell, Mode::Observed).expect("workload cells drive");
        tick_ms.extend(d.tick_ns.iter().map(|&ns| ns as f64 / 1e6));
        sim_ns += d.tick_ns.iter().map(|&ns| ns as u128).sum::<u128>();
        drives.push(d);
    }
    let evals: u64 = drives.iter().map(|d| d.counters.evals).sum();
    let delivered: u64 = drives.iter().map(|d| d.counters.delivered).sum();
    let sim_s = secs(sim_ns.max(1));

    // Cold: parse → simulate → persist → render, empty store.
    let store = Store::open(work.fresh("store")).expect("open the store");
    let t = Instant::now();
    let specs = parse_all(texts);
    let mut cold = Vec::new();
    for spec in &specs {
        let outcome = run_campaign_stored(spec, 1, Some(&store)).expect("campaign runs");
        cold.push(outcome.report);
    }
    let cold_files = render(&cold);
    let tables_ns = t.elapsed().as_nanos();

    // Warm: the same invocation again, served from the store. A replay
    // is short, so it repeats for at least `REPLAY_S` per pass. It runs on
    // a thread of its own, whose allocator arena holds none of the
    // simulation's freed memory: a user's replay starts a fresh process.
    let (replay_s, executed, warm_files) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut replay_s = Vec::new();
                let mut executed = 0;
                let mut warm_files = Vec::new();
                let replays = Instant::now();
                while replay_s.len() < 3 || replays.elapsed().as_secs_f64() < REPLAY_S {
                    let t = Instant::now();
                    let specs = parse_all(texts);
                    let mut warm = Vec::new();
                    for spec in &specs {
                        let outcome =
                            run_campaign_stored(spec, 1, Some(&store)).expect("campaign replays");
                        executed += outcome.executed;
                        warm.push(outcome.report);
                    }
                    warm_files = render(&warm);
                    replay_s.push(t.elapsed().as_secs_f64());
                }
                (replay_s, executed, warm_files)
            })
            .join()
            .expect("the replay thread does not panic")
    });

    // Checks.
    let mut campaign_failures = Vec::new();
    if executed != 0 {
        campaign_failures.push(format!("replay executed {executed} cells, want 0"));
    }
    for ((name, a), (_, b)) in cold_files.iter().zip(&warm_files) {
        if a != b {
            campaign_failures.push(format!("replayed {name} differs from the cold pass"));
        }
    }
    for (c, d) in cold.iter().flat_map(|r| &r.cells).zip(&drives) {
        let mut f = check_cell(c);
        f.extend(counters_diff(
            "direct drive",
            &d.counters,
            &Counters::of(&c.report),
        ));
        if d.samples != c.report.samples {
            f.push("direct drive: metrics samples differ from run_cell's".into());
        }
        f.extend(campaign_failures.iter().cloned());
        out.cell(&c.label, f);
    }
    let pass = Pass {
        setup_s,
        tables_s: secs(tables_ns),
        replay_s,
        evals_per_s: evals as f64 / sim_s,
        msgs_per_s: delivered as f64 / sim_s,
        tick_ms,
    };
    (pass, cold)
}

fn run_untraced(texts: &[String], seconds: f64, out: &mut Outcome) -> RunOut {
    let work = WorkDir::new("untraced");
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut last = Vec::new();
    // Peak memory over the first pass: later passes repeat the same work,
    // while the harness's own sample buffers keep growing.
    let mut rss_mb = 0.0;
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (pass, reports) = untraced_pass(texts, &work, out);
        if passes.is_empty() {
            rss_mb = peak_rss_mb();
        }
        passes.push(pass);
        last = reports;
    }
    // Once per run: the deterministic observability plane must account
    // for every payload byte, and agree with the campaign's counters.
    for c in last.iter().flat_map(|r| &r.cells) {
        let (r, snap) = run_cell_obs(&c.cell).expect("run_cell_obs");
        let mut f: Vec<String> = check_obs(&r, &snap.det).into_iter().collect();
        f.extend(counters_diff(
            "run_cell_obs",
            &Counters::of(&r.report),
            &Counters::of(&c.report),
        ));
        out.cell(&c.label, f);
    }

    let n = passes.len();
    let col = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let ticks: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.tick_ms.iter().copied())
        .collect();
    let replays: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.replay_s.iter().copied())
        .collect();
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let metrics = vec![
        metric("tables_s", median(&col(|p| p.tables_s)), "s", n),
        metric("evals_per_s", median(&col(|p| p.evals_per_s)), "1/s", n),
        metric("msgs_per_s", median(&col(|p| p.msgs_per_s)), "1/s", n),
        metric("tick_ms_p50", percentile(&ticks, 0.5), "ms", ticks.len()),
        metric("tick_ms_p90", percentile(&ticks, 0.9), "ms", ticks.len()),
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("peak_rss_mb", rss_mb, "MB", 1),
    ];
    // The replay's median moved by up to a third between runs on a shared
    // host, more than any bound allows, so it is printed but not a result.
    RunOut {
        metrics,
        rows: vec![metric("replay_s", median(&replays), "s", replays.len())],
        digest: digest(&last),
        note: String::new(),
    }
}

/// Untraced reference for the traced run: every cell through `run_cell`
/// and `run_cell_obs` (for the deterministic plane), and the `run_cell`
/// against direct-drive timings behind `scenarios.exec.*`.
struct Reference {
    reports: Vec<CampaignReport>,
    dets: Vec<DetSnapshot>,
    /// Per cell, the median `run_cell` seconds over the rounds.
    cell_s: Vec<f64>,
    /// Median over the rounds of Σ `run_cell` ÷ Σ bare direct drive.
    harness_ratio: f64,
}

/// Rounds of `run_cell` against the bare direct drive. Each cell runs
/// both back to back, so a slow spell of the host hits both alike.
const HARNESS_ROUNDS: usize = 3;

fn reference(texts: &[String], out: &mut Outcome) -> Reference {
    let specs = parse_all(texts);
    let cells: Vec<_> = specs.iter().flat_map(|s| &s.cells).collect();
    let mut run_s = vec![Vec::new(); cells.len()];
    let mut ratios = Vec::new();
    let mut first = Vec::new();
    for round in 0..HARNESS_ROUNDS {
        let (mut runs, mut drives) = (0.0, 0.0);
        for (k, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let r = run_cell(cell).expect("run_cell");
            let s = t.elapsed().as_secs_f64();
            let d = drive(cell, Mode::Bare).expect("workload cells drive");
            run_s[k].push(s);
            runs += s;
            drives += secs(d.total_ns as u128);
            if round == 0 {
                first.push(r);
            }
        }
        ratios.push(ratio(runs, drives));
    }
    let mut reports = Vec::new();
    let mut dets = Vec::new();
    let mut first = first.into_iter();
    for spec in &specs {
        let mut cells = Vec::new();
        for (i, cell) in spec.cells.iter().enumerate() {
            let mut r = first.next().expect("one report per cell");
            let (o, snap) = run_cell_obs(cell).expect("run_cell_obs");
            let mut f: Vec<String> = check_obs(&o, &snap.det).into_iter().collect();
            f.extend(counters_diff(
                "run_cell_obs",
                &Counters::of(&o.report),
                &Counters::of(&r.report),
            ));
            out.cell(&r.label, f);
            r.index = i;
            cells.push(r);
            dets.push(snap.det);
        }
        reports.push(CampaignReport {
            schema: SCHEMA.into(),
            name: spec.name.clone(),
            seed: spec.seed,
            cells,
        });
    }
    Reference {
        reports,
        dets,
        cell_s: run_s.iter().map(|v| median(v)).collect(),
        harness_ratio: median(&ratios),
    }
}

/// Measurements of one traced-or-not phase.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    /// The warm half: store loads and render.
    replay_s: f64,
    totals: Totals,
    saves: u64,
    bytes_written: u64,
    loads: u64,
    hits: u64,
    report_bytes: u64,
    inserted: u64,
    built: u64,
    joins: u64,
    crashes: u64,
    delivered: u64,
    payload_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The store-backed campaign path replayed from outside the runner —
/// parse, per cell a store lookup, the direct drive and the store writes,
/// then render; then the warm lookups and render again — with every call
/// into a layer a span when `tracing` is on.
fn phase(
    texts: &[String],
    refs: &Reference,
    work: &WorkDir,
    tracing: bool,
    out: &mut Outcome,
) -> Phase {
    let store = Store::open(work.fresh("store")).expect("open the store");
    trace::set_enabled(tracing);
    let start = Instant::now();
    let mut p = Phase::default();
    let specs = span(Layer::Parse, || parse_all(texts));
    let cells: Vec<_> = specs.iter().flat_map(|s| &s.cells).collect();
    let ref_cells: Vec<&CellReport> = refs.reports.iter().flat_map(|r| &r.cells).collect();
    for (k, cell) in cells.iter().enumerate() {
        let (key, cached) = span(Layer::StoreLoad, || {
            let key = cell_key(cell);
            let cached = store.load(&key);
            (key, cached)
        });
        p.loads += 1;
        let mut f = Vec::new();
        if !matches!(cached, Ok(None)) {
            f.push("cold store lookup did not miss".to_string());
        }
        let before = trace::totals();
        let d = drive(cell, Mode::Bare).expect("workload cells drive");
        let after = trace::totals();
        let want = Counters::of(&ref_cells[k].report);
        f.extend(counters_diff("direct drive", &d.counters, &want));
        if tracing {
            // The two planes, cross-checked from outside.
            for (i, name) in KIND_NAMES.iter().enumerate() {
                let traced = after.delivered[i] - before.delivered[i];
                let det = refs.dets[k].wire[i].delivered;
                if traced != det {
                    f.push(format!(
                        "{name}: traced on_message {traced} != det delivered {det}"
                    ));
                }
            }
            let points = (after.batch_points + after.point_evals)
                - (before.batch_points + before.point_evals);
            let churn = cell.churn > 0.0;
            if (!churn && points != want.evals) || (churn && points < want.evals) {
                f.push(format!(
                    "eval points {points} vs total_evals {} (churn {churn})",
                    want.evals
                ));
            }
        }
        p.inserted += d.inserted;
        p.built += d.built;
        p.joins += d.churn_joins;
        p.crashes += d.churn_crashes;
        p.delivered += d.counters.delivered;
        p.payload_bytes += d.counters.payload_bytes;
        let saved = span(Layer::StoreSave, || {
            store
                .save(&key, ref_cells[k])
                .and_then(|()| store.save_obs(&key, &refs.dets[k]))
        });
        if let Err(e) = saved {
            f.push(format!("store save: {e}"));
        }
        p.saves += 1;
        p.bytes_written += dir_bytes(&store.dir(&key));
        out.cell(&cell.name, f);
    }
    let cold = span(Layer::Report, || render(&refs.reports));
    let warm_start = Instant::now();
    let mut warm_reports = refs.reports.clone();
    for (spec, r) in specs.iter().zip(warm_reports.iter_mut()) {
        for (cell, slot) in spec.cells.iter().zip(r.cells.iter_mut()) {
            let loaded = span(Layer::StoreLoad, || store.load(&cell_key(cell)));
            p.loads += 1;
            match loaded {
                Ok(Some(entry)) => {
                    p.hits += 1;
                    let index = slot.index;
                    *slot = entry.into_cell_report(cell);
                    slot.index = index;
                }
                _ => out.cell(&cell.name, vec!["warm store lookup missed".into()]),
            }
        }
    }
    let warm = span(Layer::Report, || render(&warm_reports));
    p.replay_s = warm_start.elapsed().as_secs_f64();
    if cold != warm {
        out.cell("replay", vec!["tables from the warm store differ".into()]);
    }
    p.report_bytes = cold.iter().chain(&warm).map(|(_, t)| t.len() as u64).sum();
    p.wall_s = start.elapsed().as_secs_f64();
    p.totals = trace::totals();
    trace::set_enabled(false);
    p
}

fn run_traced(texts: &[String], out: &mut Outcome) -> RunOut {
    let work = WorkDir::new("traced");
    let refs = reference(texts, out);
    let plain = phase(texts, &refs, &work, false, out);
    let traced = phase(texts, &refs, &work, true, out);
    let t = &traced.totals;
    let s = |l: Layer| secs(t.self_ns[l as usize]);
    let attributed: f64 = t.self_ns.iter().map(|&ns| secs(ns)).sum();
    let unattributed = traced.wall_s - attributed;
    if unattributed < 0.0 {
        out.cell(
            "trace",
            vec![format!(
                "layer self-times exceed the traced wall by {}",
                -unattributed
            )],
        );
    }
    let coord_msgs: u64 = t.delivered[1..].iter().sum();
    let newscast_msgs = t.delivered[0];
    let evals = t.batch_points + t.point_evals;
    let n_cells = refs.cell_s.len();
    let metrics = vec![
        metric(
            "scenarios.parse_s",
            s(Layer::Parse),
            "s",
            t.spans[Layer::Parse as usize] as usize,
        ),
        metric("scenarios.cells", n_cells as f64, "count", 1),
        metric(
            "scenarios.exec.cell_s_p50",
            percentile(&refs.cell_s, 0.5),
            "s",
            n_cells,
        ),
        metric(
            "scenarios.exec.cell_s_p90",
            percentile(&refs.cell_s, 0.9),
            "s",
            n_cells,
        ),
        metric(
            "scenarios.exec.harness_ratio",
            refs.harness_ratio,
            "ratio",
            n_cells * HARNESS_ROUNDS,
        ),
        metric("scenarios.store.saves", traced.saves as f64, "count", 1),
        metric(
            "scenarios.store.save_s",
            s(Layer::StoreSave),
            "s",
            traced.saves as usize,
        ),
        metric(
            "scenarios.store.bytes_written",
            traced.bytes_written as f64,
            "bytes",
            1,
        ),
        metric("scenarios.store.loads", traced.loads as f64, "count", 1),
        metric(
            "scenarios.store.load_s",
            s(Layer::StoreLoad),
            "s",
            traced.loads as usize,
        ),
        metric(
            "scenarios.store.hit_ratio",
            ratio(traced.hits as f64, traced.loads as f64),
            "ratio",
            traced.loads as usize,
        ),
        metric("scenarios.report.render_s", s(Layer::Report), "s", 2),
        metric("scenarios.replay_s", plain.replay_s, "s", 1),
        metric(
            "scenarios.report.bytes",
            traced.report_bytes as f64,
            "bytes",
            1,
        ),
        metric(
            "core.build_s",
            s(Layer::CoreBuild),
            "s",
            traced.built as usize,
        ),
        metric(
            "core.build_ns_per_node",
            ratio(s(Layer::CoreBuild) * 1e9, traced.built as f64),
            "ns",
            traced.built as usize,
        ),
        metric(
            "core.on_tick_self_s",
            s(Layer::CoreTick),
            "s",
            t.spans[Layer::CoreTick as usize] as usize,
        ),
        metric("core.coord.msgs", coord_msgs as f64, "count", 1),
        metric(
            "core.coord.handle_s",
            s(Layer::CoreCoord),
            "s",
            coord_msgs as usize,
        ),
        metric(
            "core.coord.ns_per_msg",
            ratio(s(Layer::CoreCoord) * 1e9, coord_msgs as f64),
            "ns",
            coord_msgs as usize,
        ),
        metric(
            "core.payload_bytes",
            traced.payload_bytes as f64,
            "bytes",
            1,
        ),
        metric("functions.evals", evals as f64, "count", 1),
        metric(
            "functions.eval_s",
            s(Layer::Functions),
            "s",
            t.spans[Layer::Functions as usize] as usize,
        ),
        metric(
            "functions.ns_per_eval",
            ratio(s(Layer::Functions) * 1e9, evals as f64),
            "ns",
            evals as usize,
        ),
        metric("gossip.newscast.msgs", newscast_msgs as f64, "count", 1),
        metric(
            "gossip.newscast.handle_s",
            s(Layer::GossipNewscast),
            "s",
            newscast_msgs as usize,
        ),
        metric(
            "gossip.newscast.ns_per_msg",
            ratio(s(Layer::GossipNewscast) * 1e9, newscast_msgs as f64),
            "ns",
            newscast_msgs as usize,
        ),
        metric(
            "sim.insert_s",
            s(Layer::SimInsert),
            "s",
            traced.inserted as usize,
        ),
        metric(
            "sim.insert_ns_per_node",
            ratio(s(Layer::SimInsert) * 1e9, traced.inserted as f64),
            "ns",
            traced.inserted as usize,
        ),
        metric(
            "sim.kernel_self_s",
            s(Layer::SimKernel),
            "s",
            t.spans[Layer::SimKernel as usize] as usize,
        ),
        metric("sim.msgs_delivered", traced.delivered as f64, "count", 1),
        metric(
            "sim.kernel_ns_per_msg",
            ratio(s(Layer::SimKernel) * 1e9, traced.delivered as f64),
            "ns",
            traced.delivered as usize,
        ),
        metric("sim.churn.joins", traced.joins as f64, "count", 1),
        metric("sim.churn.crashes", traced.crashes as f64, "count", 1),
        metric("trace.unattributed_s", unattributed, "s", 1),
        metric(
            "trace.overhead_ratio",
            ratio(traced.wall_s, plain.wall_s),
            "ratio",
            1,
        ),
    ];
    let sum = format!(
        "traced wall {:.6} s = layer self-times {attributed:.6} s + unattributed {unattributed:.6} s \
         (untraced wall {:.6} s, overhead x{:.3})",
        traced.wall_s,
        plain.wall_s,
        ratio(traced.wall_s, plain.wall_s)
    );
    RunOut {
        metrics,
        rows: Vec::new(),
        digest: digest(&refs.reports),
        note: sum,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let texts = match load_campaigns(args.workload, args.seed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let run = if args.trace {
        run_traced(&texts, &mut out)
    } else {
        run_untraced(&texts, args.seconds, &mut out)
    };
    let bad_metric = run.metrics.iter().any(|m| !m.value.is_finite());
    let fail_ratio = metric(
        "fail_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        out.attempted as usize,
    );

    println!(
        "workload={} seed={} trace={}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    println!("host: {}", host_facts());
    println!("digest: {}", run.digest);
    if !run.note.is_empty() {
        println!("{}", run.note);
    }
    for msg in &out.messages {
        println!("FAIL {msg}");
    }
    println!(
        "{:<32} {:>18} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in run.metrics.iter().chain(&run.rows).chain([&fail_ratio]) {
        println!(
            "{:<32} {:>18.6} {:<6} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let mut json = String::new();
    for (i, m) in run.metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.failed == 0 && !bad_metric,
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}
