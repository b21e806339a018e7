#![forbid(unsafe_code)]
//! Paper-reproduction harness.
//!
//! Regenerates every table and figure of Biazzini, Brunato & Montresor
//! (2008) plus the extension experiments, printing paper-style tables and
//! writing CSV/JSON artifacts under `results/`.
//!
//! ```text
//! repro [set1|set2|set3|set4|tables|figures|churn|loss|overlay|solvers
//!        |baselines|ablation|async|trace|deploy|all]
//!       [--scale smoke|reduced|paper] [--reps N] [--seed S] [--out DIR]
//! ```
//!
//! Scales: `reduced` (default) preserves every qualitative shape on a
//! single core in minutes; `paper` is the full 50-repetition, 2^16-node,
//! 2^20-evaluation grid (CPU-days); `smoke` is a seconds-long sanity pass.

use gossipopt_bench::extensions;
use gossipopt_bench::report;
use gossipopt_core::paper::{self, best_rows, Scale};
use gossipopt_util::csv::{fmt_f64, CsvTable};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    commands: Vec<String>,
    scale: Scale,
    out: PathBuf,
    reps_override: Option<u64>,
    seed_override: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut commands = Vec::new();
    let mut scale_name = "reduced".to_string();
    let mut out = PathBuf::from("results");
    let mut reps_override = None;
    let mut seed_override = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale_name = args.next().ok_or("--scale needs a value")?;
            }
            "--full" => scale_name = "paper".into(),
            "--reps" => {
                let v = args.next().ok_or("--reps needs a value")?;
                reps_override = Some(v.parse().map_err(|_| format!("bad --reps {v}"))?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed_override = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--out" => {
                out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: repro [set1|set2|set3|set4|tables|figures|churn|loss|overlay\
                            |solvers|baselines|ablation|async|trace|deploy|all]...\
                            [--scale smoke|reduced|paper] [--reps N] [--seed S] [--out DIR]"
                        .into(),
                );
            }
            cmd if !cmd.starts_with('-') => commands.push(cmd.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if commands.is_empty() {
        commands.push("all".into());
    }
    let mut scale = match scale_name.as_str() {
        "smoke" => Scale::smoke(),
        "reduced" => Scale::reduced(),
        "paper" => Scale::paper(),
        other => return Err(format!("unknown scale {other}")),
    };
    if let Some(r) = reps_override {
        scale.reps = r;
    }
    if let Some(s) = seed_override {
        scale.base_seed = s;
    }
    Ok(Options {
        commands,
        scale,
        out,
        reps_override,
        seed_override,
    })
}

fn labeled_csv(rows: &[extensions::LabeledQuality]) -> CsvTable {
    let mut t = CsvTable::new(["label", "function", "avg", "min", "max", "var"]);
    for r in rows {
        t.push_row([
            r.label.clone(),
            r.function.clone(),
            fmt_f64(r.quality.avg),
            fmt_f64(r.quality.min),
            fmt_f64(r.quality.max),
            fmt_f64(r.quality.var),
        ]);
    }
    t
}

fn print_labeled(title: &str, rows: &[extensions::LabeledQuality]) {
    println!("== {title} ==");
    println!(
        "{:<20} {:<12} | {:>13} {:>13} {:>13} {:>13}",
        "config", "function", "avg", "min", "max", "Var"
    );
    for r in rows {
        println!(
            "{:<20} {:<12} | {:>13.5e} {:>13.5e} {:>13.5e} {:>13.5e}",
            r.label, r.function, r.quality.avg, r.quality.min, r.quality.max, r.quality.var
        );
    }
    println!();
}

fn run_command(cmd: &str, scale: &Scale, out: &Path) -> Result<(), String> {
    let started = Instant::now();
    let ext_reps = scale.reps.min(10);
    match cmd {
        "set1" => {
            let cells = paper::run_set1(scale).map_err(|e| e.to_string())?;
            println!(
                "{}",
                report::quality_table("Set 1 / Figure 1: quality vs swarm size (r = k)", &cells)
            );
            println!(
                "{}",
                report::quality_table(
                    "Table 1: best configuration per function",
                    &best_rows(&cells)
                )
            );
            report::quality_csv(&cells)
                .save(&out.join("set1_quality_vs_swarm.csv"))
                .map_err(|e| e.to_string())?;
            report::save_json(&out.join("set1.json"), &cells).map_err(|e| e.to_string())?;
        }
        "set2" => {
            let cells = paper::run_set2(scale).map_err(|e| e.to_string())?;
            println!(
                "{}",
                report::quality_table(
                    "Set 2 / Figure 2: quality vs network size (total budget)",
                    &cells
                )
            );
            println!(
                "{}",
                report::quality_table(
                    "Table 2: best configuration per function",
                    &best_rows(&cells)
                )
            );
            report::quality_csv(&cells)
                .save(&out.join("set2_quality_vs_netsize.csv"))
                .map_err(|e| e.to_string())?;
            report::save_json(&out.join("set2.json"), &cells).map_err(|e| e.to_string())?;
        }
        "set3" => {
            let cells = paper::run_set3(scale).map_err(|e| e.to_string())?;
            println!(
                "{}",
                report::quality_table(
                    "Set 3 / Figure 3: quality vs gossip cycle length (k = 16)",
                    &cells
                )
            );
            println!(
                "{}",
                report::quality_table(
                    "Table 3: best configuration per function",
                    &best_rows(&cells)
                )
            );
            report::quality_csv(&cells)
                .save(&out.join("set3_quality_vs_cycle_length.csv"))
                .map_err(|e| e.to_string())?;
            report::save_json(&out.join("set3.json"), &cells).map_err(|e| e.to_string())?;
        }
        "set4" => {
            let cells = paper::run_set4(scale).map_err(|e| e.to_string())?;
            println!(
                "{}",
                report::time_table(
                    "Set 4 / Figure 4 / Table 4: time to quality 1e-10 vs network size",
                    &cells
                )
            );
            report::time_csv(&cells)
                .save(&out.join("set4_time_vs_netsize.csv"))
                .map_err(|e| e.to_string())?;
            report::save_json(&out.join("set4.json"), &cells).map_err(|e| e.to_string())?;
        }
        "churn" => {
            let rows =
                extensions::churn_sweep(ext_reps, scale.base_seed).map_err(|e| e.to_string())?;
            print_labeled("EXT-churn: quality under balanced churn", &rows);
            labeled_csv(&rows)
                .save(&out.join("ext_churn.csv"))
                .map_err(|e| e.to_string())?;
        }
        "loss" => {
            let rows =
                extensions::loss_sweep(ext_reps, scale.base_seed).map_err(|e| e.to_string())?;
            print_labeled("EXT-loss: quality under message loss", &rows);
            labeled_csv(&rows)
                .save(&out.join("ext_loss.csv"))
                .map_err(|e| e.to_string())?;
        }
        "overlay" => {
            let rows = extensions::overlay_analysis(256, scale.base_seed);
            println!("== EXT-overlay: NEWSCAST overlay health ==");
            println!(
                "{:<18} {:>3} {:>6} {:>7} | {:>9} {:>9} {:>9} {:>9} {:>7}",
                "phase", "c", "weak", "strong", "indeg", "indeg_sd", "clust", "path", "stale"
            );
            for r in &rows {
                println!(
                    "{:<18} {:>3} {:>6} {:>7} | {:>9.2} {:>9.2} {:>9.4} {:>9.2} {:>6.1}%",
                    r.label,
                    r.view_size,
                    r.weakly_connected,
                    r.strongly_connected,
                    r.in_degree_avg,
                    r.in_degree_std,
                    r.clustering,
                    r.avg_path_len,
                    100.0 * r.stale_fraction
                );
            }
            println!();
            report::save_json(&out.join("ext_overlay.json"), &rows).map_err(|e| e.to_string())?;
        }
        "trace" => {
            let rows =
                extensions::convergence_traces(scale.base_seed).map_err(|e| e.to_string())?;
            let mut t = CsvTable::new(["label", "function", "tick", "quality"]);
            for r in &rows {
                for (tick, q) in &r.series {
                    t.push_row([
                        r.label.clone(),
                        r.function.clone(),
                        tick.to_string(),
                        fmt_f64(*q),
                    ]);
                }
            }
            t.save(&out.join("ext_trace.csv"))
                .map_err(|e| e.to_string())?;
            println!("== EXT-trace: convergence curves written to ext_trace.csv ==");
            for r in &rows {
                let last = r.series.last().map(|&(_, q)| q).unwrap_or(f64::NAN);
                println!(
                    "{:<10} {:<10} final quality {last:.5e}",
                    r.label, r.function
                );
            }
            println!();
        }
        "async" => {
            let rows = extensions::async_comparison(ext_reps, scale.base_seed)
                .map_err(|e| e.to_string())?;
            print_labeled("EXT-async: cycle vs event-driven kernel", &rows);
            labeled_csv(&rows)
                .save(&out.join("ext_async.csv"))
                .map_err(|e| e.to_string())?;
        }
        "solvers" => {
            let rows = extensions::solver_comparison(ext_reps, scale.base_seed)
                .map_err(|e| e.to_string())?;
            print_labeled("EXT-solvers: solver diversification (future work)", &rows);
            labeled_csv(&rows)
                .save(&out.join("ext_solvers.csv"))
                .map_err(|e| e.to_string())?;
        }
        "baselines" => {
            let rows = extensions::baselines_comparison(ext_reps, scale.base_seed)
                .map_err(|e| e.to_string())?;
            print_labeled(
                "EXT-baselines: gossip vs extremes (equal total budget)",
                &rows,
            );
            labeled_csv(&rows)
                .save(&out.join("ext_baselines.csv"))
                .map_err(|e| e.to_string())?;
        }
        "ablation" => {
            let rows =
                extensions::ablation(ext_reps, scale.base_seed).map_err(|e| e.to_string())?;
            print_labeled("EXT-ablation: design-choice sweeps", &rows);
            labeled_csv(&rows)
                .save(&out.join("ext_ablation.csv"))
                .map_err(|e| e.to_string())?;
        }
        "deploy" => {
            let rows = extensions::deployment_comparison(ext_reps.min(3), scale.base_seed)
                .map_err(|e| e.to_string())?;
            print_labeled("EXT-deploy: simulator vs live threaded deployment", &rows);
            labeled_csv(&rows)
                .save(&out.join("ext_deploy.csv"))
                .map_err(|e| e.to_string())?;
        }
        "figures" => {
            // Re-render the paper's four figures as ASCII plots from the
            // saved JSON artifacts (running any set that has no artifact
            // yet at the current scale).
            use gossipopt_bench::plot;
            use gossipopt_core::paper::{QualityCell, TimeCell};
            fn load<T: serde::de::DeserializeOwned>(path: &Path) -> Option<T> {
                let text = std::fs::read_to_string(path).ok()?;
                serde_json::from_str(&text).ok()
            }
            for (set, file) in [
                ("set1", "set1.json"),
                ("set2", "set2.json"),
                ("set3", "set3.json"),
            ] {
                let path = out.join(file);
                if !path.exists() {
                    run_command(set, scale, out)?;
                }
                let cells: Vec<QualityCell> =
                    load(&path).ok_or_else(|| format!("unreadable {}", path.display()))?;
                let rendered = match set {
                    "set1" => plot::figure1(&cells),
                    "set2" => plot::figure2(&cells),
                    _ => plot::figure3(&cells),
                };
                println!("{rendered}");
            }
            let path = out.join("set4.json");
            if !path.exists() {
                run_command("set4", scale, out)?;
            }
            let cells: Vec<TimeCell> =
                load(&path).ok_or_else(|| format!("unreadable {}", path.display()))?;
            println!("{}", plot::figure4(&cells));
        }
        "tables" => {
            for c in ["set1", "set2", "set3", "set4"] {
                run_command(c, scale, out)?;
            }
        }
        "all" => {
            for c in [
                "set1",
                "set2",
                "set3",
                "set4",
                "figures",
                "churn",
                "loss",
                "overlay",
                "solvers",
                "baselines",
                "ablation",
                "async",
                "trace",
                "deploy",
            ] {
                run_command(c, scale, out)?;
            }
        }
        other => return Err(format!("unknown command {other}")),
    }
    gossipopt_obs::log::info(&format!("[{cmd}] finished in {:.1?}", started.elapsed()));
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            gossipopt_obs::log::error(&e);
            return ExitCode::from(2);
        }
    };
    let _ = (opts.reps_override, opts.seed_override);
    gossipopt_obs::log::info(&format!(
        "repro: scale reps={} max_nodes={} budget=2^{} out={}",
        opts.scale.reps,
        opts.scale.max_nodes,
        20 - opts.scale.budget_shift,
        opts.out.display()
    ));
    for cmd in &opts.commands {
        if let Err(e) = run_command(cmd, &opts.scale, &opts.out) {
            gossipopt_obs::log::error(&format!("repro {cmd}: {e}"));
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
