#![forbid(unsafe_code)]
//! `gossipopt-cli` — run a single distributed-optimization experiment from
//! a JSON specification.
//!
//! The downstream-user entry point: describe the network declaratively,
//! get the paper's figures of merit back as JSON.
//!
//! ```text
//! gossipopt-cli --spec experiment.json [--function sphere] [--budget-per-node 1000]
//!               [--budget-total N] [--reps R] [--seed S] [--emit-spec]
//!               [--deploy channel|udp]
//! ```
//!
//! `--emit-spec` prints the default specification as JSON (the template to
//! edit); with `--spec -` the spec is read from stdin. `--deploy` runs the
//! spec on the **real threaded runtime** (one OS thread per node, channel
//! or UDP transport) instead of the simulator — per-node budgets only.

use gossipopt_core::prelude::*;
use std::io::Read;
use std::process::ExitCode;

struct Args {
    spec_path: Option<String>,
    function: String,
    budget: Budget,
    reps: u64,
    seed: u64,
    emit_spec: bool,
    deploy: Option<gossipopt_runtime::TransportKind>,
}

fn parse() -> Result<Args, String> {
    let mut spec_path = None;
    let mut function = "sphere".to_string();
    let mut budget = Budget::PerNode(1000);
    let mut reps = 1u64;
    let mut seed = 42u64;
    let mut emit_spec = false;
    let mut deploy = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--spec" => spec_path = Some(next("--spec")?),
            "--function" => function = next("--function")?,
            "--budget-per-node" => {
                budget = Budget::PerNode(
                    next("--budget-per-node")?
                        .parse()
                        .map_err(|e| format!("bad budget: {e}"))?,
                )
            }
            "--budget-total" => {
                budget = Budget::Total(
                    next("--budget-total")?
                        .parse()
                        .map_err(|e| format!("bad budget: {e}"))?,
                )
            }
            "--reps" => {
                reps = next("--reps")?
                    .parse()
                    .map_err(|e| format!("bad reps: {e}"))?
            }
            "--seed" => {
                seed = next("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--emit-spec" => emit_spec = true,
            "--deploy" => {
                deploy = Some(match next("--deploy")?.as_str() {
                    "channel" => gossipopt_runtime::TransportKind::Channel,
                    "udp" => gossipopt_runtime::TransportKind::Udp,
                    other => return Err(format!("--deploy must be channel or udp, got {other}")),
                })
            }
            "--help" | "-h" => {
                return Err("usage: gossipopt-cli [--spec FILE|-] [--function NAME] \
                     [--budget-per-node N | --budget-total N] [--reps R] [--seed S] \
                     [--emit-spec] [--deploy channel|udp]"
                    .into())
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        spec_path,
        function,
        budget,
        reps,
        seed,
        emit_spec,
        deploy,
    })
}

fn load_spec(path: &str) -> Result<DistributedPsoSpec, String> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    serde_json::from_str(&text).map_err(|e| format!("{path}: invalid spec: {e}"))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            gossipopt_obs::log::error(&e);
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        let spec = DistributedPsoSpec::default();
        println!(
            "{}",
            serde_json::to_string_pretty(&spec).expect("spec serializes")
        );
        return ExitCode::SUCCESS;
    }
    let spec = match &args.spec_path {
        Some(p) => match load_spec(p) {
            Ok(s) => s,
            Err(e) => {
                gossipopt_obs::log::error(&e);
                return ExitCode::from(2);
            }
        },
        None => DistributedPsoSpec::default(),
    };
    if let Some(transport) = args.deploy {
        let Budget::PerNode(budget_per_node) = args.budget else {
            gossipopt_obs::log::error("gossipopt-cli: --deploy supports per-node budgets only");
            return ExitCode::from(2);
        };
        let mut cfg = gossipopt_runtime::ClusterConfig::new(spec.clone(), &args.function);
        cfg.budget_per_node = budget_per_node;
        cfg.seed = args.seed;
        cfg.transport = transport;
        return match gossipopt_runtime::run_cluster(&cfg) {
            Ok(report) => {
                let out = serde_json::json!({
                    "spec": spec,
                    "function": args.function,
                    "deployment": format!("{transport:?}"),
                    "best_quality": report.best_quality,
                    "total_evals": report.total_evals,
                    "wall_time_ms": report.wall_time.as_millis() as u64,
                    "messages_sent": report.messages_sent,
                    "messages_received": report.messages_received,
                    "decode_errors": report.decode_errors,
                    "survivors": report.survivors,
                });
                println!(
                    "{}",
                    serde_json::to_string_pretty(&out).expect("serializes")
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                gossipopt_obs::log::error(&format!("gossipopt-cli: {e}"));
                ExitCode::FAILURE
            }
        };
    }
    match run_repeated(&spec, &args.function, args.budget, args.reps, args.seed) {
        Ok(report) => {
            let out = serde_json::json!({
                "spec": spec,
                "function": args.function,
                "budget": args.budget,
                "reps": args.reps,
                "seed": args.seed,
                "quality": report.quality,
                "time": report.time,
                "evals": report.evals,
                "threshold_hits": report.threshold_hits,
                "runs": report.runs.iter().map(|r| serde_json::json!({
                    "best_quality": r.best_quality,
                    "ticks": r.ticks,
                    "total_evals": r.total_evals,
                    "messages_delivered": r.messages_delivered,
                    "coordination_exchanges": r.coordination_exchanges,
                    "payload_bytes": r.payload_bytes,
                })).collect::<Vec<_>>(),
            });
            println!(
                "{}",
                serde_json::to_string_pretty(&out).expect("serializes")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            gossipopt_obs::log::error(&format!("gossipopt-cli: {e}"));
            ExitCode::FAILURE
        }
    }
}
