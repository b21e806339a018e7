//! Campaign-level determinism: the rendered JSON/CSV reports must be
//! **byte-identical** across repeated runs and across worker-thread
//! counts (cells are independently seeded; no wall-clock data enters the
//! report). Also parse-validates every committed campaign under
//! `scenarios/` so a spec typo fails tier-1 tests, not just CI.

use gossipopt_scenarios::{parse_campaign, run_campaign};

/// A small but representative campaign: both kernels, a sweep axis,
/// churn, and every fault kind across the grid.
const CAMPAIGN: &str = r#"
[campaign]
name = "determinism"
seed = 2024

[cell]
nodes = 24
particles = 4
gossip_every = 4
budget = 60
churn = 0.005
topology = "kregular:3"

[cell.metrics]
sample_every = 5
capacity = 8

[[cell.fault]]
kind = "partition"
at = 10
heal_at = 25
groups = [[0, 12], [12, 24]]

[[cell.fault]]
kind = "massacre"
at = 30
kill_frac = 0.25

[[cell.fault]]
kind = "flash_crowd"
at = 35
join = 6

[[cell.fault]]
kind = "corrupt_optimum"
at = 45
node_frac = 0.2
lie = -1e6

[sweep]
kernel = ["cycle", "event"]
loss = [0.0, 0.1]
"#;

#[test]
fn reports_are_byte_identical_across_runs_and_thread_counts() {
    let spec = parse_campaign(CAMPAIGN).unwrap();
    assert_eq!(spec.cells.len(), 4);
    let reference = run_campaign(&spec, 1).unwrap();
    let ref_json = reference.to_json();
    let ref_csv = reference.to_csv();
    // Reports must carry the fault evidence (so the equality below is
    // not vacuous): partitions blocked traffic, the lie took hold, and
    // the massacre/flash-crowd membership arithmetic happened.
    assert!(reference.cells.iter().all(|c| c.blocked_messages > 0));
    assert!(reference.cells.iter().all(|c| c.poisoned));
    for cell in &reference.cells {
        // 24 initial − 25% massacre of ~24 + 6 joiners (churn wiggles it).
        assert!(
            (15..=32).contains(&cell.report.final_population),
            "population {} out of the plausible band",
            cell.report.final_population
        );
        assert!(!cell.report.samples.is_empty());
    }

    for run in 0..2 {
        for threads in [1, 2, 4] {
            let again = run_campaign(&spec, threads).unwrap();
            assert_eq!(
                again.to_json(),
                ref_json,
                "JSON diverged (run {run}, {threads} threads)"
            );
            assert_eq!(
                again.to_csv(),
                ref_csv,
                "CSV diverged (run {run}, {threads} threads)"
            );
        }
    }
    // Round trip through the schema-checked loader.
    let parsed = gossipopt_scenarios::CampaignReport::from_json(&ref_json).unwrap();
    assert_eq!(parsed.to_json(), ref_json);
}

#[test]
fn committed_campaign_files_parse_and_validate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert!(files.len() >= 16, "found only {files:?}");
    for path in &files {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let spec = parse_campaign(&text)
            .unwrap_or_else(|e| panic!("committed campaign {stem} is invalid: {e}"));
        // Report files are named after the campaign: keep it the file's
        // stem (the paper tables spell it with dashes).
        assert_eq!(spec.name.replace('-', "_"), stem);
        let name = spec.name.as_str();
        assert!(!spec.cells.is_empty());
        // The two fault-schedule acceptance campaigns must actually carry
        // their faults.
        if name == "partition_heal" {
            assert!(spec.cells.iter().all(|c| !c.fault.is_empty()));
            assert_eq!(spec.asserts.min_blocked, Some(100));
        }
        if name == "byzantine_optimum" {
            assert_eq!(spec.asserts.expect_poisoned, Some(true));
        }
        // The paper-table campaigns feed `campaign report`: they must
        // carry their captions and the shapes the report layer renders.
        if name.starts_with("paper-table") {
            assert!(
                gossipopt_scenarios::paper_title(&spec.name).is_some(),
                "{name} needs a paper_title mapping"
            );
        }
        if name == "paper-table2" {
            // The zip pairing is the point: total budget is constant.
            assert!(spec.cells.iter().all(|c| c.nodes as u64 * c.budget == 4096));
        }
        if name == "paper-table4" {
            assert!(spec.cells.iter().all(|c| c.stop_at_quality == Some(1e-10)));
        }
        // The loss and topology sweeps: full grids, each quality-gated.
        if name == "loss_sweep" {
            assert_eq!(spec.cells.len(), 2 * 4 * 3);
            assert!(spec.asserts.max_quality.is_some());
        }
        if name == "ablation" {
            assert_eq!(spec.cells.len(), 8 * 3 * 3);
            assert!(spec.asserts.max_quality.is_some());
        }
    }
}

#[test]
fn paper_grid_covers_the_full_matrix() {
    // The acceptance grid: 3 topologies × churn on/off × both kernels.
    let spec = parse_campaign(include_str!("../../../scenarios/paper_grid.toml")).unwrap();
    assert_eq!(spec.cells.len(), 12);
    let mut seen = std::collections::BTreeSet::new();
    for cell in &spec.cells {
        seen.insert((cell.topology.clone(), cell.kernel.clone(), cell.churn > 0.0));
    }
    assert_eq!(
        seen.len(),
        12,
        "every (topology, kernel, churn) combination"
    );
    let topologies: std::collections::BTreeSet<_> =
        seen.iter().map(|(t, _, _)| t.clone()).collect();
    assert_eq!(topologies.len(), 3);
    let kernels: std::collections::BTreeSet<_> = seen.iter().map(|(_, k, _)| k.clone()).collect();
    assert_eq!(kernels.len(), 2);
}

#[test]
fn csv_quotes_grammar_values_that_contain_commas() {
    // `smallworld:K,BETA` and `rumor:FANOUT,STOP_PROB` carry a comma; an
    // unquoted one would shift every later column of the row.
    let spec = parse_campaign(
        "[cell]\nnodes = 8\nbudget = 10\ntopology = \"smallworld:4,0.2\"\n\
         coordination = \"rumor:2,0.5\"\n",
    )
    .unwrap();
    let csv = run_campaign(&spec, 1).unwrap().to_csv();
    let fields = |line: &str| {
        let mut quoted = false;
        1 + line
            .chars()
            .filter(|&c| {
                quoted ^= c == '"';
                c == ',' && !quoted
            })
            .count()
    };
    let mut lines = csv.lines();
    let header = fields(lines.next().unwrap());
    let row = lines.next().unwrap();
    assert_eq!(fields(row), header, "{row}");
    assert!(
        row.contains(",\"smallworld:4,0.2\",\"rumor:2,0.5\","),
        "{row}"
    );
}
