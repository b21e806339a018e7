//! Cross-crate integration tests of the three coordination services
//! (anti-entropy, rumor mongering, island migration) under one roof:
//! diffusion shape, overhead ordering, and loss tolerance.

use gossipopt::core::experiment::{
    run_distributed_pso, Budget, CoordinationKind, DistributedPsoSpec,
};
use gossipopt::gossip::{ExchangeMode, RumorConfig};

fn spec(coordination: CoordinationKind) -> DistributedPsoSpec {
    DistributedPsoSpec {
        nodes: 32,
        particles_per_node: 8,
        gossip_every: 8,
        coordination,
        ..Default::default()
    }
}

#[test]
fn every_coordination_mode_is_deterministic_per_seed() {
    for coordination in [
        CoordinationKind::GossipBest(ExchangeMode::PushPull),
        CoordinationKind::RumorBest(RumorConfig {
            fanout: 2,
            stop_prob: 0.5,
        }),
        CoordinationKind::Migrate { migrants: 2 },
    ] {
        let a =
            run_distributed_pso(&spec(coordination), "griewank", Budget::PerNode(120), 7).unwrap();
        let b =
            run_distributed_pso(&spec(coordination), "griewank", Budget::PerNode(120), 7).unwrap();
        assert_eq!(
            a.best_quality.to_bits(),
            b.best_quality.to_bits(),
            "{coordination:?} must be bit-reproducible"
        );
        assert_eq!(a.messages_sent, b.messages_sent);
    }
}

#[test]
fn rumor_fanout_scales_traffic() {
    // Demers' k: more fan-out, more pushes — the k/p trade-off of the
    // paper's background section must be visible in message counts.
    let lo = run_distributed_pso(
        &spec(CoordinationKind::RumorBest(RumorConfig {
            fanout: 1,
            stop_prob: 0.5,
        })),
        "sphere",
        Budget::PerNode(200),
        11,
    )
    .unwrap();
    let hi = run_distributed_pso(
        &spec(CoordinationKind::RumorBest(RumorConfig {
            fanout: 4,
            stop_prob: 0.5,
        })),
        "sphere",
        Budget::PerNode(200),
        11,
    )
    .unwrap();
    assert!(
        hi.coordination_exchanges > lo.coordination_exchanges,
        "fanout 4 ({}) must out-talk fanout 1 ({})",
        hi.coordination_exchanges,
        lo.coordination_exchanges
    );
}

#[test]
fn rumor_stop_probability_throttles_traffic() {
    // Demers' p: eager nodes (p small) keep pushing; p = 1 cools on the
    // first duplicate.
    let eager = run_distributed_pso(
        &spec(CoordinationKind::RumorBest(RumorConfig {
            fanout: 2,
            stop_prob: 0.05,
        })),
        "sphere",
        Budget::PerNode(200),
        13,
    )
    .unwrap();
    let shy = run_distributed_pso(
        &spec(CoordinationKind::RumorBest(RumorConfig {
            fanout: 2,
            stop_prob: 1.0,
        })),
        "sphere",
        Budget::PerNode(200),
        13,
    )
    .unwrap();
    assert!(
        eager.coordination_exchanges > shy.coordination_exchanges,
        "p=0.05 ({}) must out-talk p=1.0 ({})",
        eager.coordination_exchanges,
        shy.coordination_exchanges
    );
}

#[test]
fn rumor_mongering_is_quieter_than_anti_entropy() {
    // Anti-entropy pushes unconditionally every r evals; rumor mongering
    // goes cold between improvements. At the same cadence the rumor mode
    // must send fewer coordination messages.
    let ae = run_distributed_pso(
        &spec(CoordinationKind::GossipBest(ExchangeMode::PushPull)),
        "griewank",
        Budget::PerNode(400),
        17,
    )
    .unwrap();
    let rumor = run_distributed_pso(
        &spec(CoordinationKind::RumorBest(RumorConfig {
            fanout: 1,
            stop_prob: 0.5,
        })),
        "griewank",
        Budget::PerNode(400),
        17,
    )
    .unwrap();
    assert!(
        rumor.coordination_exchanges < ae.coordination_exchanges,
        "rumor ({}) should be quieter than anti-entropy ({})",
        rumor.coordination_exchanges,
        ae.coordination_exchanges
    );
    // And still end with a competitive global quality (same order).
    let la = ae.best_quality.max(1e-300).log10();
    let lr = rumor.best_quality.max(1e-300).log10();
    assert!(
        (la - lr).abs() < 3.0,
        "anti-entropy 1e{la:.1} vs rumor 1e{lr:.1}"
    );
}

#[test]
fn migration_survives_message_loss() {
    // §3.3.4: lost messages only slow diffusion. Migration is push-only
    // (no acks), so it must tolerate heavy loss without breaking.
    let mut s = spec(CoordinationKind::Migrate { migrants: 2 });
    s.loss_prob = 0.5;
    let r = run_distributed_pso(&s, "rastrigin", Budget::PerNode(300), 19).unwrap();
    assert!(r.messages_dropped > 0);
    assert!(r.best_quality.is_finite());
    assert_eq!(r.total_evals, 32 * 300, "budget unaffected by loss");
}

#[test]
fn migration_improves_with_more_migrants_on_multimodal() {
    // The migration ablation's finding in miniature: more migrants, better
    // Griewank quality (aggregate over a few seeds to damp noise).
    let mut wins = 0;
    let rounds = 5;
    for seed in 0..rounds {
        let one = run_distributed_pso(
            &spec(CoordinationKind::Migrate { migrants: 1 }),
            "griewank",
            Budget::PerNode(500),
            23 + seed,
        )
        .unwrap();
        let four = run_distributed_pso(
            &spec(CoordinationKind::Migrate { migrants: 4 }),
            "griewank",
            Budget::PerNode(500),
            23 + seed,
        )
        .unwrap();
        if four.best_quality <= one.best_quality {
            wins += 1;
        }
    }
    assert!(
        wins * 2 >= rounds,
        "4 migrants won only {wins}/{rounds} seeds"
    );
}

#[test]
fn all_modes_work_on_every_static_topology() {
    use gossipopt::core::experiment::TopologyKind;
    for topology in [
        TopologyKind::Grid,
        TopologyKind::SmallWorld { k: 4, beta: 0.3 },
        TopologyKind::ErdosRenyi(0.3),
    ] {
        for coordination in [
            CoordinationKind::RumorBest(RumorConfig {
                fanout: 2,
                stop_prob: 0.5,
            }),
            CoordinationKind::Migrate { migrants: 1 },
        ] {
            let mut s = spec(coordination);
            s.topology = topology;
            let r = run_distributed_pso(&s, "sphere", Budget::PerNode(60), 29).unwrap();
            assert!(
                r.best_quality.is_finite(),
                "{topology:?} x {coordination:?}"
            );
            assert!(r.coordination_exchanges > 0);
        }
    }
}
