//! End-to-end integration through the `selfstab` facade: the full
//! pipeline from DSL source to local proof, synthesis, global
//! cross-checking and simulation — spanning every workspace crate.

use selfstab::core::{ltg::Ltg, rcg::Rcg, StabilizationReport};
use selfstab::global::{check, EngineConfig, RingInstance, Simulator};
use selfstab::protocol::{Domain, Locality, Protocol};
use selfstab::protocols::{agreement, coloring, matching, sum_not_two};
use selfstab::synth::{LocalSynthesizer, SynthesisConfig};

#[test]
fn full_pipeline_on_a_fresh_protocol() {
    // A protocol not in the library: 4-valued "max agreement".
    let p = Protocol::builder("max4", Domain::numeric("x", 4), Locality::unidirectional())
        .action("x[r] < x[r-1] -> x[r] := x[r-1]")
        .unwrap()
        .legit("x[r] == x[r-1]")
        .unwrap()
        .build()
        .unwrap();

    // Local proof.
    let report = StabilizationReport::analyze(&p);
    assert!(report.is_self_stabilizing_for_all_k(), "{report}");

    // Global cross-check + simulation.
    for k in 2..=6 {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        assert!(
            check::ConvergenceReport::check(&ring, &EngineConfig::default()).self_stabilizing()
        );
    }
    let ring = RingInstance::symmetric(&p, 8).unwrap();
    let mut sim = Simulator::new(&ring, 1);
    let stats = sim.convergence_stats(100, 100_000);
    assert_eq!(stats.failed, 0);
}

#[test]
fn synthesis_to_simulation_round_trip() {
    let input = agreement::binary_agreement_empty();
    let out = LocalSynthesizer::new(SynthesisConfig::default())
        .synthesize(&input)
        .unwrap();
    assert!(out.is_success());
    for s in out.solutions() {
        let ring = RingInstance::symmetric(&s.protocol, 9).unwrap();
        let mut sim = Simulator::new(&ring, 3);
        let start = sim.random_state();
        assert!(sim.run_from(start, 100_000).converged);
    }
}

#[test]
fn graph_structures_are_consistent_across_crates() {
    let p = matching::matching_generalizable();
    let rcg = Rcg::build(&p);
    let ltg = Ltg::build(&p);
    // The LTG's s-graph is the RCG.
    assert_eq!(ltg.s_arcs().arc_count(), rcg.graph().arc_count());
    // Every t-arc's endpoints are in range.
    for (u, v) in ltg.t_arcs().arcs() {
        assert!(u < p.space().len() && v < p.space().len());
    }
}

#[test]
fn library_protocols_have_documented_verdicts() {
    // A compact truth table over the library: (protocol, deadlock-free,
    // livelock-certified).
    let cases: Vec<(Protocol, bool, bool)> = vec![
        (agreement::binary_agreement_one_sided(), true, true),
        (agreement::binary_agreement_other_sided(), true, true),
        (agreement::binary_agreement_both(), true, false),
        (agreement::max_agreement(3), true, true),
        (coloring::two_coloring_resolved(), true, false),
        (coloring::coloring_increment(3), true, false),
        (sum_not_two::sum_not_two_solution(), true, true),
        (matching::matching_generalizable(), true, false), // bidirectional scope
    ];
    for (p, dfree, lfree) in cases {
        let r = StabilizationReport::analyze(&p);
        assert_eq!(r.deadlock.is_free_for_all_k(), dfree, "{}", p.name());
        assert_eq!(r.livelock.certified_free(), lfree, "{}", p.name());
    }
}

#[test]
fn display_types_render() {
    let p = sum_not_two::sum_not_two_solution();
    let r = StabilizationReport::analyze(&p);
    let text = format!("{r}");
    assert!(text.contains("Theorem 4.2"));
    assert!(text.contains("Theorem 5.14"));
}
