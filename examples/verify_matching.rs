//! Reproduces the paper's deadlock-freedom story for maximal matching
//! (Examples 4.2 and 4.3, Figures 1–3): the generalizable protocol passes
//! Theorem 4.2, the non-generalizable one fails with explicit witness
//! cycles and ring sizes, and DOT renderings of the figures are written to
//! `target/figures/`.
//!
//! Run with: `cargo run --example verify_matching`

use std::fs;

use selfstab::core::{deadlock::DeadlockAnalysis, ltg::Ltg, rcg::Rcg};
use selfstab::global::{check, EngineConfig, RingInstance};
use selfstab::protocols::matching;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    fs::create_dir_all("target/figures")?;

    // Figure 1: the continuation relation over all 27 local states.
    let empty = matching::matching_empty();
    let rcg = Rcg::build(&empty);
    fs::write(
        "target/figures/fig1.dot",
        rcg.to_dot(&empty, "fig1-matching-rcg", None),
    )?;
    println!(
        "Fig. 1: RCG over {} local states, {} s-arcs  -> target/figures/fig1.dot",
        rcg.graph().vertex_count(),
        rcg.graph().arc_count()
    );

    // Example 4.2: the generalizable protocol.
    let good = matching::matching_generalizable();
    let da = DeadlockAnalysis::analyze(&good);
    println!("\n=== Example 4.2 (generalizable) ===\n{da}");
    let deadlocks = good.local_deadlocks();
    fs::write(
        "target/figures/fig2.dot",
        Rcg::build(&good).to_dot(&good, "fig2-deadlock-induced", Some(deadlocks.as_bitset())),
    )?;
    let ltg = Ltg::build(&good);
    fs::write("target/figures/fig4.dot", ltg.to_dot(&good, "fig4-ltg"))?;

    // The paper model-checked K = 5..8; so do we.
    for k in 5..=8 {
        let ring = RingInstance::symmetric(&good, k)?;
        let report = check::ConvergenceReport::check(&ring, &EngineConfig::default());
        println!(
            "  model check K={k}: deadlocks={} livelock={} closure_ok={}",
            report.illegitimate_deadlocks.len(),
            report.livelock.is_some(),
            report.closure_violation.is_none()
        );
    }

    // Example 4.3: the non-generalizable protocol.
    let bad = matching::matching_non_generalizable();
    let da = DeadlockAnalysis::analyze(&bad);
    println!("\n=== Example 4.3 (non-generalizable) ===\n{da}");
    for w in da.witnesses() {
        let states: Vec<String> = w
            .cycle
            .iter()
            .map(|&s| bad.space().format_compact(s, bad.domain()))
            .collect();
        println!(
            "  witness cycle (len {}): {}",
            w.base_ring_size,
            states.join(" -> ")
        );
    }
    println!(
        "  exact deadlocked ring sizes <= 14: {:?}",
        da.deadlocked_ring_sizes(14)
    );
    println!("  (the paper predicts only multiples of 4 or 6 — see EXPERIMENTS.md erratum)");
    let deadlocks = bad.local_deadlocks();
    fs::write(
        "target/figures/fig3.dot",
        Rcg::build(&bad).to_dot(&bad, "fig3-deadlock-induced", Some(deadlocks.as_bitset())),
    )?;

    // The paper's repair: resolve ⟨left,left,self⟩.
    let lls = bad.space().encode(&[0, 0, 2]);
    let fixed = bad.with_added_transitions(
        "matching-fixed",
        [selfstab::protocol::LocalTransition::new(lls, 1)],
    )?;
    let da = DeadlockAnalysis::analyze(&fixed);
    println!("\nafter resolving ⟨left,left,self⟩: {da}");
    Ok(())
}
