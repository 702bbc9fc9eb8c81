//! Reproduces the Section 6 synthesis walk-through on the sum-not-two
//! protocol (Figure 12): computes the forced `Resolve` set, screens all
//! eight candidate transition sets through the pseudo-livelock and
//! contiguous-trail conditions, and cross-checks every verdict against the
//! global model checker.
//!
//! Run with: `cargo run --example synthesize_sum_not_two`

use selfstab::core::livelock::LivelockAnalysis;
use selfstab::global::{check, EngineConfig, RingInstance};
use selfstab::protocols::sum_not_two;
use selfstab::synth::{LocalSynthesizer, SynthesisConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let input = sum_not_two::sum_not_two_empty();
    println!("{input}");

    let out = LocalSynthesizer::new(SynthesisConfig::default())
        .synthesize(&input)
        .unwrap();
    println!(
        "synthesis: {} resolve set(s), {} combinations, {} rejected by trail, {} solutions\n",
        out.resolve_sets_tried(),
        out.combinations_tried(),
        out.rejected_by_trail(),
        out.solutions().len()
    );

    for s in out.solutions() {
        let names: Vec<String> = s
            .added
            .iter()
            .map(|t| t.display(input.space(), input.locality(), input.domain()))
            .collect();
        println!("ACCEPTED ({:?}):", s.verdict);
        for n in names {
            println!("    {n}");
        }
        // Every accepted revision must hold up globally.
        for k in 2..=7 {
            let ring = RingInstance::symmetric(&s.protocol, k)?;
            let rep = check::ConvergenceReport::check(&ring, &EngineConfig::default());
            assert!(rep.self_stabilizing(), "K={k}: {rep}");
        }
        println!("    globally verified for K = 2..=7\n");
    }

    // The rejected candidates, with their trail witnesses.
    println!("--- rejected candidates ---");
    for (label, cand) in [
        (
            "{t21, t10, t02}",
            sum_not_two::sum_not_two_candidate(1, 0, 2)?,
        ),
        (
            "{t01, t12, t20}",
            sum_not_two::sum_not_two_candidate(0, 2, 1)?,
        ),
        (
            "{t20, t10, t02}",
            sum_not_two::sum_not_two_candidate(0, 0, 2)?,
        ),
        (
            "{t20, t12, t02}",
            sum_not_two::sum_not_two_candidate(0, 2, 2)?,
        ),
    ] {
        let la = LivelockAnalysis::analyze(&cand);
        println!("{label}: certified_free = {}", la.certified_free());
        if let Some(trail) = la.trail() {
            println!("    blocking trail: {}", trail.display(&cand));
        }
        let mut real = None;
        for k in 2..=7 {
            let ring = RingInstance::symmetric(&cand, k)?;
            if check::find_livelock(&ring).is_some() {
                real = Some(k);
                break;
            }
        }
        match real {
            Some(k) => println!("    REAL livelock at K = {k} (the paper misses the last two!)"),
            None => {
                println!("    no real livelock up to K = 7 (sufficiency gap, as the paper notes)")
            }
        }
    }

    // The paper's final guarded-command solution.
    let sol = sum_not_two::sum_not_two_solution();
    println!("\nthe paper's solution:\n{sol}");
    Ok(())
}
