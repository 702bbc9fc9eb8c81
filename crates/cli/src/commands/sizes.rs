//! `selfstab sizes <file.stab> [--max N] [--json]` — exact deadlocked ring
//! sizes.

use selfstab_core::deadlock::DeadlockAnalysis;
use serde_json::json;

use crate::args::{load_protocol, Args};

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "json", "max")?;
    let protocol = load_protocol(&args)?;
    let max = args.get_usize("max", 20)?;

    let analysis = DeadlockAnalysis::analyze(&protocol);
    let sizes = if analysis.is_free_for_all_k() {
        Vec::new()
    } else {
        analysis.deadlocked_ring_sizes(max)
    };
    let free: Vec<usize> = (1..=max).filter(|k| !sizes.contains(k)).collect();
    let witnesses: Vec<Vec<String>> = analysis
        .witnesses()
        .iter()
        .take(5)
        .map(|w| {
            w.cycle
                .iter()
                .map(|&s| protocol.space().format_compact(s, protocol.domain()))
                .collect()
        })
        .collect();

    if args.flag("json") {
        let doc = json!({
            "protocol": protocol.name(),
            "free_for_all_k": analysis.is_free_for_all_k(),
            "max": max,
            "deadlocked_sizes": sizes.clone(),
            "free_sizes": free,
            "witness_cycles": witnesses,
        });
        println!("{}", serde_json::to_string_pretty(&doc)?);
        return Ok(true);
    }

    if analysis.is_free_for_all_k() {
        println!("deadlock-free outside I for every ring size (Theorem 4.2)");
        return Ok(true);
    }
    println!("ring sizes 1..={max} with global deadlocks outside I: {sizes:?}");
    println!("deadlock-free sizes in that range: {free:?}");
    for (w, cycle) in analysis.witnesses().iter().take(5).zip(&witnesses) {
        println!(
            "  witness cycle (len {}): {}",
            w.base_ring_size,
            cycle.join(" -> ")
        );
    }
    Ok(true)
}
