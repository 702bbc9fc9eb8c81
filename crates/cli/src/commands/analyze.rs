//! `selfstab analyze <file.stab>` — the local analysis.

use selfstab_core::report::StabilizationReport;

use crate::args::{load_protocol, Args};

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "json", "")?;
    let protocol = load_protocol(&args)?;
    let report = StabilizationReport::analyze(&protocol);
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&crate::json::stabilization_report(&protocol, &report))?
        );
        return Ok(true);
    }
    println!("{protocol}");
    println!("{report}");

    // Witness detail beyond the summary.
    if !report.deadlock.is_free_for_all_k() {
        for w in report.deadlock.witnesses().iter().take(8) {
            let states: Vec<String> = w
                .cycle
                .iter()
                .map(|&s| protocol.space().format_compact(s, protocol.domain()))
                .collect();
            println!(
                "  deadlock witness (ring size {}): {}",
                w.base_ring_size,
                states.join(" -> ")
            );
        }
        let sizes = report.deadlock.deadlocked_ring_sizes(20);
        println!("  deadlocked ring sizes <= 20: {sizes:?}");
    }
    if let Some(trail) = report.livelock.trail() {
        println!("  blocking trail: {}", trail.display(&protocol));
    }
    Ok(true)
}
