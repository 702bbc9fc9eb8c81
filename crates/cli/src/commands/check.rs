//! `selfstab check <file.stab> --k N [--to M] [--threads T]` — explicit-state
//! global model checking at fixed ring sizes.
//!
//! `--threads` parallelizes the fused convergence scan; the verdict and
//! every reported witness are identical for any thread count (default 1,
//! fully sequential). The engine decides on its own when to scan one
//! necklace per rotation orbit instead of every state; the report bytes
//! are the same either way.

use selfstab_global::{check::ConvergenceReport, EngineConfig, RingInstance};

use crate::args::{load_protocol, Args};

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "json", "k to threads")?;
    let protocol = load_protocol(&args)?;
    let from = args.require_usize("k")?;
    let to = args.get_usize("to", from)?;
    if to < from {
        return Err("--to must be at least --k".into());
    }
    let engine = EngineConfig::with_threads(args.get_usize("threads", 1)?);

    let mut all_ok = true;
    let mut json_rows = Vec::new();
    for k in from..=to {
        let ring = RingInstance::symmetric(&protocol, k)?;
        let report = ConvergenceReport::check(&ring, &engine);
        if args.flag("json") {
            json_rows.push(crate::json::convergence_report(&report));
            if !report.self_stabilizing() {
                all_ok = false;
            }
            continue;
        }
        print!("{report}");
        if let Some(cycle) = &report.livelock {
            let rendered: Vec<String> = cycle
                .iter()
                .take(12)
                .map(|&s| protocol.domain().format_values(&ring.space().decode(s)))
                .collect();
            println!(
                "  livelock cycle: {}{}",
                rendered.join(" -> "),
                if cycle.len() > 12 { " ..." } else { "" }
            );
        }
        if !report.self_stabilizing() {
            all_ok = false;
        }
    }
    if args.flag("json") {
        // The shared renderer frames the document, so the HTTP service's
        // cached results stay byte-identical to this output.
        print!("{}", selfstab_serve::render::check_document(json_rows));
    } else if all_ok {
        println!("strongly self-stabilizing at every checked size");
    } else {
        println!("some checked size fails");
    }
    Ok(all_ok)
}
