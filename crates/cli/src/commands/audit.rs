//! `selfstab audit <file.stab> [--to K] [--threads T] [--symmetry MODE]
//! [--json]` — the full battery: local proofs, global cross-checks at
//! every size up to a bound, and trail reconstruction when the livelock
//! certificate fails. `--threads` parallelizes the global cross-checks
//! and `--symmetry auto|full|reduced` selects the rotation-symmetry
//! reduction policy; neither changes any verdict.
//!
//! Exit code 0 means every checked size is self-stabilizing; 2 means some
//! size FAILS or — far worse — a locally-proven protocol was contradicted
//! globally (a soundness disagreement).

use selfstab_core::report::StabilizationReport;
use selfstab_global::{check, EngineConfig, RingInstance, SymmetryMode};
use selfstab_synth::diagnose::reconstruct_trail;
use serde_json::json;

use crate::args::{load_protocol, Args};

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "json", "to symmetry threads")?;
    let protocol = load_protocol(&args)?;
    let to = args.get_usize("to", 6)?;
    let symmetry: SymmetryMode = args.get("symmetry").unwrap_or("auto").parse()?;
    let engine = EngineConfig::with_threads(args.get_usize("threads", 1)?).with_symmetry(symmetry);
    let json_mode = args.flag("json");

    let report = StabilizationReport::analyze(&protocol);
    if !json_mode {
        println!("{protocol}");
        println!("== local analysis (all ring sizes) ==");
        println!("{report}");
    }

    // When the certificate fails, try to realize the trail as a livelock.
    let mut trail_json = serde_json::Value::Null;
    if let Some(trail) = report.livelock.trail() {
        let rec = reconstruct_trail(&protocol, trail, 2..=to)?;
        if json_mode {
            trail_json = json!({
                "blocking_trail": trail.display(&protocol),
                "reconstruction": rec.to_string(),
            });
        } else {
            println!("== trail reconstruction ==");
            println!("blocking trail: {}", trail.display(&protocol));
            println!("{rec}");
        }
    }

    if !json_mode {
        println!("== global cross-check (K = 2..={to}) ==");
    }
    let mut all_ok = true;
    let mut disagreements = 0;
    let mut global_rows = Vec::new();
    for k in 2..=to {
        let ring = RingInstance::symmetric(&protocol, k)?;
        let g = check::ConvergenceReport::check(&ring, &engine);
        if !g.self_stabilizing() {
            all_ok = false;
        }
        // Soundness audit: a local "proven" verdict must never be
        // contradicted globally.
        let disagrees = report.is_self_stabilizing_for_all_k() && !g.self_stabilizing();
        if disagrees {
            disagreements += 1;
        }
        if json_mode {
            global_rows.push(crate::json::convergence_report(&g));
        } else {
            let status = if g.self_stabilizing() {
                "self-stabilizing"
            } else {
                "FAILS"
            };
            println!(
                "K={k}: {status} (deadlocks¬I {}, livelock {}, closure {})",
                g.illegitimate_deadlocks.len(),
                g.livelock.is_some(),
                g.closure_violation.is_none()
            );
        }
    }

    if json_mode {
        let doc = json!({
            "local": crate::json::stabilization_report(&protocol, &report),
            "trail_reconstruction": trail_json,
            "global": serde_json::Value::Array(global_rows),
            "checked_up_to": to,
            "soundness_disagreements": disagreements,
            "proven_for_all_k": report.is_self_stabilizing_for_all_k(),
        });
        println!("{}", serde_json::to_string_pretty(&doc)?);
    }
    if disagreements > 0 {
        selfstab_telemetry::logger::warn(format!(
            "SOUNDNESS VIOLATION: local proof contradicted at {disagreements} size(s) — please report this"
        ));
        return Ok(false);
    }
    if !json_mode {
        println!("== verdict ==");
        if report.is_self_stabilizing_for_all_k() {
            println!("PROVEN strongly self-stabilizing for every ring size (local method).");
        } else {
            println!(
                "not established for all K by the local method; global checks up to K={to} shown above."
            );
        }
    }
    Ok(all_ok)
}
