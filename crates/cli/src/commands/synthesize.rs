//! `selfstab synthesize <file.stab> [--first] [--threads N] [--json]
//! [--metrics FILE]` — the Section 6 local synthesis methodology on the
//! streaming parallel engine (monotone lattice pruning always on).
//!
//! Exit codes follow the verification convention: 0 when synthesis
//! succeeds, 1 on usage/IO errors, 2 when the methodology ran and declared
//! failure (no candidate passes the livelock conditions).

use selfstab_global::CancelToken;
use selfstab_protocol::file::render_protocol_file;
use selfstab_synth::{LocalSynthesizer, SynthesisConfig};
use selfstab_telemetry::{logger, SynthesisCounters};

use crate::args::{load_protocol, Args};
use crate::json;

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "first json verbose quiet", "threads metrics")?;
    logger::set_level_from_flags(args.flag("verbose"), args.flag("quiet"), false);
    let protocol = load_protocol(&args)?;
    let threads = args.get_usize("threads", 1)?;
    if threads == 0 {
        return Err("option --threads expects a positive number".into());
    }
    let config = SynthesisConfig {
        max_solutions: if args.flag("first") { 1 } else { 64 },
        threads,
        ..SynthesisConfig::default()
    };

    let counters = SynthesisCounters::new();
    let outcome = LocalSynthesizer::new(config)
        .synthesize_metered(&protocol, &CancelToken::new(), Some(&counters), None)
        .map_err(|e| format!("synthesis cannot run: {e}"))?;
    logger::info(format!(
        "explored {} resolve set(s), {} candidate combination(s); {} rejected by the trail check{}",
        outcome.resolve_sets_tried(),
        outcome.combinations_tried(),
        outcome.rejected_by_trail(),
        if outcome.truncated() {
            " (truncated)"
        } else {
            ""
        },
    ));

    if let Some(path) = args.get("metrics") {
        // The metrics sidecar is the one place the scheduling-dependent
        // counters (cancel_polls and the pruning tallies) are written out;
        // `--json` stays byte-identical across thread counts, so it
        // cannot carry them.
        let snap = counters.snapshot();
        let doc = serde_json::json!({
            "protocol": protocol.name(),
            "threads": threads,
            "counters": {
                "resolve_sets_examined": snap.resolve_sets_examined,
                "combinations_tried": snap.combinations_tried,
                "rejected_invalid": snap.rejected_invalid,
                "rejected_by_deadlock": snap.rejected_by_deadlock,
                "rejected_by_trail": snap.rejected_by_trail,
                "solutions_found": snap.solutions_found,
                "cancel_polls": snap.cancel_polls,
                "cones_cut": snap.cones_cut,
                "candidates_skipped": snap.candidates_skipped,
                "delta_reuses": snap.delta_reuses,
            },
        });
        let text = format!("{:#}\n", doc);
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        logger::info(format!("wrote the full counter snapshot to {path}"));
    }

    if args.flag("json") {
        let value = json::synthesis_outcome(&protocol, &outcome, &counters.snapshot());
        print!("{}", selfstab_serve::render::synthesis_document(&value));
        if !outcome.is_success() {
            logger::warn(
                "synthesis failed: no candidate passes the livelock conditions \
                 (the methodology declares failure, as for 2- and 3-coloring)",
            );
        }
        return Ok(outcome.is_success());
    }

    if !outcome.is_success() {
        logger::warn(
            "synthesis failed: no candidate passes the livelock conditions \
             (the methodology declares failure, as for 2- and 3-coloring)",
        );
        return Ok(false);
    }

    for (i, s) in outcome.solutions().iter().enumerate() {
        println!(
            "# solution {} ({:?}; resolves {} local deadlock(s))",
            i + 1,
            s.verdict,
            s.resolve.len()
        );
        println!("{}", render_protocol_file(&s.protocol));
    }
    logger::info(format!(
        "{} solution(s); each is strongly self-stabilizing for EVERY ring size",
        outcome.solutions().len()
    ));
    Ok(true)
}
