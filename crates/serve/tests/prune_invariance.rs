//! Engine-choice invisibility over the spec corpus. The engine picks its
//! own path, so every choice it can make must render the same bytes:
//!
//! * for every `specs/*.stab` and every worker-thread count, the pruned
//!   synthesis engine (what every user surface runs) and the reference
//!   full enumeration (`SynthesisConfig::prune = false`, reachable only
//!   from library code) render the same `synthesize --json` bytes and
//!   agree on success;
//! * for every `specs/*.stab` at K 2..=8 and every worker-thread count,
//!   the dense scan (`SymmetryMode::Full`) and the necklace-reduced scan
//!   (`SymmetryMode::Reduced`) render the same `check --json` bytes and
//!   agree on every verdict.

use std::path::{Path, PathBuf};

use selfstab_global::check::ConvergenceReport;
use selfstab_global::{CancelToken, EngineConfig, RingInstance, SymmetryMode};
use selfstab_protocol::file::parse_protocol_file;
use selfstab_serve::render;
use selfstab_synth::{LocalSynthesizer, SynthesisConfig};
use selfstab_telemetry::SynthesisCounters;

fn corpus() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut specs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("specs/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "stab"))
        .collect();
    specs.sort();
    specs
}

/// The `synthesize --json` document and the success bit of one run.
fn synthesize(spec: &Path, prune: bool, threads: usize) -> (String, bool) {
    let source = std::fs::read_to_string(spec).expect("spec reads");
    let protocol = parse_protocol_file(&source).expect("corpus spec parses");
    let config = SynthesisConfig {
        prune,
        threads,
        ..SynthesisConfig::default()
    };
    let counters = SynthesisCounters::new();
    // Every run ends in success or a declared failure, never in a
    // "cannot run" error or a cancellation.
    let outcome = LocalSynthesizer::new(config)
        .synthesize_metered(&protocol, &CancelToken::new(), Some(&counters), None)
        .unwrap_or_else(|e| panic!("{}: synthesis cannot run: {e}", spec.display()));
    assert!(!outcome.cancelled(), "{}", spec.display());
    let value = render::synthesis_outcome(&protocol, &outcome, &counters.snapshot());
    (render::synthesis_document(&value), outcome.is_success())
}

#[test]
fn pruned_and_full_synthesis_render_identically_over_the_corpus() {
    let specs = corpus();
    assert_eq!(specs.len(), 10, "the whole corpus: {specs:?}");
    for spec in &specs {
        for threads in [1, 2, 8] {
            let (pruned, pruned_ok) = synthesize(spec, true, threads);
            let (full, full_ok) = synthesize(spec, false, threads);
            assert_eq!(pruned_ok, full_ok, "{} threads={threads}", spec.display());
            assert_eq!(pruned, full, "{} threads={threads}", spec.display());
        }
    }
}

/// The `check --k 2 --to 8 --json` document and the per-K verdicts of one
/// spec under a pinned symmetry mode.
fn check(spec: &Path, symmetry: SymmetryMode, threads: usize) -> (String, Vec<bool>) {
    let source = std::fs::read_to_string(spec).expect("spec reads");
    let protocol = parse_protocol_file(&source).expect("corpus spec parses");
    let config = EngineConfig::with_threads(threads).with_symmetry(symmetry);
    let mut rows = Vec::new();
    let mut verdicts = Vec::new();
    for k in 2..=8 {
        let ring = RingInstance::symmetric(&protocol, k).expect("corpus instance fits");
        let report = ConvergenceReport::check(&ring, &config);
        verdicts.push(report.self_stabilizing());
        rows.push(render::convergence_report(&report));
    }
    (render::check_document(rows), verdicts)
}

#[test]
fn full_and_reduced_checks_render_identically_over_the_corpus() {
    let specs = corpus();
    assert_eq!(specs.len(), 10, "the whole corpus: {specs:?}");
    for spec in &specs {
        let (reference, reference_ok) = check(spec, SymmetryMode::Full, 1);
        for threads in [1, 2, 8] {
            for mode in [SymmetryMode::Full, SymmetryMode::Reduced] {
                let (doc, ok) = check(spec, mode, threads);
                let case = format!("{} {mode:?} threads={threads}", spec.display());
                assert_eq!(ok, reference_ok, "{case}");
                assert_eq!(doc, reference, "{case}");
            }
        }
    }
}
