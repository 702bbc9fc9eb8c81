//! Pruning-invisibility over the spec corpus: for every `specs/*.stab`
//! and every worker-thread count, the pruned synthesis engine (what every
//! user surface runs) and the reference full enumeration
//! (`SynthesisConfig::prune = false`, reachable only from library code)
//! render the same `synthesize --json` bytes and agree on success.

use std::path::{Path, PathBuf};

use selfstab_global::CancelToken;
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
