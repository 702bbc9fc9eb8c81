//! Acceptance gate for the fused engine: on every protocol spec shipped in
//! `specs/`, the parallel engine must produce the *identical* convergence
//! report as the sequential one at every ring size `K ∈ 2..=8` — same
//! counts, same witness states, same ordering. The symmetry-reduced
//! engine is held to the same contract against the full scan at both
//! thread counts.

use std::path::PathBuf;

use selfstab_global::{check::ConvergenceReport, EngineConfig, RingInstance, SymmetryMode};
use selfstab_protocol::file::parse_protocol_file;

fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

fn spec_paths() -> Vec<PathBuf> {
    let dir = spec_dir();
    let mut specs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "stab"))
        .collect();
    specs.sort();
    assert!(
        specs.len() >= 10,
        "expected the ten shipped specs, found {}",
        specs.len()
    );
    specs
}

fn assert_reports_equal(a: &ConvergenceReport, b: &ConvergenceReport, ctx: &str) {
    assert_eq!(a.ring_size, b.ring_size, "{ctx}: ring_size");
    assert_eq!(a.state_count, b.state_count, "{ctx}: state_count");
    assert_eq!(a.legit_count, b.legit_count, "{ctx}: legit_count");
    assert_eq!(
        a.closure_violation, b.closure_violation,
        "{ctx}: closure_violation"
    );
    assert_eq!(
        a.illegitimate_deadlocks, b.illegitimate_deadlocks,
        "{ctx}: illegitimate_deadlocks"
    );
    assert_eq!(a.livelock, b.livelock, "{ctx}: livelock");
}

#[test]
fn parallel_matches_sequential_on_every_spec() {
    for path in &spec_paths() {
        let source = std::fs::read_to_string(path).unwrap();
        let protocol =
            parse_protocol_file(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for k in 2..=8 {
            let ring = RingInstance::symmetric(&protocol, k).unwrap();
            let seq = ConvergenceReport::check(&ring, &EngineConfig::sequential());
            let par = ConvergenceReport::check(&ring, &EngineConfig::with_threads(4));
            let ctx = format!("{} at K={k}", path.display());
            assert_reports_equal(&seq, &par, &ctx);
            // The fused sequential path must also agree with the plain
            // (unfused) reference formulation.
            assert_eq!(
                seq.legit_count,
                ring.space().ids().filter(|&s| ring.is_legit(s)).count() as u64,
                "{ctx}: legit_count vs reference"
            );
            assert_eq!(
                seq.illegitimate_deadlocks,
                selfstab_global::check::illegitimate_deadlocks(&ring),
                "{ctx}: deadlocks vs reference"
            );
        }
    }
}

/// The differential gate for the tentpole: on every shipped spec and every
/// `K ∈ 2..=8`, the symmetry-reduced engine must reproduce the full-scan
/// convergence report byte for byte — with the full scan running both
/// sequentially and on four threads.
#[test]
fn reduced_matches_full_on_every_spec() {
    for path in &spec_paths() {
        let source = std::fs::read_to_string(path).unwrap();
        let protocol =
            parse_protocol_file(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for k in 2..=8 {
            let ring = RingInstance::symmetric(&protocol, k).unwrap();
            let reduced = ConvergenceReport::check(
                &ring,
                &EngineConfig::sequential().with_symmetry(SymmetryMode::Reduced),
            );
            for threads in [1usize, 4] {
                let full = ConvergenceReport::check(
                    &ring,
                    &EngineConfig::with_threads(threads).with_symmetry(SymmetryMode::Full),
                );
                let ctx = format!("{} at K={k}, full threads={threads}", path.display());
                assert_reports_equal(&reduced, &full, &ctx);
            }
        }
    }
}
