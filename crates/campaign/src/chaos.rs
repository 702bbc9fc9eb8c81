//! Deterministic fault injection for the campaign runner.
//!
//! The paper's subject is recovery from transient faults; this module
//! turns that lens on the toolchain itself. A [`ChaosPlan`] is a seeded,
//! reproducible adversary that the runner consults at well-defined points:
//!
//! * **worker panics** — [`ChaosPlan::should_panic`] fires inside the
//!   runner's `catch_unwind` region, exercising panic isolation and the
//!   retry-with-backoff path;
//! * **forced cancellation** — [`ChaosPlan::should_cancel`] fires the
//!   campaign's interrupt token, exercising the same wind-down path as a
//!   SIGINT (journal sync, partial report, resumable exit);
//! * **torn writes** — [`ChaosPlan::truncate_journal`] chops the journal
//!   at a seeded byte offset *between* runs, exercising the framed
//!   journal's truncate-at-first-corruption replay.
//!
//! All decisions are pure functions of `(seed, spec, k, attempt)` hashed
//! with FNV-1a, plus bounded budgets derived from the seed — so a chaos
//! run is replayable from its seed and every plan injects only finitely
//! many faults. The invariant the property suite pins down: **interrupt
//! anywhere, resume, and the final report is byte-identical to the
//! fault-free run** (see `tests/chaos.rs`).
//!
//! The plan is surfaced two ways: the hidden `selfstab sweep --chaos
//! <seed>` flag (builds [`ChaosPlan::from_seed`]) and this test API.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use selfstab_core::hash::{fnv64, fnv64_words};

/// Mutable injection budgets, shared by every worker's view of the plan.
#[derive(Debug, Default)]
struct ChaosState {
    panics_left: AtomicU64,
    cancels_left: AtomicU64,
}

/// A seeded, budgeted fault-injection plan (see the module docs).
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    seed: u64,
    /// Fire on every attempt of every job, ignoring hash and budget —
    /// the "always-panicking job" mode of the acceptance tests.
    always_panic: bool,
    state: Arc<ChaosState>,
}

impl ChaosPlan {
    /// A plan whose budgets are derived from `seed`: up to 4 injected
    /// panics and up to 1 forced cancellation per run.
    pub fn from_seed(seed: u64) -> Self {
        let panics = fnv64_words(&[seed, 0x70616e6963]) % 5; // 0..=4
        let cancels = fnv64_words(&[seed, 0x63616e63656c]) % 2; // 0..=1
        ChaosPlan::with_budgets(seed, panics, cancels)
    }

    /// A plan with explicit budgets (test API).
    pub fn with_budgets(seed: u64, panics: u64, cancels: u64) -> Self {
        ChaosPlan {
            seed,
            always_panic: false,
            state: Arc::new(ChaosState {
                panics_left: AtomicU64::new(panics),
                cancels_left: AtomicU64::new(cancels),
            }),
        }
    }

    /// A plan that panics every attempt of every job and never cancels —
    /// the adversary that pins down "exhausted retries degrade to a failed
    /// outcome instead of a pool abort".
    pub fn always_panic() -> Self {
        ChaosPlan {
            seed: 0,
            always_panic: true,
            state: Arc::new(ChaosState::default()),
        }
    }

    /// Should this attempt of `(spec, k)` be killed by an injected panic?
    /// Decided by seed hash (roughly one attempt in three), gated by the
    /// plan's remaining panic budget.
    pub fn should_panic(&self, spec: &str, k: usize, attempt: u32) -> bool {
        if self.always_panic {
            return true;
        }
        let h = fnv64_words(&[
            self.seed,
            0x0070_616e_6963,
            fnv64(spec.bytes()),
            k as u64,
            attempt as u64,
        ]);
        h.is_multiple_of(3) && take(&self.state.panics_left)
    }

    /// Should reaching `(spec, k)` force-cancel the whole sweep (the chaos
    /// analogue of a SIGINT landing mid-run)? Decided by seed hash
    /// (roughly one job in four), gated by the cancel budget.
    pub fn should_cancel(&self, spec: &str, k: usize) -> bool {
        let h = fnv64_words(&[self.seed, 0x6361_6e63_656c, fnv64(spec.bytes()), k as u64]);
        h.is_multiple_of(4) && take(&self.state.cancels_left)
    }

    /// Torn-write injection: truncates the file at a seeded byte offset
    /// strictly inside its current length (a no-op on an empty file).
    /// Returns the new length.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from metadata/truncate.
    pub fn truncate_journal(path: &Path, seed: u64) -> std::io::Result<u64> {
        let len = std::fs::metadata(path)?.len();
        if len == 0 {
            return Ok(0);
        }
        let new_len = fnv64_words(&[seed, 0x746f_726e, len]) % len;
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(new_len)?;
        Ok(new_len)
    }
}

/// Consumes one unit of `budget` if any remains (shared with the
/// service's chaos plan).
pub fn take(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("selfstab-chaos-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_budgeted() {
        // Two plans with the same seed agree on every decision they have
        // budget for, and the budget bounds total injections.
        let jobs: Vec<(String, usize)> = (0..40).map(|i| (format!("s{}.stab", i % 7), i)).collect();
        let a = ChaosPlan::from_seed(42);
        let b = ChaosPlan::from_seed(42);
        let fired_a: Vec<bool> = jobs.iter().map(|(s, k)| a.should_panic(s, *k, 0)).collect();
        let fired_b: Vec<bool> = jobs.iter().map(|(s, k)| b.should_panic(s, *k, 0)).collect();
        assert_eq!(fired_a, fired_b);
        assert!(fired_a.iter().filter(|&&f| f).count() <= 4);
        let cancels = jobs.iter().filter(|(s, k)| a.should_cancel(s, *k)).count();
        assert!(cancels <= 1);
    }

    #[test]
    fn budgets_are_shared_across_clones() {
        // Clones share state (as the workers of one run do): the budget is
        // global to the plan, not per-clone.
        let plan = ChaosPlan::with_budgets(7, 1, 0);
        let clone = plan.clone();
        let mut fired = 0;
        for k in 0..100 {
            if plan.should_panic("x.stab", k, 0) || clone.should_panic("y.stab", k, 0) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn always_panic_ignores_budgets() {
        let plan = ChaosPlan::always_panic();
        for attempt in 0..10 {
            assert!(plan.should_panic("any.stab", 3, attempt));
        }
        assert!(!plan.should_cancel("any.stab", 3));
    }

    #[test]
    fn journal_truncation_is_seeded_and_in_bounds() {
        let path = tmp("truncate.bin");
        std::fs::write(&path, vec![0xAB; 1000]).unwrap();
        let a = ChaosPlan::truncate_journal(&path, 5).unwrap();
        assert!(a < 1000);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), a);
        // Truncating an empty file is a no-op.
        std::fs::write(&path, b"").unwrap();
        assert_eq!(ChaosPlan::truncate_journal(&path, 5).unwrap(), 0);
    }
}
