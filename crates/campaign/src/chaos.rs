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
//! with FNV-1a and a final mixing step, plus bounded budgets derived from
//! the seed — so a chaos run is replayable from its seed and every plan
//! injects only finitely many faults. The invariant the property suite pins down: **interrupt
//! anywhere, resume, and the final report is byte-identical to the
//! fault-free run** (see `tests/chaos.rs`).
//!
//! The plan is surfaced two ways: the hidden `selfstab sweep --chaos
//! <seed>` flag (builds [`ChaosPlan::from_seed`]) and this test API.
//! Its budgeted core, [`FaultBudgets`], and the retry schedule,
//! [`retry_backoff`], are shared with the service's fault plan.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use selfstab_core::hash::{fnv64, fnv64_words};

/// The splitmix64 finalizer, applied to every FNV-1a hash before a
/// modulus. FNV-1a's multiply never carries high bits down, so the low
/// bits of its hash depend only on the low bits of each byte: a bare `% 2`
/// or `% 4` would give seeds that differ only above those bits (3 and 7,
/// say) the same faults.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash tags (ASCII `panic`, `cancel`) of decisions and budget draws.
const PANIC: u64 = 0x0070_616e_6963;
const CANCEL: u64 = 0x6361_6e63_656c;

/// Longest exponent of the retry backoff: `base · 2^min(attempt, CAP)`.
/// Caps the deterministic schedule so a large retry budget cannot
/// multiply the base into an overflow or an hours-long sleep.
const BACKOFF_EXPONENT_CAP: u32 = 6;

/// The delay before retry `attempt + 1` of a panicked job: a pure
/// function of the attempt index — no jitter, no clock in any recorded
/// artifact. The campaign runner and the service share it.
pub fn retry_backoff(base: Duration, attempt: u32) -> Duration {
    base * (1u32 << attempt.min(BACKOFF_EXPONENT_CAP))
}

/// The budgeted core of a seeded fault plan, shared by [`ChaosPlan`] and
/// the service's plan: a seed and two fault budgets that every clone
/// draws from (as the workers of one run do).
#[derive(Clone, Debug)]
pub struct FaultBudgets {
    seed: u64,
    left: Arc<[AtomicU64; 2]>,
}

impl FaultBudgets {
    /// Budgets drawn from `seed`: fault class `i` with draw `(tag, max)`
    /// gets `mix(fnv64_words([seed, tag])) % (max + 1)` injections.
    pub fn from_seed(seed: u64, draws: [(u64, u64); 2]) -> Self {
        FaultBudgets::new(
            seed,
            draws.map(|(tag, max)| mix(fnv64_words(&[seed, tag])) % (max + 1)),
        )
    }

    /// Explicit budgets per fault class.
    pub fn new(seed: u64, budgets: [u64; 2]) -> Self {
        FaultBudgets {
            seed,
            left: Arc::new(budgets.map(AtomicU64::new)),
        }
    }

    /// Does fault `class` fire at the point named by `words`? Fires when
    /// the mixed FNV-1a hash of `[seed, words…]` is a multiple of
    /// `one_in` and the class has budget left, which it then consumes.
    pub fn fire(&self, class: usize, one_in: u64, words: &[u64]) -> bool {
        let h = fnv64(
            std::iter::once(&self.seed)
                .chain(words)
                .flat_map(|w| w.to_le_bytes()),
        );
        mix(h).is_multiple_of(one_in)
            && self.left[class]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
    }
}

/// A seeded, budgeted fault-injection plan (see the module docs).
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Fire on every attempt of every job, ignoring hash and budget —
    /// the "always-panicking job" mode of the acceptance tests.
    always_panic: bool,
    /// Budget 0: injected panics; budget 1: forced cancellations.
    faults: FaultBudgets,
}

impl ChaosPlan {
    /// A plan whose budgets are derived from `seed`: up to 4 injected
    /// panics and up to 1 forced cancellation per run.
    pub fn from_seed(seed: u64) -> Self {
        ChaosPlan {
            always_panic: false,
            faults: FaultBudgets::from_seed(seed, [(PANIC, 4), (CANCEL, 1)]),
        }
    }

    /// A plan with explicit budgets (test API).
    pub fn with_budgets(seed: u64, panics: u64, cancels: u64) -> Self {
        ChaosPlan {
            always_panic: false,
            faults: FaultBudgets::new(seed, [panics, cancels]),
        }
    }

    /// A plan that panics every attempt of every job and never cancels —
    /// the adversary that pins down "exhausted retries degrade to a failed
    /// outcome instead of a pool abort".
    pub fn always_panic() -> Self {
        ChaosPlan {
            always_panic: true,
            faults: FaultBudgets::new(0, [0, 0]),
        }
    }

    /// Should this attempt of `(spec, k)` be killed by an injected panic?
    /// Decided by seed hash (roughly one attempt in three), gated by the
    /// plan's remaining panic budget.
    pub fn should_panic(&self, spec: &str, k: usize, attempt: u32) -> bool {
        let point = [PANIC, fnv64(spec.bytes()), k as u64, attempt as u64];
        self.always_panic || self.faults.fire(0, 3, &point)
    }

    /// Should reaching `(spec, k)` force-cancel the whole sweep (the chaos
    /// analogue of a SIGINT landing mid-run)? Decided by seed hash
    /// (roughly one job in four), gated by the cancel budget.
    pub fn should_cancel(&self, spec: &str, k: usize) -> bool {
        let point = [CANCEL, fnv64(spec.bytes()), k as u64];
        self.faults.fire(1, 4, &point)
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

        // Recorded from the build that mixes the hash before the modulus:
        // a plan's faults and retry delays are a fixed function of its
        // seed (seed 42 draws no panic budget and one cancel).
        let plan = ChaosPlan::from_seed(42);
        assert_eq!(
            decisions(&plan, false),
            "0000000000000000000000000000000000000000"
        );
        assert_eq!(
            decisions(&plan, true),
            "0000001000000000000000000000000000000000"
        );
        let unbudgeted = ChaosPlan::with_budgets(42, 40, 40);
        assert_eq!(
            decisions(&unbudgeted, false),
            "1000000011100111100100000110000000100000"
        );
        assert_eq!(
            decisions(&unbudgeted, true),
            "0000001111000000001000000010000100000000"
        );
        let delays: Vec<u64> = (0..=8)
            .map(|a| retry_backoff(Duration::from_millis(100), a).as_millis() as u64)
            .collect();
        assert_eq!(delays, [100, 200, 400, 800, 1600, 3200, 6400, 6400, 6400]);
    }

    /// `'1'` per fired decision, over the first 40 points of a fixed
    /// walk through `(spec, k, attempt)`.
    fn decisions(plan: &ChaosPlan, cancel: bool) -> String {
        (0..40usize)
            .map(|i| {
                let spec = format!("s{}.stab", i % 7);
                let fired = if cancel {
                    plan.should_cancel(&spec, i)
                } else {
                    plan.should_panic(&spec, i, (i % 3) as u32)
                };
                if fired {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }

    #[test]
    fn seeds_that_differ_above_the_low_bits_fire_differently() {
        // 3 and 7 differ only in bit 2; with the hash unmixed, `% 4` saw
        // the same low bits for both and fired identical cancels.
        let a = ChaosPlan::with_budgets(3, 40, 40);
        let b = ChaosPlan::with_budgets(7, 40, 40);
        assert_ne!(decisions(&a, true), decisions(&b, true));
        assert_ne!(decisions(&a, false), decisions(&b, false));
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
