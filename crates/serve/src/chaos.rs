//! Deterministic fault injection for the service — PR 3's [`ChaosPlan`]
//! lens turned on the daemon.
//!
//! A [`ServeChaos`] is a seeded, budgeted adversary consulted at the
//! service's own fault points:
//!
//! * **injected job panics** — [`ServeChaos::should_panic`] fires inside
//!   the pool closure's `catch_unwind` region, exercising the per-job
//!   retry-with-deterministic-backoff path and, when the retry budget is
//!   exhausted, the `failed` terminal state (journaled, so a failure is
//!   just as durable as a success);
//! * **torn responses** — [`ServeChaos::should_tear_response`] makes the
//!   connection handler write half the response bytes and slam the
//!   connection, exercising every client's retry path while proving the
//!   *job* behind the response is never lost (it completes and stays
//!   resolvable by id).
//!
//! Decisions are pure functions of `(seed, key, attempt)` under FNV-1a
//! with budgets derived from the seed, so a chaos run is replayable from
//! its seed alone. Kill-mid-job — the third fault class — cannot be
//! injected from inside the process; the CI crash drill provides it with
//! a literal `SIGKILL` and byte-diffs the replayed results against a
//! fault-free run.
//!
//! Surfaced by the hidden `selfstab serve --chaos SEED` flag.
//!
//! [`ChaosPlan`]: selfstab_campaign::ChaosPlan

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use selfstab_campaign::chaos::take;
use selfstab_core::hash::{fnv64, fnv64_words};

/// Shared mutable budgets (one set per server, shared by all handlers).
#[derive(Debug, Default)]
struct ChaosState {
    panics_left: AtomicU64,
    tears_left: AtomicU64,
}

/// A seeded, budgeted service-fault plan (see the module docs).
#[derive(Clone, Debug)]
pub struct ServeChaos {
    seed: u64,
    state: Arc<ChaosState>,
}

impl ServeChaos {
    /// A plan whose budgets derive from `seed`: up to 4 injected job
    /// panics and up to 3 torn responses per server lifetime.
    pub fn from_seed(seed: u64) -> Self {
        let panics = fnv64_words(&[seed, 0x0070_616e_6963]) % 5; // 0..=4
        let tears = fnv64_words(&[seed, 0x7465_6172]) % 4; // 0..=3
        ServeChaos::with_budgets(seed, panics, tears)
    }

    /// A plan with explicit budgets (test API).
    pub fn with_budgets(seed: u64, panics: u64, tears: u64) -> Self {
        ServeChaos {
            seed,
            state: Arc::new(ChaosState {
                panics_left: AtomicU64::new(panics),
                tears_left: AtomicU64::new(tears),
            }),
        }
    }

    /// Should this execution attempt of the job keyed `key` be killed by
    /// an injected panic? Roughly one attempt in two by seed hash, gated
    /// by the remaining panic budget — so retries eventually get through.
    pub fn should_panic(&self, key: &str, attempt: u32) -> bool {
        let h = fnv64_words(&[
            self.seed,
            0x0070_616e_6963,
            fnv64(key.bytes()),
            attempt as u64,
        ]);
        h.is_multiple_of(2) && take(&self.state.panics_left)
    }

    /// Should this response be torn mid-write? Decided per response by a
    /// seeded connection counter, gated by the tear budget.
    pub fn should_tear_response(&self, response_index: u64) -> bool {
        let h = fnv64_words(&[self.seed, 0x746f_726e, response_index]);
        h.is_multiple_of(3) && take(&self.state.tears_left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed_and_budgeted() {
        let a = ServeChaos::from_seed(7);
        let b = ServeChaos::from_seed(7);
        let keys: Vec<String> = (0..50).map(|i| format!("key-{i}")).collect();
        let fired_a: Vec<bool> = keys.iter().map(|k| a.should_panic(k, 0)).collect();
        let fired_b: Vec<bool> = keys.iter().map(|k| b.should_panic(k, 0)).collect();
        assert_eq!(fired_a, fired_b);
        assert!(fired_a.iter().filter(|&&f| f).count() <= 4);
        let tears = (0..100).filter(|&i| a.should_tear_response(i)).count();
        assert!(tears <= 3);
    }

    #[test]
    fn budgets_are_shared_across_clones() {
        let plan = ServeChaos::with_budgets(3, 1, 0);
        let clone = plan.clone();
        let fired = (0..100)
            .filter(|i| plan.should_panic("a", *i) || clone.should_panic("b", *i))
            .count();
        assert_eq!(fired, 1);
        assert!(!plan.should_tear_response(0));
    }

    #[test]
    fn retries_eventually_get_through_a_bounded_budget() {
        // With any finite panic budget, some attempt of every job
        // eventually executes: the budget strictly decreases per injection.
        let plan = ServeChaos::with_budgets(11, 4, 0);
        for job in 0..10 {
            let key = format!("job-{job}");
            let mut attempt = 0;
            while plan.should_panic(&key, attempt) {
                attempt += 1;
                assert!(attempt < 16, "budget must exhaust");
            }
        }
    }
}
