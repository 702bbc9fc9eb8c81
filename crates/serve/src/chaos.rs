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
//! with budgets derived from the seed — the campaign's budgeted core,
//! [`FaultBudgets`] — so a chaos run is replayable from its seed alone.
//! Kill-mid-job — the third fault class — cannot be injected from inside
//! the process; the CI crash drill provides it with a literal `SIGKILL`
//! and byte-diffs the replayed results against a fault-free run.
//!
//! Surfaced by the hidden `selfstab serve --chaos SEED` flag.
//!
//! [`ChaosPlan`]: selfstab_campaign::ChaosPlan

use selfstab_campaign::chaos::FaultBudgets;
use selfstab_core::hash::fnv64;

/// Hash tag of panic decisions and of the panic budget draw.
const PANIC: u64 = 0x0070_616e_6963;

/// A seeded, budgeted service-fault plan (see the module docs). Clones
/// share one set of budgets, as every handler of one server does.
#[derive(Clone, Debug)]
pub struct ServeChaos {
    /// Budget 0: injected job panics; budget 1: torn responses.
    faults: FaultBudgets,
}

impl ServeChaos {
    /// A plan whose budgets derive from `seed`: up to 4 injected job
    /// panics and up to 3 torn responses per server lifetime.
    pub fn from_seed(seed: u64) -> Self {
        ServeChaos {
            faults: FaultBudgets::from_seed(seed, [(PANIC, 4), (0x7465_6172, 3)]),
        }
    }

    /// A plan with explicit budgets (test API).
    pub fn with_budgets(seed: u64, panics: u64, tears: u64) -> Self {
        ServeChaos {
            faults: FaultBudgets::new(seed, [panics, tears]),
        }
    }

    /// Should this execution attempt of the job keyed `key` be killed by
    /// an injected panic? Roughly one attempt in two by seed hash, gated
    /// by the remaining panic budget — so retries eventually get through.
    pub fn should_panic(&self, key: &str, attempt: u32) -> bool {
        let point = [PANIC, fnv64(key.bytes()), attempt as u64];
        self.faults.fire(0, 2, &point)
    }

    /// Should this response be torn mid-write? Decided per response by a
    /// seeded connection counter, gated by the tear budget.
    pub fn should_tear_response(&self, response_index: u64) -> bool {
        self.faults.fire(1, 3, &[0x746f_726e, response_index])
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

        // Recorded from the build that mixes the hash before the modulus:
        // a plan's faults and retry delays are a fixed function of its
        // seed (seed 42 draws no panic budget and one tear).
        let plan = ServeChaos::from_seed(42);
        assert_eq!(
            decisions(&plan, false),
            "0000000000000000000000000000000000000000"
        );
        assert_eq!(
            decisions(&plan, true),
            "0010000000000000000000000000000000000000"
        );
        let unbudgeted = ServeChaos::with_budgets(42, 40, 40);
        assert_eq!(
            decisions(&unbudgeted, false),
            "1111101101011001110000110001100100110011"
        );
        assert_eq!(
            decisions(&unbudgeted, true),
            "0010000101101010100011000111010000010111"
        );
        // The service's default 50 ms base, through the shared schedule.
        let delays: Vec<u64> = (0..=8)
            .map(|a| {
                selfstab_campaign::chaos::retry_backoff(std::time::Duration::from_millis(50), a)
                    .as_millis() as u64
            })
            .collect();
        assert_eq!(delays, [50, 100, 200, 400, 800, 1600, 3200, 3200, 3200]);
    }

    /// `'1'` per fired decision over the first 40 panic points
    /// (`key-i`, attempt `i % 3`) or response indices.
    fn decisions(plan: &ServeChaos, tear: bool) -> String {
        (0..40u32)
            .map(|i| {
                let fired = if tear {
                    plan.should_tear_response(u64::from(i))
                } else {
                    plan.should_panic(&format!("key-{i}"), i % 3)
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
        // 42 and 1234 agree in their low bit; with the hash unmixed, the
        // `% 2` panic decision saw only that bit and fired identically.
        let a = ServeChaos::with_budgets(42, 40, 40);
        let b = ServeChaos::with_budgets(1234, 40, 40);
        assert_ne!(decisions(&a, false), decisions(&b, false));
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
