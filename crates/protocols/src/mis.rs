//! Maximal independent set on a bidirectional ring.
//!
//! Each process decides membership `x_r ∈ {0, 1}`; the legitimate states
//! are exactly the maximal independent sets:
//!
//! ```text
//! LC_r = (x_r == 1 && x_{r-1} == 0 && x_{r+1} == 0)       // independent
//!      || (x_r == 0 && (x_{r-1} == 1 || x_{r+1} == 1))    // dominated
//! ```
//!
//! with the natural repair actions *enter* (join when both neighbors are
//! out) and *leave* (drop out on a conflict). A textbook self-stabilization
//! exercise that this toolkit fully certifies: the local deadlocks are
//! exactly the legitimate windows, so Theorem 4.2 holds trivially, and the
//! contiguous-livelock certificate passes; global model checking confirms
//! strong self-stabilization at every small size (see the crate tests).

use selfstab_protocol::{Domain, Locality, Protocol};

/// The legitimate-state predicate of the MIS protocol.
pub const MIS_LEGIT: &str = "(x[r] == 1 && x[r-1] == 0 && x[r+1] == 0) || \
                             (x[r] == 0 && (x[r-1] == 1 || x[r+1] == 1))";

/// The maximal-independent-set protocol with *enter*/*leave* repair.
pub fn maximal_independent_set() -> Protocol {
    Protocol::builder(
        "maximal-independent-set",
        Domain::numeric("x", 2),
        Locality::bidirectional(),
    )
    .action("x[r] == 0 && x[r-1] == 0 && x[r+1] == 0 -> x[r] := 1")
    .expect("static action parses")
    .action("x[r] == 1 && (x[r-1] == 1 || x[r+1] == 1) -> x[r] := 0")
    .expect("static action parses")
    .legit(MIS_LEGIT)
    .expect("static legit predicate parses")
    .build()
    .expect("static protocol builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_core::{
        deadlock::DeadlockAnalysis, livelock::LivelockAnalysis, local_closure_check,
    };
    use selfstab_global::{check, EngineConfig, RingInstance};

    #[test]
    fn deadlocks_are_exactly_the_legitimate_windows() {
        let p = maximal_independent_set();
        let dl = p.local_deadlocks();
        assert_eq!(dl.as_bitset(), p.legit().as_bitset());
        assert!(DeadlockAnalysis::analyze(&p).is_free_for_all_k());
    }

    #[test]
    fn certificate_and_closure() {
        let p = maximal_independent_set();
        assert!(local_closure_check(&p).is_ok());
        let la = LivelockAnalysis::analyze(&p);
        // Bidirectional: the certificate covers contiguous livelocks only,
        // and it passes.
        assert!(la.certified_free());
    }

    #[test]
    fn globally_self_stabilizing_at_small_sizes() {
        let p = maximal_independent_set();
        for k in 2..=7 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            let r = check::ConvergenceReport::check(&ring, &EngineConfig::default());
            assert!(r.self_stabilizing(), "K={k}: {r}");
        }
    }

    #[test]
    fn legitimate_configurations_are_maximal_independent_sets() {
        let p = maximal_independent_set();
        let ring = RingInstance::symmetric(&p, 5).unwrap();
        for s in ring.space().ids() {
            if !ring.is_legit(s) {
                continue;
            }
            let cfg = ring.space().decode(s);
            let k = cfg.len();
            for i in 0..k {
                let (l, r) = (cfg[(i + k - 1) % k], cfg[(i + 1) % k]);
                if cfg[i] == 1 {
                    assert_eq!((l, r), (0, 0), "independence at {i} in {cfg:?}");
                } else {
                    assert!(l == 1 || r == 1, "maximality at {i} in {cfg:?}");
                }
            }
        }
    }
}
