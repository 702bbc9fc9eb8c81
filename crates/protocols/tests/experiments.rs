//! Per-experiment reproduction tests: one test per figure/claim of the
//! paper (the E1–E13 index of DESIGN.md). Each test states what the paper
//! reports and checks what this implementation establishes — including the
//! two places where global model checking shows the paper's own claims to
//! be wrong (E3 and E11; see EXPERIMENTS.md).

use selfstab_core::{
    deadlock::DeadlockAnalysis, livelock::LivelockAnalysis, local_closure_check, ltg::Ltg,
    rcg::Rcg, report::StabilizationReport,
};
use selfstab_global::{
    check,
    schedule::{dependent_pairs, equivalent_schedules, Schedule},
    EngineConfig, RingInstance,
};
use selfstab_protocol::LocalTransition;
use selfstab_protocols::{agreement, coloring, dijkstra, matching, sum_not_two};
use selfstab_synth::{GlobalSynthesizer, LocalSynthesizer, SynthesisConfig};

/// E1 (Fig. 1): the RCG of maximal matching spans all 27 local states with
/// 3 right continuations each.
#[test]
fn e1_matching_rcg_structure() {
    let p = matching::matching_empty();
    let rcg = Rcg::build(&p);
    assert_eq!(rcg.graph().vertex_count(), 27);
    assert_eq!(rcg.graph().arc_count(), 81);
    for s in p.space().ids() {
        assert_eq!(rcg.continuations(s).count(), 3);
    }
    // The DOT rendering distinguishes the 7 legitimate states.
    let dot = rcg.to_dot(&p, "fig1", None);
    assert_eq!(dot.matches("lightgray").count(), 27 - 7);
}

/// E2 (Fig. 2 / Example 4.2): the generalizable matching protocol is
/// deadlock-free for every K by Theorem 4.2; globally self-stabilizing at
/// the paper's model-checked sizes 5..=8 (and 3, 4).
#[test]
fn e2_generalizable_matching() {
    let p = matching::matching_generalizable();
    let da = DeadlockAnalysis::analyze(&p);
    assert!(da.is_free_for_all_k(), "{da}");
    assert!(local_closure_check(&p).is_ok());
    for k in 3..=8 {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let report = check::ConvergenceReport::check(&ring, &EngineConfig::default());
        assert!(report.self_stabilizing(), "K={k}: {report}");
    }
}

/// E3 (Fig. 3 / Example 4.3): the non-generalizable matching protocol has
/// RCG witness cycles of lengths exactly 4 and 6 through ⟨left,left,self⟩;
/// resolving that one local deadlock restores deadlock-freedom for all K.
///
/// **Erratum**: the paper concludes deadlock-freedom for every K not
/// divisible by 4 or 6 ("two-thirds of the family of rings"), but ring
/// sizes are realized by closed *walks* of the deadlock-induced RCG, not
/// only simple cycles: combining the 4-cycle with legitimate-deadlock
/// detours yields deadlocks at K = 7 and every K ≥ 6 (global model
/// checking confirms, e.g. `llsrlsr` at K = 7). The protocol is deadlock-
/// free only for K ∈ {1, 2, 3, 5}.
#[test]
fn e3_non_generalizable_matching() {
    let p = matching::matching_non_generalizable();
    let da = DeadlockAnalysis::analyze(&p);
    assert!(!da.is_free_for_all_k());
    assert!(!da.witnesses_truncated());

    // Witness simple cycles: lengths exactly {4, 6}, all through lls.
    let mut lens: Vec<usize> = da.witnesses().iter().map(|w| w.base_ring_size).collect();
    lens.sort_unstable();
    lens.dedup();
    assert_eq!(lens, vec![4, 6]);
    let lls = p.space().encode(&[0, 0, 2]);
    for w in da.witnesses() {
        assert!(
            w.cycle.contains(&lls),
            "every bad cycle passes through ⟨l,l,s⟩"
        );
    }

    // Exact deadlocked ring sizes (closed-walk DP) vs global ground truth.
    let sizes = da.deadlocked_ring_sizes(8);
    assert_eq!(sizes, vec![4, 6, 7, 8]);
    for k in 3..=8 {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let global = !check::illegitimate_deadlocks(&ring).is_empty();
        assert_eq!(sizes.contains(&k), global, "mismatch at K={k}");
    }

    // Resolving ⟨left,left,self⟩ renders the protocol deadlock-free for
    // every K (the paper's repair).
    let fixed = p
        .with_added_transitions("fixed", [LocalTransition::new(lls, 1)])
        .unwrap();
    assert!(DeadlockAnalysis::analyze(&fixed).is_free_for_all_k());
}

/// E4 (Fig. 4): the LTG of the generalizable matching protocol carries the
/// full continuation relation as s-arcs plus one t-arc per local
/// transition.
#[test]
fn e4_ltg_of_generalizable_matching() {
    let p = matching::matching_generalizable();
    let ltg = Ltg::build(&p);
    assert_eq!(ltg.s_arcs().arc_count(), 81);
    assert_eq!(ltg.transitions().len(), p.transition_count());
    let dot = ltg.to_dot(&p, "fig4");
    assert!(dot.contains("label=\"t\""));
    assert!(dot.contains("label=\"s\""));
}

/// E5 (Figs. 5–6 / Example 5.2): the binary-agreement livelock at K = 4
/// admits exactly 8 precedence-preserving permutations, each of which
/// replays as a livelock.
#[test]
fn e5_agreement_precedence_class() {
    let p = agreement::binary_agreement_both();
    let ring = RingInstance::symmetric(&p, 4).unwrap();
    let cycle: Vec<_> = [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 1],
        [0, 0, 1, 1],
        [1, 0, 1, 1],
        [1, 0, 0, 1],
    ]
    .iter()
    .map(|w| ring.space().encode(w))
    .collect();
    for &s in &cycle {
        assert!(!ring.is_legit(s));
    }
    let sch = Schedule::from_cycle(&ring, &cycle);
    assert!(sch.is_cyclic(&ring));
    let class = equivalent_schedules(&ring, &sch, 1000);
    assert_eq!(class.len(), 8, "2^3 precedence-preserving permutations");
    for s in &class {
        assert!(s.is_cyclic(&ring));
    }
    // The dependence relation keeps same-process moves ordered (Fig. 5).
    let deps = dependent_pairs(&ring, &sch);
    assert!(!deps.is_empty());
}

/// E6 (Fig. 7 / Lemma 5.5): livelocks on unidirectional rings conserve the
/// number of enabled processes; the Gouda–Acharya fragment exhibits
/// |E| = 1 at K = 3, 5 and |E| = 2 at K = 4, 6.
#[test]
fn e6_enablement_conservation() {
    let p = matching::gouda_acharya_fragment();
    let mut es = Vec::new();
    for k in 3..=6 {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let cycle = check::find_livelock(&ring).expect("fragment livelocks at K>=3");
        let e = check::livelock_enablement_count(&ring, &cycle)
            .expect("Lemma 5.5: constant enablement count");
        es.push(e);
    }
    assert_eq!(es, vec![1, 2, 1, 2]);
}

/// E7 (Fig. 8): the Gouda–Acharya matching fragment livelocks at K = 5
/// (the paper's ≪lslsl, …≫, 10 global transitions, |E| = 1) and its LTG
/// contains the corresponding contiguous trail, so Theorem 5.14 cannot
/// certify it.
#[test]
fn e7_gouda_acharya_livelock() {
    let p = matching::gouda_acharya_fragment();
    // The paper's explicit K=5 livelock replays.
    let ring = RingInstance::symmetric(&p, 5).unwrap();
    let l = |s: &str| {
        let cfg: Vec<u8> = s
            .bytes()
            .map(|b| match b {
                b'l' => 0,
                b'r' => 1,
                _ => 2,
            })
            .collect();
        ring.space().encode(&cfg)
    };
    // The first step of the paper's livelock: from lslsl, P_0 (reading
    // m_4 = left, m_0 = left) executes t_ls, reaching sslsl.
    let start = l("lslsl");
    assert!(!ring.is_legit(start));
    assert!(ring.successors(start).contains(&l("sslsl")));
    let found = check::find_livelock(&ring).expect("K=5 livelock exists");
    assert_eq!(
        check::livelock_enablement_count(&ring, &found),
        Some(1),
        "|E| = 1 as the paper shows"
    );
    // Local side: the certificate correctly refuses to certify.
    let la = LivelockAnalysis::analyze(&p);
    assert!(!la.certified_free());
    assert!(la.trail().is_some());
}

/// E8 (Fig. 9 / §6.1): 3-coloring synthesis fails — all 8 candidate sets
/// form pseudo-livelocks participating in contiguous trails — and the
/// failure is genuine: every candidate livelocks globally (each already at
/// K = 3 or K = 4).
#[test]
fn e8_three_coloring_failure_is_genuine() {
    let p = coloring::three_coloring_empty();
    let out = LocalSynthesizer::default().synthesize(&p).unwrap();
    assert!(!out.is_success());
    assert_eq!(out.combinations_tried(), 8);
    assert_eq!(out.rejected_by_trail(), 8);

    for a in [1u8, 2] {
        for b in [0u8, 2] {
            for c in [0u8, 1] {
                let cand = coloring::three_coloring_candidate([a, b, c]).unwrap();
                let mut livelocked = false;
                for k in 3..=4 {
                    let ring = RingInstance::symmetric(&cand, k).unwrap();
                    if check::find_livelock(&ring).is_some() {
                        livelocked = true;
                    }
                }
                assert!(livelocked, "candidate t0{a},t1{b},t2{c} should livelock");
            }
        }
    }
}

/// E9 (Fig. 10 / §6.2): agreement synthesis succeeds with `Resolve = {01}`
/// or `{10}` and exactly one t-arc; both solutions are globally
/// self-stabilizing at K = 2..=10; including *both* t-arcs is rejected and
/// indeed livelocks.
#[test]
fn e9_agreement_synthesis() {
    let p = agreement::binary_agreement_empty();
    let out = LocalSynthesizer::default().synthesize(&p).unwrap();
    assert_eq!(out.solutions().len(), 2);
    for s in out.solutions() {
        assert!(selfstab_synth::global::verify_up_to(&s.protocol, 10).is_ok());
    }
    // The named library protocols match the synthesized ones.
    for lib in [
        agreement::binary_agreement_one_sided(),
        agreement::binary_agreement_other_sided(),
    ] {
        assert!(StabilizationReport::analyze(&lib).is_self_stabilizing_for_all_k());
    }
    let both = agreement::binary_agreement_both();
    assert!(!LivelockAnalysis::analyze(&both).certified_free());
    let ring = RingInstance::symmetric(&both, 4).unwrap();
    assert!(check::find_livelock(&ring).is_some());
}

/// E10 (Fig. 11 / §6.2): 2-coloring must resolve both monochromatic
/// deadlocks, the resulting trail blocks the certificate — and correctly
/// so: the resolved protocol livelocks on even rings, while odd rings have
/// no legitimate state at all (consistent with the impossibility [25]).
#[test]
fn e10_two_coloring_inconclusive() {
    let p = coloring::two_coloring_empty();
    let out = LocalSynthesizer::default().synthesize(&p).unwrap();
    assert!(!out.is_success());

    let resolved = coloring::two_coloring_resolved();
    assert!(DeadlockAnalysis::analyze(&resolved).is_free_for_all_k());
    assert!(!LivelockAnalysis::analyze(&resolved).certified_free());
    for k in [4usize, 6] {
        let ring = RingInstance::symmetric(&resolved, k).unwrap();
        assert!(
            check::find_livelock(&ring).is_some(),
            "even K={k} livelocks"
        );
    }
    for k in [3usize, 5] {
        let ring = RingInstance::symmetric(&resolved, k).unwrap();
        let legit = ring.space().ids().filter(|&s| ring.is_legit(s)).count();
        assert_eq!(legit, 0, "odd rings admit no legitimate state");
    }
}

/// E11 (Fig. 12 / §6.2): sum-not-two synthesis succeeds; the paper's
/// accepted candidate {t21, t12, t01} is globally self-stabilizing at
/// every checked size, and the trail of the rejected candidate
/// {t21, t10, t02} does not correspond to a real livelock (sufficiency
/// gap).
///
/// **Erratum**: the paper claims the remaining six candidates are all
/// acceptable, but {t20, t10, t02} and {t20, t12, t02} livelock at every
/// K ≥ 3; this implementation's trail search rejects exactly the four
/// unsound-or-unprovable candidates.
#[test]
fn e11_sum_not_two() {
    let p = sum_not_two::sum_not_two_empty();
    let out = LocalSynthesizer::default().synthesize(&p).unwrap();
    assert!(out.is_success());
    assert_eq!(out.combinations_tried(), 8);
    assert_eq!(out.rejected_by_trail(), 4);
    for s in out.solutions() {
        assert!(selfstab_synth::global::verify_up_to(&s.protocol, 7).is_ok());
    }

    // The paper's guarded-command solution is among the accepted ones and
    // verifies globally.
    let sol = sum_not_two::sum_not_two_solution();
    assert!(StabilizationReport::analyze(&sol).is_self_stabilizing_for_all_k());
    assert!(selfstab_synth::global::verify_up_to(&sol, 8).is_ok());

    // Sufficiency gap: {t21, t10, t02} is rejected by the trail check but
    // has no real livelock at any checked size.
    let gap = sum_not_two::sum_not_two_candidate(1, 0, 2).unwrap();
    assert!(!LivelockAnalysis::analyze(&gap).certified_free());
    for k in 2..=8 {
        let ring = RingInstance::symmetric(&gap, k).unwrap();
        assert!(
            check::find_livelock(&ring).is_none(),
            "gap candidate livelocks at K={k}?"
        );
    }

    // Erratum: {t20, t10, t02} and {t20, t12, t02} really livelock.
    for cand in [
        sum_not_two::sum_not_two_candidate(0, 0, 2).unwrap(),
        sum_not_two::sum_not_two_candidate(0, 2, 2).unwrap(),
    ] {
        assert!(!LivelockAnalysis::analyze(&cand).certified_free());
        let ring = RingInstance::symmetric(&cand, 3).unwrap();
        assert!(check::find_livelock(&ring).is_some());
    }
}

/// E12 companion: the global baseline synthesizer at K = 2 accepts the
/// sum-not-two trap candidate that breaks at K = 3 — the
/// non-generalizability phenomenon the local method avoids.
#[test]
fn e12_global_baseline_non_generalizable() {
    let p = sum_not_two::sum_not_two_empty();
    let out = GlobalSynthesizer::new(2, SynthesisConfig::default())
        .synthesize(&p)
        .unwrap();
    let trap: Vec<LocalTransition> = sum_not_two::sum_not_two_candidate(0, 0, 2)
        .unwrap()
        .transitions()
        .collect();
    assert!(out.solutions().iter().any(|s| {
        let mut a = s.added.clone();
        a.sort_unstable();
        a == trap
    }));
    // Every local solution is also accepted by the baseline.
    let local = LocalSynthesizer::default().synthesize(&p).unwrap();
    for s in local.solutions() {
        let mut a = s.added.clone();
        a.sort_unstable();
        assert!(out.solutions().iter().any(|g| {
            let mut b = g.added.clone();
            b.sort_unstable();
            a == b
        }));
    }
}

/// E13: Dijkstra's K-state token ring strongly converges to the one-token
/// states (for m ≥ K) although its actions corrupt — the paper's §5
/// motivating remark. The one-token predicate is not locally conjunctive,
/// so the `*_where` global checks are used.
#[test]
fn e13_dijkstra_token_ring() {
    for (k, m) in [(3usize, 3usize), (4, 4), (4, 5)] {
        let ps = dijkstra::dijkstra_processes(k, m);
        let refs: Vec<&selfstab_protocol::Protocol> = ps.iter().collect();
        let ring = RingInstance::heterogeneous(&refs, 1 << 24).unwrap();
        let legit =
            |s: selfstab_global::GlobalStateId| dijkstra::token_count(&ring.space().decode(s)) == 1;
        assert!(
            check::illegitimate_deadlocks_where(&ring, legit).is_empty(),
            "token ring deadlocked at k={k},m={m}"
        );
        assert!(
            check::find_livelock_where(&ring, legit).is_none(),
            "token ring livelocked at k={k},m={m}"
        );
        assert!(
            check::closure_violations_where(&ring, legit).is_empty(),
            "one-token set not closed at k={k},m={m}"
        );
    }
    // Negative control: with m = 2 < K = 4 convergence fails (livelock
    // among multi-token states).
    let ps = dijkstra::dijkstra_processes(4, 2);
    let refs: Vec<&selfstab_protocol::Protocol> = ps.iter().collect();
    let ring = RingInstance::heterogeneous(&refs, 1 << 24).unwrap();
    let legit =
        |s: selfstab_global::GlobalStateId| dijkstra::token_count(&ring.space().decode(s)) == 1;
    assert!(check::find_livelock_where(&ring, legit).is_some());
}
