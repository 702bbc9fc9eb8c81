//! The ordered fan-out behind every parallel loop of the workspace.
//!
//! [`fan_out`] hands the indices `0..count` to scoped worker threads from
//! one shared atomic cursor, so indices are claimed in ascending order,
//! and returns the results in index order. Every claimed index runs to
//! completion, so the results always cover a contiguous prefix `0..m`:
//! all of `0..count`, unless the caller's stop predicate ended the claims
//! early. What an index *means* stays with the caller — the fused scan's
//! 64-aligned chunks, synthesis's candidate chunks and canonical-prefix
//! merge, the campaign's jobs with their journal and retries.
//!
//! **Panic isolation**: each index runs under `catch_unwind`. A panicking
//! index is recorded and its worker moves on, so every other index still
//! runs exactly once; the payload of the lowest panicking index is then
//! re-raised from the calling thread. Callers that want panics to become
//! data (the campaign runner does) catch them inside their own closure,
//! and this net never fires.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs `run(worker, &mut state, index)` for the indices `0..count` on
/// `threads` scoped workers and returns the results in index order.
///
/// Each worker starts from `S::default()` and keeps that state across all
/// the indices it claims. `stop` is consulted before every claim; once it
/// returns `true` the worker claims nothing more, and the result is the
/// prefix of indices claimed before that. `threads` of 0 or 1 (or a single
/// index) runs everything inline on the calling thread.
///
/// # Panics
///
/// If `run` panics for some index, every *other* claimed index still runs
/// to completion, and the payload of the lowest panicking index is then
/// re-raised from the calling thread.
pub fn fan_out<S, T, F>(
    threads: usize,
    count: usize,
    stop: impl Fn() -> bool + Sync,
    run: F,
) -> Vec<T>
where
    S: Default,
    T: Send,
    F: Fn(usize, &mut S, usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    let worker = |w: usize| {
        let mut state = S::default();
        while !stop() {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| run(w, &mut state, index))) {
                Ok(out) => {
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                }
                Err(payload) => {
                    let mut first = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                    if first.as_ref().is_none_or(|&(i, _)| index < i) {
                        *first = Some((index, payload));
                    }
                }
            }
        }
    };

    let workers = threads.clamp(1, count.max(1));
    if workers == 1 {
        worker(0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let worker = &worker;
                scope.spawn(move || worker(w));
            }
        });
    }

    if let Some((_, payload)) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map_while(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// `fan_out` without per-worker state or a stop predicate.
    fn run_all<T: Send>(threads: usize, count: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
        fan_out(threads, count, || false, |_w, _s: &mut (), i| run(i))
    }

    #[test]
    fn every_job_runs_exactly_once_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let counter = AtomicUsize::new(0);
            let results = run_all(threads, 23, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i * 10
            });
            assert_eq!(counter.load(Ordering::Relaxed), 23, "threads={threads}");
            assert_eq!(
                results,
                (0..23).map(|i| i * 10).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn uneven_loads_drain() {
        // One slow index holds its worker; the others drain the rest.
        let results = run_all(4, 16, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            i
        });
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_and_zero_jobs_are_fine() {
        assert!(run_all(0, 0, |i| i).is_empty());
        assert!(run_all(4, 0, |i| i).is_empty());
        assert_eq!(run_all(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn each_worker_keeps_its_own_state() {
        // The state a worker threads through its indices is its own: the
        // per-worker tallies add up to the index count, and every worker
        // index is below the thread count.
        for threads in [1, 3] {
            let out = fan_out(
                threads,
                40,
                || false,
                |w, seen: &mut usize, _i| {
                    *seen += 1;
                    (w, *seen)
                },
            );
            assert_eq!(out.len(), 40);
            let mut last = vec![0usize; threads];
            for &(w, seen) in &out {
                assert!(w < threads, "worker {w} of {threads}");
                last[w] = last[w].max(seen);
            }
            assert_eq!(last.iter().sum::<usize>(), 40, "threads={threads}");
        }
    }

    #[test]
    fn a_stop_that_flips_mid_run_leaves_a_contiguous_prefix() {
        for threads in [1, 2, 4] {
            let done = AtomicUsize::new(0);
            let out = fan_out(
                threads,
                100,
                || done.load(Ordering::Relaxed) >= 10,
                |_w, _s: &mut (), i| {
                    done.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            // Every index claimed before the flip completes, so the
            // result is the prefix 0..m with m at least the threshold.
            assert!(out.len() >= 10, "threads={threads}: {}", out.len());
            assert!(out.len() < 100, "threads={threads}: stopped early");
            assert_eq!(out, (0..out.len()).collect::<Vec<_>>(), "threads={threads}");
            if threads == 1 {
                assert_eq!(out.len(), 10, "inline runs stop exactly at the flip");
            }
        }
    }

    #[test]
    fn a_panicking_job_does_not_poison_its_siblings() {
        // Indices 7 and 11 panic; every other index still runs exactly
        // once, on every pool size (including the single inline worker),
        // and the lower index's payload resurfaces from the calling thread.
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_all(threads, 23, |i| {
                    if i == 7 || i == 11 {
                        panic!("job {i} exploded");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                })
            }))
            .expect_err("the stashed panic re-raises after the drain");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                21,
                "threads={threads}: all surviving indices ran"
            );
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("job 7 exploded"),
                "threads={threads}: the lowest index's payload"
            );
        }
    }
}
