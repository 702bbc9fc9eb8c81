//! The persistent service pool behind `selfstab serve`.
//!
//! Batch callers (the campaign runner) fan their jobs out with
//! [`selfstab_global::fan_out`] and return once it drains; a long-running
//! daemon instead needs workers that outlive any one submission.
//! [`ServicePool`] is that persistent pool: jobs arrive over time through
//! [`ServicePool::submit`], each returning a [`JobHandle`] the caller can
//! poll or block on. A panicking job resolves its own handle to an error
//! and the workers march on.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use selfstab_telemetry::{Histogram, Registry};

/// The terminal state of a [`JobHandle`]: the job's value, or the
/// rendered panic payload if the job crashed (isolated to this handle —
/// the worker survives), or a note that the pool shut down before the job
/// could run.
pub type JobOutput<T> = Result<T, String>;

/// Shared completion cell between one submitted job and its handle.
struct HandleCell<T> {
    slot: Mutex<Option<JobOutput<T>>>,
    ready: Condvar,
}

/// The caller's view of one submitted job: poll with
/// [`JobHandle::try_take`] / [`JobHandle::is_finished`], or block with
/// [`JobHandle::wait`]. Dropping the handle is fine — the job still runs;
/// nobody observes the result.
pub struct JobHandle<T> {
    cell: Arc<HandleCell<T>>,
}

impl<T> JobHandle<T> {
    /// `true` once the job has finished (or failed, or was refused).
    pub fn is_finished(&self) -> bool {
        self.cell.slot.lock().expect("handle poisoned").is_some()
    }

    /// Takes the output if the job has finished; `None` while in flight.
    /// The output can be taken exactly once.
    pub fn try_take(&self) -> Option<JobOutput<T>> {
        self.cell.slot.lock().expect("handle poisoned").take()
    }

    /// Blocks until the job finishes and returns its output.
    pub fn wait(self) -> JobOutput<T> {
        let mut slot = self.cell.slot.lock().expect("handle poisoned");
        loop {
            if let Some(out) = slot.take() {
                return out;
            }
            slot = self.cell.ready.wait(slot).expect("handle poisoned");
        }
    }
}

/// What the service queue holds and guards.
struct ServiceQueueState {
    jobs: VecDeque<Box<dyn FnOnce() + Send>>,
    /// Once set, submissions are refused; workers drain the queue (every
    /// already-accepted job still runs) and then exit.
    draining: bool,
}

struct ServiceShared {
    state: Mutex<ServiceQueueState>,
    available: Condvar,
    /// Jobs whose closure actually started executing on a worker. The
    /// cache layer above asserts on this: a memoized request must *not*
    /// move it. When the pool has a registry this *is* the registry's
    /// `pool/executed` counter, so metric snapshots see it too.
    executed: Arc<AtomicU64>,
    /// Queue depth observed at each submit (after the push); `None` when
    /// the pool runs without a registry.
    queue_depth: Option<Arc<Histogram>>,
}

/// A persistent work pool for long-running services: `workers` threads
/// accept closures over time and run them to completion, isolating
/// panics per job. Unlike a batch fan-out, which is handed every job up
/// front and then *drains*, this pool lives until
/// [`ServicePool::shutdown`], so a daemon can keep queueing requests onto
/// the same threads for its whole lifetime. Submissions arrive one at a
/// time into a single FIFO queue, which keeps request latency fair.
pub struct ServicePool {
    shared: Arc<ServiceShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServicePool {
    /// A pool of `workers` threads (0 is treated as 1).
    pub fn new(workers: usize) -> Self {
        Self::with_registry(workers, None)
    }

    /// A pool whose queue depth and executed-job count land in `registry`
    /// as `pool/queue_depth` and `pool/executed`.
    pub fn with_registry(workers: usize, registry: Option<&Registry>) -> Self {
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(ServiceQueueState {
                jobs: VecDeque::new(),
                draining: false,
            }),
            available: Condvar::new(),
            executed: registry
                .map(|r| r.counter("pool/executed"))
                .unwrap_or_default(),
            queue_depth: registry.map(|r| r.histogram("pool/queue_depth")),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ServicePool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Jobs that have started executing on a worker (monotone; memoized
    /// requests served above the pool never appear here).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Submits a job. The returned handle resolves to the job's value, to
    /// the rendered panic payload if it crashed, or — when the pool is
    /// already draining — immediately to an error without running the job.
    pub fn submit<T, F>(&self, job: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let cell = Arc::new(HandleCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        let handle = JobHandle {
            cell: Arc::clone(&cell),
        };
        let shared = Arc::clone(&self.shared);
        let task: Box<dyn FnOnce() + Send> = Box::new(move || {
            shared.executed.fetch_add(1, Ordering::Relaxed);
            let out = catch_unwind(AssertUnwindSafe(job))
                .map_err(|payload| render_panic_payload(payload.as_ref()));
            *cell.slot.lock().expect("handle poisoned") = Some(out);
            cell.ready.notify_all();
        });
        let mut state = self.shared.state.lock().expect("service queue poisoned");
        if state.draining {
            drop(state);
            *handle.cell.slot.lock().expect("handle poisoned") =
                Some(Err("pool is shut down".to_owned()));
            handle.cell.ready.notify_all();
            return handle;
        }
        state.jobs.push_back(task);
        if let Some(h) = &self.shared.queue_depth {
            h.record(state.jobs.len() as u64);
        }
        drop(state);
        self.shared.available.notify_one();
        handle
    }

    /// Graceful drain: refuses new submissions, lets every accepted job
    /// run to completion, and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("service queue poisoned");
            state.draining = true;
        }
        self.shared.available.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &ServiceShared) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("service queue poisoned");
            loop {
                if let Some(task) = state.jobs.pop_front() {
                    break task;
                }
                if state.draining {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .expect("service queue poisoned");
            }
        };
        // The task body carries its own panic net (`submit` wraps the
        // closure), so nothing can unwind out of here.
        task();
    }
}

/// Renders a caught panic payload for a [`JobHandle`] error.
fn render_panic_payload(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked: non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_pool_runs_jobs_submitted_over_time() {
        let pool = ServicePool::new(3);
        let handles: Vec<JobHandle<usize>> = (0..20).map(|i| pool.submit(move || i * 7)).collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i * 7));
        }
        assert_eq!(pool.executed(), 20);
        // A second wave on the same workers.
        let h = pool.submit(|| "again".to_owned());
        assert_eq!(h.wait(), Ok("again".to_owned()));
        assert_eq!(pool.executed(), 21);
    }

    #[test]
    fn service_pool_isolates_panics_per_handle() {
        let pool = ServicePool::new(2);
        let bad: JobHandle<u32> = pool.submit(|| panic!("service job exploded"));
        let good = pool.submit(|| 11u32);
        assert_eq!(good.wait(), Ok(11));
        let err = bad.wait().expect_err("panic resolves the handle to Err");
        assert!(err.contains("service job exploded"), "{err}");
        // The worker that caught the panic still serves new jobs.
        assert_eq!(pool.submit(|| 5u32).wait(), Ok(5));
    }

    #[test]
    fn service_pool_shutdown_drains_accepted_work_and_refuses_more() {
        let pool = ServicePool::new(2);
        let before: Vec<JobHandle<usize>> = (0..8).map(|i| pool.submit(move || i)).collect();
        pool.shutdown();
        // Every job accepted before the drain ran to completion.
        for (i, h) in before.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i));
        }
        // Submissions after the drain resolve to an error without running.
        let refused = pool.submit(|| 99usize);
        assert_eq!(refused.wait(), Err("pool is shut down".to_owned()));
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn service_pool_wires_executed_and_queue_depth_into_the_registry() {
        let registry = Registry::new();
        let pool = ServicePool::with_registry(1, Some(&registry));
        let handles: Vec<JobHandle<u32>> = (0..5).map(|i| pool.submit(move || i)).collect();
        for h in handles {
            h.wait().unwrap();
        }
        let snap = registry.snapshot_json();
        assert_eq!(snap["counters"]["pool/executed"], 5u64);
        assert_eq!(snap["histograms"]["pool/queue_depth"]["count"], 5u64);
    }
}
