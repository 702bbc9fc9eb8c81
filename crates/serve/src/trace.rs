//! Request-scoped tracing: one trace id per HTTP request, one span lane
//! per job, rendered as Chrome trace-event documents by the telemetry
//! trace writer ([`selfstab_telemetry::trace`]).
//!
//! Every request entering [`crate::server::ServeState::handle`] is
//! minted a process-unique trace id and answers with it in an
//! `X-Selfstab-Trace-Id` header. Requests that create a job attach a
//! [`JobTrace`] to the [`crate::jobs::JobEntry`]; the submit path,
//! admission gate, cache lookup, queue wait, and the engine's `Phase`
//! spans all record into it. `GET /v1/jobs/:id/trace` renders one job's
//! lane; the server-wide `--trace` file interleaves every job's lane in
//! a single document.
//!
//! Nesting is by containment, the Chrome trace-event model: all of a
//! job's spans share `pid` 1 and `tid` = job id, timestamps are measured
//! from one server-wide origin instant, and the *request root* span
//! (named `request`) runs from ingress to the job's terminal state, so
//! every child span the job records sits inside it on the timeline.
//! Perfetto and `chrome://tracing` draw exactly that hierarchy.
//!
//! None of this perturbs result documents: trace data is out-of-band by
//! construction (`/v1/jobs/:id/result` bytes never mention it), keeping
//! the determinism contract intact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use selfstab_telemetry::trace::{TraceCollector, TraceEvent};
use serde_json::{json, Value};

/// Mints process-unique trace ids: a per-boot seed (wall clock ⊕ pid)
/// plus an atomic sequence number, rendered `SEED-SEQ` in hex. Two
/// requests can never share an id within a boot (the sequence), and two
/// boots practically never collide (the seed).
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    next: AtomicU64,
}

impl Default for TraceIdGen {
    fn default() -> Self {
        TraceIdGen::new()
    }
}

impl TraceIdGen {
    /// A generator seeded from the wall clock and pid.
    pub fn new() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        TraceIdGen {
            seed: nanos ^ (u64::from(std::process::id()) << 32),
            next: AtomicU64::new(0),
        }
    }

    /// The next trace id.
    pub fn mint(&self) -> String {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        format!("{:016x}-{:08x}", self.seed, seq)
    }
}

/// The span lane of one job, rooted at its originating request.
///
/// The spans live in a [`TraceCollector`] measured from the server-wide
/// origin and render through the telemetry trace writer; this type adds
/// only the request's trace id (injected into every span's args at
/// render time), the `request` root span and its end. Cheap by design:
/// spans are coarse (admission, cache, queue wait, one per engine phase
/// per K), so recording one is a single mutex push — never inside the
/// scan loops.
#[derive(Debug)]
pub struct JobTrace {
    trace_id: String,
    job_id: u64,
    kind: &'static str,
    start_us: u64,
    end_us: AtomicU64,
    lane: TraceCollector,
}

impl JobTrace {
    /// The lane of job `job_id` of `kind`, whose request arrived at
    /// `started`, measured against the server-wide `origin` so lanes from
    /// different requests align on one timeline.
    pub fn new(
        trace_id: String,
        origin: Instant,
        started: Instant,
        job_id: u64,
        kind: &'static str,
    ) -> Self {
        let lane = TraceCollector::with_origin(origin);
        JobTrace {
            trace_id,
            job_id,
            kind,
            start_us: lane.ts_us(started),
            end_us: AtomicU64::new(0),
            lane,
        }
    }

    /// The request's trace id.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Records one complete span that started at `start` and ran for
    /// `dur_us`. `args` may be `Value::Null` for none; the trace id is
    /// injected at render time, so every span of the document carries it.
    pub fn span(&self, name: &str, cat: &'static str, start: Instant, dur_us: u64, args: Value) {
        let ts_us = self.lane.ts_us(start);
        self.lane
            .complete(name, cat, self.job_id, ts_us, dur_us, args);
    }

    /// Closes the request root span (idempotent — first close wins).
    /// Called when the job reaches a terminal state.
    pub fn finish(&self) {
        let _ = self.end_us.compare_exchange(
            0,
            self.end_at_now(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The root's end if the job ended now: microseconds from the origin,
    /// at least one past the root's start.
    fn end_at_now(&self) -> u64 {
        self.lane.ts_us(Instant::now()).max(self.start_us + 1)
    }

    /// The job's rendered trace events: the `request` root first, then
    /// every recorded span, all on the job's lane with the trace id in
    /// every event's args. The root ends at the job's terminal state —
    /// "now" for an unfinished job — or at its last span's end, if later.
    pub fn events(&self) -> Vec<Value> {
        let end = match self.end_us.load(Ordering::Relaxed) {
            0 => self.end_at_now(),
            end => end,
        };
        self.lane.with_events(|spans| {
            // A span may close after the terminal state — a coalesced join
            // whose submitter was preempted mid-lookup — and still nests.
            let end = spans.iter().map(|s| s.ts_us + s.dur_us).fold(end, u64::max);
            let root = TraceEvent {
                name: "request".to_owned(),
                cat: "request",
                ph: 'X',
                ts_us: self.start_us,
                dur_us: end - self.start_us,
                tid: self.job_id,
                args: json!({
                    "trace_id": self.trace_id.clone(),
                    "job": self.job_id,
                    "kind": self.kind,
                }),
            };
            std::iter::once(root.to_json())
                .chain(spans.iter().map(|span| {
                    let mut args = match &span.args {
                        Value::Object(map) => map.clone(),
                        _ => BTreeMap::new(),
                    };
                    args.insert("trace_id".to_owned(), Value::String(self.trace_id.clone()));
                    TraceEvent {
                        args: Value::Object(args),
                        ..span.clone()
                    }
                    .to_json()
                }))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_under_contention() {
        let generator = TraceIdGen::new();
        let mut ids: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| (0..100).map(|_| generator.mint()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let total = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), total, "all 800 minted ids are distinct");
    }

    #[test]
    fn spans_nest_inside_the_request_root() {
        let origin = Instant::now();
        let trace = JobTrace::new("t-1".to_owned(), origin, Instant::now(), 7, "verify");
        trace.span(
            "cache_lookup",
            "cache",
            Instant::now(),
            0,
            json!({"outcome": "miss"}),
        );
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dur = start.elapsed().as_micros() as u64;
        trace.span("fused_scan", "engine", start, dur, json!({"k": 4}));
        trace.finish();

        let events = trace.events();
        assert_eq!(events.len(), 3);
        let root = &events[0];
        assert_eq!(root["name"], "request");
        let root_ts = root["ts"].as_u64().unwrap();
        let root_end = root_ts + root["dur"].as_u64().unwrap();
        for child in &events[1..] {
            let ts = child["ts"].as_u64().unwrap();
            let end = ts + child["dur"].as_u64().unwrap();
            assert!(ts >= root_ts && end <= root_end, "child inside root");
            assert_eq!(child["tid"], 7, "one lane per job");
            assert_eq!(child["args"]["trace_id"], "t-1", "id on every span");
        }
        assert_eq!(events[2]["args"]["k"], 4, "caller args survive");
    }

    #[test]
    fn finish_is_idempotent_and_documents_render() {
        let trace = JobTrace::new(
            "t-2".to_owned(),
            Instant::now(),
            Instant::now(),
            1,
            "verify",
        );
        trace.finish();
        let first = trace.events()[0]["dur"].as_u64().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.finish();
        let second = trace.events()[0]["dur"].as_u64().unwrap();
        assert_eq!(first, second, "second finish does not move the end");
        let doc = selfstab_telemetry::trace::document(trace.events());
        assert!(doc["traceEvents"].as_array().is_some());
        assert_eq!(doc["displayTimeUnit"], "ms");
    }
}
