//! Chrome trace-event export (Perfetto / `chrome://tracing`) — the one
//! writer of the format in the workspace.
//!
//! A [`TraceEvent`] is a complete (`ph: "X"`) or instant (`ph: "i"`)
//! event with microsecond timestamps relative to an origin instant;
//! [`TraceEvent::to_json`] renders one event and [`document`] wraps
//! rendered events in the standard `{"traceEvents": […]}` JSON object.
//! The [`TraceCollector`] accumulates events against one origin: the
//! campaign's `sweep --trace` lanes, and each `serve` job's span lane
//! (measured from the server-wide origin, so lanes align on one
//! timeline). Unlike everything else in this crate, recording locks and
//! allocates — tracing sits beside the hot path, not on it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

/// One trace event. `pid` is always 1 (one process); `tid` is the lane —
/// the recording worker, or the job.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (the span or instant label).
    pub name: String,
    /// Category.
    pub cat: &'static str,
    /// `'X'` (complete, with `dur`) or `'i'` (instant, thread scope).
    pub ph: char,
    /// Start, microseconds from the origin.
    pub ts_us: u64,
    /// Duration in microseconds (complete events only).
    pub dur_us: u64,
    /// Lane.
    pub tid: u64,
    /// Event arguments; `Value::Null` omits the `args` key.
    pub args: Value,
}

impl TraceEvent {
    /// The event's trace-event JSON object.
    pub fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("name".to_owned(), Value::from(self.name.as_str()));
        map.insert("cat".to_owned(), Value::from(self.cat));
        map.insert("ph".to_owned(), Value::from(self.ph.to_string()));
        map.insert("ts".to_owned(), Value::from(self.ts_us));
        if self.ph == 'X' {
            map.insert("dur".to_owned(), Value::from(self.dur_us));
        } else {
            // Instant scope: thread.
            map.insert("s".to_owned(), Value::from("t"));
        }
        map.insert("pid".to_owned(), Value::from(1u64));
        map.insert("tid".to_owned(), Value::from(self.tid));
        if !self.args.is_null() {
            map.insert("args".to_owned(), self.args.clone());
        }
        Value::Object(map)
    }
}

/// The trace-event JSON object document around rendered `events`, which
/// keep their order — viewers sort by `ts` themselves.
pub fn document(events: Vec<Value>) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("displayTimeUnit".to_owned(), Value::from("ms"));
    doc.insert("traceEvents".to_owned(), Value::Array(events));
    Value::Object(doc)
}

/// An accumulating Chrome trace-event collector.
#[derive(Debug)]
pub struct TraceCollector {
    origin: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A collector whose timestamp origin is "now".
    pub fn new() -> Self {
        TraceCollector::with_origin(Instant::now())
    }

    /// A collector measuring timestamps from `origin`.
    pub fn with_origin(origin: Instant) -> Self {
        TraceCollector {
            origin,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds from the collector's origin to `at` — the `ts` to pass
    /// to [`TraceCollector::complete`] for an event that started at `at`.
    pub fn ts_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records a complete event (`ph: "X"`): `name` ran on `tid` from
    /// `ts_us` for `dur_us`.
    pub fn complete(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: Value,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'X',
            ts_us,
            dur_us,
            tid,
            args,
        });
    }

    /// Records an instant event (`ph: "i"`, thread scope) at "now".
    pub fn instant(&self, name: impl Into<String>, cat: &'static str, tid: u64, args: Value) {
        self.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'i',
            ts_us: self.ts_us(Instant::now()),
            dur_us: 0,
            tid,
            args,
        });
    }

    fn push(&self, event: TraceEvent) {
        self.events.lock().expect("trace poisoned").push(event);
    }

    /// Runs `f` over the events recorded so far, in recording order.
    pub fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        f(&self.events.lock().expect("trace poisoned"))
    }

    /// The trace-event JSON object document of every recorded event.
    pub fn to_json(&self) -> Value {
        document(self.with_events(|events| events.iter().map(TraceEvent::to_json).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn keys(event: &Value) -> Vec<&str> {
        match event {
            Value::Object(map) => map.keys().map(String::as_str).collect(),
            _ => panic!("an event is an object: {event}"),
        }
    }

    #[test]
    fn events_render_with_required_fields() {
        let t = TraceCollector::new();
        let ts = t.ts_us(Instant::now());
        t.complete(
            "fused_scan",
            "engine",
            2,
            ts,
            150,
            json!({"spec": "a.stab", "k": 3}),
        );
        t.instant("job_panicked", "campaign", 0, Value::Null);
        let doc = t.to_json();
        assert_eq!(keys(&doc), ["displayTimeUnit", "traceEvents"]);
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["dur"], 150u64);
        assert_eq!(events[0]["pid"], 1u64);
        assert_eq!(events[0]["tid"], 2u64);
        assert_eq!(events[0]["args"]["spec"], "a.stab");
        assert_eq!(
            keys(&events[0]),
            ["args", "cat", "dur", "name", "ph", "pid", "tid", "ts"]
        );
        assert_eq!(events[1]["ph"], "i");
        assert_eq!(events[1]["s"], "t");
        assert!(events[1]["args"].is_null());
        // An instant has no `dur`, and an event without args omits `args`.
        assert_eq!(
            keys(&events[1]),
            ["cat", "name", "ph", "pid", "s", "tid", "ts"]
        );
    }
}
