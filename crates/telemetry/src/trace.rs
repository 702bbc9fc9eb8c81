//! Chrome trace-event export (Perfetto / `chrome://tracing`).
//!
//! The collector records complete (`ph: "X"`) and instant (`ph: "i"`)
//! events with microsecond timestamps relative to its creation, and
//! renders the standard `{"traceEvents": […]}` JSON object document.
//! Unlike everything else in this crate, recording locks and allocates —
//! tracing is opt-in (`sweep --trace`) and sits beside the hot path, not
//! on it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

#[derive(Debug)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    /// `'X'` (complete, with `dur`) or `'i'` (instant).
    ph: char,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
    args: Value,
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
        TraceCollector {
            origin: Instant::now(),
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
        self.events
            .lock()
            .expect("trace poisoned")
            .push(TraceEvent {
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
        self.events
            .lock()
            .expect("trace poisoned")
            .push(TraceEvent {
                name: name.into(),
                cat,
                ph: 'i',
                ts_us: self.ts_us(Instant::now()),
                dur_us: 0,
                tid,
                args,
            });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace poisoned").len()
    }

    /// `true` if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The trace-event JSON object document. `pid` is always 1 (one
    /// process); `tid` is the recording worker. Events keep recording
    /// order — viewers sort by `ts` themselves.
    pub fn to_json(&self) -> Value {
        let events = self
            .events
            .lock()
            .expect("trace poisoned")
            .iter()
            .map(|e| {
                let mut map = BTreeMap::new();
                map.insert("name".to_owned(), Value::from(e.name.as_str()));
                map.insert("cat".to_owned(), Value::from(e.cat));
                map.insert("ph".to_owned(), Value::from(e.ph.to_string()));
                map.insert("ts".to_owned(), Value::from(e.ts_us));
                if e.ph == 'X' {
                    map.insert("dur".to_owned(), Value::from(e.dur_us));
                } else {
                    // Instant scope: thread.
                    map.insert("s".to_owned(), Value::from("t"));
                }
                map.insert("pid".to_owned(), Value::from(1u64));
                map.insert("tid".to_owned(), Value::from(e.tid));
                if !e.args.is_null() {
                    map.insert("args".to_owned(), e.args.clone());
                }
                Value::Object(map)
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("displayTimeUnit".to_owned(), Value::from("ms"));
        doc.insert("traceEvents".to_owned(), Value::Array(events));
        Value::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

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
        assert_eq!(t.len(), 2);
        let doc = t.to_json();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["dur"], 150u64);
        assert_eq!(events[0]["pid"], 1u64);
        assert_eq!(events[0]["tid"], 2u64);
        assert_eq!(events[0]["args"]["spec"], "a.stab");
        assert_eq!(events[1]["ph"], "i");
        assert_eq!(events[1]["s"], "t");
        assert!(events[1]["args"].is_null());
    }
}
