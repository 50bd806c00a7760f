//! The thread-local recorder and its install/emit API.
//!
//! The simulation is single-threaded, so a thread-local sink lets every
//! layer (scheduler, interleaver, simulator, tuner) record events and
//! metrics without threading a handle through every function signature.
//! The owner of the run (CLI, bench binary, or test) calls [`install`],
//! drives the run, then calls [`uninstall`] to take the recorder back
//! and write its files. Under `cargo test`, per-thread storage isolates
//! concurrently running tests from one another.
//!
//! When nothing is installed, every recording call is a branch on a
//! thread-local `Cell<bool>` that is always `false`.

use flowtune_common::SimTime;
use std::cell::{Cell, RefCell};

use crate::event::{Event, Value};
use crate::metrics::MetricsRegistry;

/// A run's collected observability data.
#[derive(Debug, Default)]
pub struct Recorder {
    now_ms: u64,
    events: Vec<Event>,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// Fresh empty recorder with the clock at sim time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Render all events as JSONL (one event per line, trailing
    /// newline when non-empty).
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Render the metrics registry as deterministic JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Whether a recorder is installed on this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Install a fresh recorder on this thread, replacing (and
/// discarding) any previous one.
pub fn install() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
    ENABLED.with(|e| e.set(true));
}

/// Take the recorder off this thread, disabling recording.
pub fn uninstall() -> Option<Recorder> {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Take the recorder off this thread and write its trace (JSONL) to
/// `trace` and its metrics summary (JSON) to `metrics`, where given:
/// the last step of every binary that takes `--trace-out` /
/// `--metrics-out`.
pub fn write_outputs(trace: Option<&str>, metrics: Option<&str>) -> Result<(), String> {
    let Some(rec) = uninstall() else {
        return Ok(());
    };
    if let Some(path) = trace {
        std::fs::write(path, rec.trace_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = metrics {
        std::fs::write(path, rec.metrics_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Set the sim-time clock used to stamp subsequent events.
pub fn set_now(now: SimTime) {
    if is_enabled() {
        with_recorder(|rec| rec.now_ms = now.as_millis());
    }
}

/// Record one event at the current sim time.
pub fn emit(kind: &'static str, fields: Vec<(&'static str, Value)>) {
    if is_enabled() {
        with_recorder(|rec| {
            let at_ms = rec.now_ms;
            rec.events.push(Event {
                at_ms,
                kind,
                fields,
            });
        });
    }
}

/// Add `delta` to a named counter.
pub fn count(name: &'static str, delta: u64) {
    if is_enabled() {
        with_recorder(|rec| rec.metrics.count(name, delta));
    }
}

/// Set a named gauge.
pub fn gauge(name: &'static str, value: f64) {
    if is_enabled() {
        with_recorder(|rec| rec.metrics.gauge(name, value));
    }
}

/// Record one observation into a named distribution.
pub fn observe(name: &'static str, x: f64) {
    if is_enabled() {
        with_recorder(|rec| rec.metrics.observe(name, x));
    }
}

/// Record one event if a recorder is installed. Field values are not
/// evaluated when recording is disabled.
///
/// ```
/// flowtune_obs::install();
/// flowtune_obs::obs_event!("sched.step", step = 4u64, width = 2usize);
/// if let Some(rec) = flowtune_obs::uninstall() {
///     assert_eq!(rec.events().len(), 1);
/// }
/// ```
#[macro_export]
macro_rules! obs_event {
    ($kind:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::is_enabled() {
            $crate::emit($kind, vec![$((stringify!($key), $crate::Value::from($value))),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emits_nothing() {
        assert!(uninstall().is_none());
        assert!(!is_enabled());
        emit("never", vec![]);
        count("never", 1);
        assert!(uninstall().is_none());
    }

    #[test]
    fn records_events_with_sim_time_stamps() {
        install();
        set_now(SimTime::from_secs(60));
        obs_event!("test.alpha", id = 7u32);
        set_now(SimTime::from_secs(120));
        obs_event!("test.beta", frac = 0.5f64, label = "x");
        count("test.events", 2);
        gauge("test.level", 3.5);
        observe("test.width", 4.0);
        observe("test.width", 6.0);
        let rec = uninstall().expect("recorder was installed");
        assert!(!is_enabled());
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.events()[0].at_ms, 60_000);
        assert_eq!(rec.events()[1].at_ms, 120_000);
        assert_eq!(rec.metrics().counter("test.events"), 2);
        assert_eq!(rec.metrics().gauge_value("test.level"), Some(3.5));
        let d = rec.metrics().distribution("test.width").expect("observed");
        assert_eq!(d.count(), 2);
        let jsonl = rec.trace_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with(r#"{"t":60000,"kind":"test.alpha","id":7}"#));
    }

    #[test]
    fn field_expressions_not_evaluated_when_disabled() {
        let mut evaluated = false;
        obs_event!(
            "test.lazy",
            v = {
                evaluated = true;
                1u64
            }
        );
        assert!(!evaluated);
    }

    #[test]
    fn install_replaces_previous_recorder() {
        install();
        obs_event!("test.old");
        install();
        obs_event!("test.new");
        let rec = uninstall().expect("recorder was installed");
        assert_eq!(rec.events().len(), 1);
        assert_eq!(rec.events()[0].kind, "test.new");
    }
}
