//! Integration tests for the observability layer.
//!
//! The sink and the metrics-enabled switch are process-global, so every test
//! that installs a sink or emits events serializes on `SINK_TEST_LOCK`: an
//! event emitted by one test would otherwise land in another test's sink.
//! (`Counter::inc`, `Gauge::set` and `Histogram::record` emit while a sink
//! is installed; `record_silent` does not.) Metric names are unique per
//! test because the registry is never reset.

use sqlgen_obs::{metrics, obs_count, obs_info, obs_span, obs_time, Event, JsonlSink, MemorySink};
use std::sync::{Arc, Mutex, MutexGuard};

static SINK_TEST_LOCK: Mutex<()> = Mutex::new(());

fn sink_guard() -> MutexGuard<'static, ()> {
    SINK_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

#[test]
fn empty_histogram_percentiles_are_zero() {
    let h = metrics::global().histogram("test.hist.empty");
    assert_eq!(h.count(), 0);
    assert_eq!(h.p50(), 0.0);
    assert_eq!(h.p95(), 0.0);
    assert_eq!(h.p99(), 0.0);
    assert_eq!(h.max(), 0.0);
    assert_eq!(h.mean(), 0.0);
}

#[test]
fn single_sample_percentiles_are_exact() {
    let h = metrics::global().histogram("test.hist.single");
    h.record_silent(42.7);
    assert_eq!(h.count(), 1);
    // Bucket representatives are clamped to the observed [min, max], so a
    // degenerate distribution reports exactly.
    assert_eq!(h.p50(), 42.7);
    assert_eq!(h.p95(), 42.7);
    assert_eq!(h.p99(), 42.7);
    assert_eq!(h.max(), 42.7);
    assert_eq!(h.min(), 42.7);
}

#[test]
fn histogram_bucketing_tracks_known_quantiles() {
    let h = metrics::global().histogram("test.hist.uniform");
    for i in 1..=10_000 {
        h.record_silent(i as f64 / 10.0); // 0.1 .. 1000.0 uniform
    }
    let tol = 0.15;
    for (q, expect) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
        let got = h.percentile(q);
        assert!(
            (got - expect).abs() / expect < tol,
            "q={q}: got {got}, expected ~{expect}"
        );
    }
    assert_eq!(h.max(), 1000.0);
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

#[test]
fn counter_concurrent_increments_sum_exactly() {
    // `inc` emits a count event whenever a sink is installed.
    let _guard = sink_guard();
    let threads = 8;
    let per_thread = 10_000u64;
    let counter = metrics::global().counter("test.counter.concurrent");
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let c = Arc::clone(&counter);
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    c.inc(1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("counter thread");
    }
    assert_eq!(counter.get(), threads * per_thread);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[test]
fn span_nesting_emits_inner_first_with_full_paths() {
    let _guard = sink_guard();
    let sink = Arc::new(MemorySink::new());
    sqlgen_obs::install_sink(sink.clone());

    {
        let _outer = obs_span!("outer");
        {
            let _inner = obs_span!("inner");
        }
        {
            let _second = obs_span!("second");
        }
    }
    sqlgen_obs::clear_sink();

    let spans: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.kind == "span")
        .collect();
    assert_eq!(spans.len(), 3, "{spans:?}");
    // Exit order: innermost first.
    assert_eq!(spans[0].name, "inner");
    assert_eq!(spans[1].name, "second");
    assert_eq!(spans[2].name, "outer");
    let path = |e: &Event| e.fields.get("path").unwrap().as_str().unwrap().to_string();
    assert_eq!(path(&spans[0]), "outer/inner");
    assert_eq!(path(&spans[1]), "outer/second");
    assert_eq!(path(&spans[2]), "outer");
    assert_eq!(spans[0].fields.get("depth").unwrap().as_i64(), Some(2));
    assert_eq!(spans[2].fields.get("depth").unwrap().as_i64(), Some(1));
    for s in &spans {
        assert!(s.fields.get("dur_us").unwrap().as_f64().unwrap() >= 0.0);
    }
}

// ---------------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------------

#[test]
fn jsonl_sink_round_trips_every_event_kind() {
    let _guard = sink_guard();
    let path = std::env::temp_dir().join(format!("obs-test-{}.jsonl", std::process::id()));
    let sink = Arc::new(JsonlSink::create(&path).expect("create jsonl"));
    sqlgen_obs::install_sink(sink);

    obs_count!("test.jsonl.count", 2);
    metrics::global().gauge("test.jsonl.gauge").set(0.5);
    metrics::global().histogram("test.jsonl.hist").record(12.5);
    {
        let _t = obs_time!("test.jsonl.latency_us");
    }
    {
        let _s = obs_span!("test.jsonl.span");
    }
    obs_info!("hello from the {} test", "jsonl");
    sqlgen_obs::clear_sink();

    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::from_json_line(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect();
    assert!(events.len() >= 6, "{events:?}");

    let kind_of = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no event named {name}"))
            .kind
            .clone()
    };
    assert_eq!(kind_of("test.jsonl.count"), "count");
    assert_eq!(kind_of("test.jsonl.gauge"), "gauge");
    assert_eq!(kind_of("test.jsonl.hist"), "hist");
    assert_eq!(kind_of("test.jsonl.latency_us"), "hist");
    assert_eq!(kind_of("test.jsonl.span"), "span");
    let log = events.iter().find(|e| e.kind == "log").expect("log event");
    assert_eq!(
        log.fields.get("msg").unwrap().as_str(),
        Some("hello from the jsonl test")
    );
    // Timestamps are sane and non-decreasing within a single thread.
    for w in events.windows(2) {
        assert!(w[0].ts_us <= w[1].ts_us);
    }
}

// ---------------------------------------------------------------------------
// Summary table
// ---------------------------------------------------------------------------

#[test]
fn summary_table_reports_percentile_columns() {
    let h = metrics::global().histogram("test.summary.latency_us");
    for i in 1..=100 {
        h.record_silent(i as f64);
    }
    let md = metrics::summary_table().to_markdown();
    assert!(md.contains("test.summary.latency_us"), "{md}");
    assert!(md.contains("p50"), "{md}");
    assert!(md.contains("p95"), "{md}");
    assert!(md.contains("p99"), "{md}");
    assert!(md.contains("100"), "{md}");
}
