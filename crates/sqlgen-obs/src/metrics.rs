//! Named metric instruments and the global registry.
//!
//! All instruments are lock-free on the update path:
//!
//! - [`Counter`] — monotonically increasing `u64`.
//! - [`Gauge`] — last-write-wins `f64`.
//! - [`Histogram`] — sign-aware log-bucketed `f64` distribution with exact
//!   count/sum/min/max and approximate percentiles (≤ ~12% relative bucket
//!   error, clamped to the exact observed range, so single-sample
//!   percentiles are exact).
//!
//! The registry itself is a name → instrument map behind a mutex; call
//! sites cache the returned `Arc` (see the `obs_*` macros), so the map is
//! only touched on first use per site.

use crate::sink::{num, Event, Fields};
use crate::table::Table;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

/// Hard cap on distinct label sets per metric family. The first
/// `MAX_SERIES_PER_FAMILY - 1` label sets get their own series; everything
/// beyond collapses into a single `{overflow="true"}` series so a
/// misbehaving label (e.g. one series per request id) cannot grow the
/// registry without bound.
pub const MAX_SERIES_PER_FAMILY: usize = 32;

/// An ordered, deduplicated `key → value` label set.
///
/// Keys are sorted so two semantically equal sets compare and render
/// identically regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    pub fn new() -> Labels {
        Labels(Vec::new())
    }

    /// Builder-style insert; replaces an existing value for the same key.
    pub fn with(mut self, key: &str, value: &str) -> Labels {
        match self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.0[i].1 = value.to_string(),
            Err(i) => self.0.insert(i, (key.to_string(), value.to_string())),
        }
        self
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Renders `{k="v",...}` with exposition-format escaping, or `""` when
    /// empty.
    pub fn render(&self) -> String {
        self.render_with(None)
    }

    /// Renders with one extra trailing pair (the summary `quantile` label).
    pub fn render_with(&self, extra: Option<(&str, &str)>) -> String {
        if self.0.is_empty() && extra.is_none() {
            return String::new();
        }
        let mut out = String::from("{");
        let mut first = true;
        for (k, v) in self.iter().chain(extra) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&label_key(k));
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// `\` → `\\`, `"` → `\"`, newline → `\n`. Other control bytes pass
/// through (the format permits any UTF-8 in escaped values).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Maps a label key to the exposition charset `[a-zA-Z_][a-zA-Z0-9_]*`.
fn label_key(k: &str) -> String {
    let mut out: String = k
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Monotonic counter.
#[derive(Debug)]
pub struct Counter {
    name: String,
    value: AtomicU64,
}

impl Counter {
    fn new(name: String) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn inc(&self, delta: u64) {
        let total = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        if crate::sink_active() {
            let mut fields = Fields::new();
            fields.insert("delta".to_string(), num(delta as f64));
            fields.insert("total".to_string(), num(total as f64));
            crate::emit(&Event::now("count", &self.name, fields));
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// Last-write-wins instantaneous value.
#[derive(Debug)]
pub struct Gauge {
    name: String,
    bits: AtomicU64,
}

impl Gauge {
    fn new(name: String) -> Self {
        Gauge {
            name,
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        if crate::sink_active() {
            let mut fields = Fields::new();
            fields.insert("v".to_string(), num(v));
            crate::emit(&Event::now("gauge", &self.name, fields));
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two. 4 → worst-case relative error ~12%.
const SUB: usize = 4;
/// Exponent range covered per sign: 2^-32 .. 2^32.
const OCTAVES: usize = 64;
const MIN_EXP: i32 = -32;
const SIDE: usize = OCTAVES * SUB;
/// negatives (descending |v|) | zero | positives (ascending).
const NBUCKETS: usize = SIDE + 1 + SIDE;
const ZERO_SLOT: usize = SIDE;

/// Maps a strictly positive finite value to its side-local bucket index.
fn side_index(v: f64) -> usize {
    let e = (v.log2().floor() as i32).clamp(MIN_EXP, MIN_EXP + OCTAVES as i32 - 1);
    let base = (e as f64).exp2();
    let frac = ((v / base - 1.0) * SUB as f64) as usize;
    (e - MIN_EXP) as usize * SUB + frac.min(SUB - 1)
}

/// Geometric representative of a side-local bucket.
fn side_value(idx: usize) -> f64 {
    let e = MIN_EXP + (idx / SUB) as i32;
    let frac = (idx % SUB) as f64 + 0.5;
    (e as f64).exp2() * (1.0 + frac / SUB as f64)
}

fn slot_of(v: f64) -> usize {
    if v > 0.0 {
        ZERO_SLOT + 1 + side_index(v)
    } else if v < 0.0 {
        SIDE - 1 - side_index(-v)
    } else {
        ZERO_SLOT
    }
}

fn slot_value(slot: usize) -> f64 {
    match slot.cmp(&ZERO_SLOT) {
        std::cmp::Ordering::Greater => side_value(slot - ZERO_SLOT - 1),
        std::cmp::Ordering::Less => -side_value(SIDE - 1 - slot),
        std::cmp::Ordering::Equal => 0.0,
    }
}

/// Order-preserving u64 encoding of f64 (for atomic min/max).
fn ordered_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

fn from_ordered_bits(b: u64) -> f64 {
    if b >> 63 == 1 {
        f64::from_bits(b & !(1 << 63))
    } else {
        f64::from_bits(!b)
    }
}

/// Log-bucketed distribution over finite `f64` samples.
pub struct Histogram {
    name: String,
    buckets: Box<[AtomicU64; NBUCKETS]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_ord: AtomicU64,
    max_ord: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name)
            .field("count", &self.count())
            .finish()
    }
}

impl Histogram {
    /// A free-standing histogram not owned by any registry (e.g. the trace
    /// store's duration distribution for the slow-decile threshold).
    pub fn standalone(name: &str) -> Self {
        Histogram::new(name.to_string())
    }

    fn new(name: String) -> Self {
        Histogram {
            name,
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_ord: AtomicU64::new(ordered_bits(f64::INFINITY)),
            max_ord: AtomicU64::new(ordered_bits(f64::NEG_INFINITY)),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records a sample and emits a `hist` event when a sink is installed.
    pub fn record(&self, v: f64) {
        self.record_silent(v);
        if crate::sink_active() {
            let mut fields = Fields::new();
            fields.insert("v".to_string(), num(v));
            crate::emit(&Event::now("hist", &self.name, fields));
        }
    }

    /// Records without emitting an event (for sites that emit their own).
    pub fn record_silent(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.buckets[slot_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min_ord.fetch_min(ordered_bits(v), Ordering::Relaxed);
        self.max_ord.fetch_max(ordered_bits(v), Ordering::Relaxed);
        // CAS-loop float add; histograms are low-contention.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            from_ordered_bits(self.min_ord.load(Ordering::Relaxed))
        }
    }

    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            from_ordered_bits(self.max_ord.load(Ordering::Relaxed))
        }
    }

    /// Approximate quantile in `[0, 1]`; `0.0` for an empty histogram.
    ///
    /// The bucket representative is clamped to the exact observed
    /// `[min, max]`, so degenerate distributions (single sample, constant
    /// samples) report exact percentiles.
    pub fn percentile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the q-th sample.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if cum >= rank {
                return slot_value(slot).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A labeled metric family: label set → instrument, capped at
/// [`MAX_SERIES_PER_FAMILY`] distinct series.
type FamilyMap<T> = BTreeMap<String, BTreeMap<Labels, Arc<T>>>;

/// Name → instrument maps. Get-or-create; instruments live forever.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    labeled_counters: Mutex<FamilyMap<Counter>>,
    labeled_gauges: Mutex<FamilyMap<Gauge>>,
    labeled_histograms: Mutex<FamilyMap<Histogram>>,
}

/// The label set a family overflows into once it hits the cardinality cap.
fn overflow_labels() -> Labels {
    Labels::new().with("overflow", "true")
}

/// Get-or-create one series in a labeled family, enforcing the cap.
fn family_series<T>(
    map: &Mutex<FamilyMap<T>>,
    name: &str,
    labels: &Labels,
    make: impl Fn(String) -> T,
) -> Arc<T> {
    let mut families = map.lock().expect("family map");
    let family = families.entry(name.to_string()).or_default();
    if let Some(existing) = family.get(labels) {
        return existing.clone();
    }
    // Overflow: the cap counts real series; the overflow series rides on
    // top so a capped family still accounts for excess traffic somewhere.
    let labels = if family.len() >= MAX_SERIES_PER_FAMILY {
        let ov = overflow_labels();
        if let Some(existing) = family.get(&ov) {
            return existing.clone();
        }
        ov
    } else {
        labels.clone()
    };
    let full = format!("{name}{}", labels.render());
    let arc = Arc::new(make(full));
    family.insert(labels, arc.clone());
    arc
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new(name.to_string())))
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge map");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new(name.to_string())))
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_owned(name.to_string())
    }

    pub fn histogram_owned(&self, name: String) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map");
        map.entry(name.clone())
            .or_insert_with(|| Arc::new(Histogram::new(name)))
            .clone()
    }

    /// Labeled counter series (`name{labels...}`), cardinality-capped.
    pub fn counter_with(&self, name: &str, labels: &Labels) -> Arc<Counter> {
        family_series(&self.labeled_counters, name, labels, Counter::new)
    }

    /// Labeled gauge series, cardinality-capped.
    pub fn gauge_with(&self, name: &str, labels: &Labels) -> Arc<Gauge> {
        family_series(&self.labeled_gauges, name, labels, Gauge::new)
    }

    /// Labeled histogram series, cardinality-capped.
    pub fn histogram_with(&self, name: &str, labels: &Labels) -> Arc<Histogram> {
        family_series(&self.labeled_histograms, name, labels, Histogram::new)
    }

    /// Number of live series in a labeled family (tests / introspection).
    pub fn family_cardinality(&self, name: &str) -> usize {
        let c = self
            .labeled_counters
            .lock()
            .expect("family map")
            .get(name)
            .map_or(0, BTreeMap::len);
        let g = self
            .labeled_gauges
            .lock()
            .expect("family map")
            .get(name)
            .map_or(0, BTreeMap::len);
        let h = self
            .labeled_histograms
            .lock()
            .expect("family map")
            .get(name)
            .map_or(0, BTreeMap::len);
        c + g + h
    }

    /// Renders every registered instrument as a summary table, sorted by
    /// name within each kind.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            "metrics summary",
            &[
                "metric", "kind", "count", "value", "p50", "p95", "p99", "max",
            ],
        );
        for c in self.counters.lock().expect("counter map").values() {
            t.row(vec![
                c.name().to_string(),
                "counter".to_string(),
                c.get().to_string(),
                c.get().to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        for g in self.gauges.lock().expect("gauge map").values() {
            t.row(vec![
                g.name().to_string(),
                "gauge".to_string(),
                "-".to_string(),
                fmt_value(g.get()),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        for h in self.histograms.lock().expect("histogram map").values() {
            t.row(vec![
                h.name().to_string(),
                "hist".to_string(),
                h.count().to_string(),
                fmt_value(h.mean()),
                fmt_value(h.p50()),
                fmt_value(h.p95()),
                fmt_value(h.p99()),
                fmt_value(h.max()),
            ]);
        }
        for family in self.labeled_histograms.lock().expect("family map").values() {
            for h in family.values() {
                t.row(vec![
                    h.name().to_string(),
                    "hist".to_string(),
                    h.count().to_string(),
                    fmt_value(h.mean()),
                    fmt_value(h.p50()),
                    fmt_value(h.p95()),
                    fmt_value(h.p99()),
                    fmt_value(h.max()),
                ]);
            }
        }
        t
    }
}

impl Registry {
    /// Emits one `summary` event per registered instrument — the end-of-run
    /// rollup a trace consumer can read without replaying every sample.
    pub fn emit_summary_events(&self) {
        if !crate::sink_active() {
            return;
        }
        for c in self.counters.lock().expect("counter map").values() {
            let mut fields = Fields::new();
            fields.insert("total".to_string(), num(c.get() as f64));
            crate::emit(&Event::now("summary", c.name(), fields));
        }
        for g in self.gauges.lock().expect("gauge map").values() {
            let mut fields = Fields::new();
            fields.insert("v".to_string(), num(g.get()));
            crate::emit(&Event::now("summary", g.name(), fields));
        }
        for h in self.histograms.lock().expect("histogram map").values() {
            let mut fields = Fields::new();
            fields.insert("count".to_string(), num(h.count() as f64));
            fields.insert("mean".to_string(), num(h.mean()));
            fields.insert("p50".to_string(), num(h.p50()));
            fields.insert("p95".to_string(), num(h.p95()));
            fields.insert("p99".to_string(), num(h.p99()));
            fields.insert("max".to_string(), num(h.max()));
            crate::emit(&Event::now("summary", h.name(), fields));
        }
    }
}

impl Registry {
    /// Renders every registered instrument in a Prometheus-style plain-text
    /// exposition (one `name{...} value` line per sample; metric names have
    /// `.` mapped to `_`). This is the `/metrics` endpoint payload of
    /// `sqlgen-serve`: scrapable text, no dependencies, stable ordering
    /// (BTreeMap name order within each kind).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();

        // Counters: unlabeled then labeled families, one TYPE line per
        // exposition name even when both forms exist.
        let plain = self.counters.lock().expect("counter map");
        let labeled = self.labeled_counters.lock().expect("family map");
        let names: BTreeSet<&str> = plain
            .keys()
            .map(String::as_str)
            .chain(labeled.keys().map(String::as_str))
            .collect();
        for raw in names {
            let name = text_name(raw);
            let _ = writeln!(out, "# TYPE {name} counter");
            if let Some(c) = plain.get(raw) {
                let _ = writeln!(out, "{name} {}", c.get());
            }
            if let Some(family) = labeled.get(raw) {
                for (labels, c) in family {
                    let _ = writeln!(out, "{name}{} {}", labels.render(), c.get());
                }
            }
        }
        drop(plain);
        drop(labeled);

        let plain = self.gauges.lock().expect("gauge map");
        let labeled = self.labeled_gauges.lock().expect("family map");
        let names: BTreeSet<&str> = plain
            .keys()
            .map(String::as_str)
            .chain(labeled.keys().map(String::as_str))
            .collect();
        for raw in names {
            let name = text_name(raw);
            let _ = writeln!(out, "# TYPE {name} gauge");
            if let Some(g) = plain.get(raw) {
                let _ = writeln!(out, "{name} {}", num_text(g.get()));
            }
            if let Some(family) = labeled.get(raw) {
                for (labels, g) in family {
                    let _ = writeln!(out, "{name}{} {}", labels.render(), num_text(g.get()));
                }
            }
        }
        drop(plain);
        drop(labeled);

        let plain = self.histograms.lock().expect("histogram map");
        let labeled = self.labeled_histograms.lock().expect("family map");
        let names: BTreeSet<&str> = plain
            .keys()
            .map(String::as_str)
            .chain(labeled.keys().map(String::as_str))
            .collect();
        let render_hist = |out: &mut String, name: &str, labels: &Labels, h: &Histogram| {
            let lab = labels.render();
            let _ = writeln!(out, "{name}_count{lab} {}", h.count());
            let _ = writeln!(out, "{name}_sum{lab} {}", num_text(h.sum()));
            for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    labels.render_with(Some(("quantile", q))),
                    num_text(v)
                );
            }
            let _ = writeln!(out, "{name}_max{lab} {}", num_text(h.max()));
        };
        for raw in names {
            let name = text_name(raw);
            let _ = writeln!(out, "# TYPE {name} summary");
            if let Some(h) = plain.get(raw) {
                render_hist(&mut out, &name, &Labels::new(), h);
            }
            if let Some(family) = labeled.get(raw) {
                for (labels, h) in family {
                    render_hist(&mut out, &name, labels, h);
                }
            }
        }
        out
    }
}

/// Maps a registry metric name to the text-exposition charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn text_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

// ---------------------------------------------------------------------------
// Exposition-format validation
// ---------------------------------------------------------------------------

fn valid_name(s: &str) -> bool {
    let b = s.as_bytes();
    !b.is_empty()
        && (b[0].is_ascii_alphabetic() || b[0] == b'_' || b[0] == b':')
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || *c == b'_' || *c == b':')
}

/// Parses `{k="v",...}` starting at `line[start]` (which must be `{`);
/// returns the byte offset just past the closing `}`.
fn parse_label_block(line: &str, start: usize) -> Result<usize, String> {
    let b = line.as_bytes();
    let mut i = start + 1;
    loop {
        if i >= b.len() {
            return Err(format!("unterminated label block: {line:?}"));
        }
        if b[i] == b'}' {
            return Ok(i + 1);
        }
        // label name
        let name_start = i;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        if i == name_start || !valid_name(&line[name_start..i]) || line[name_start..i].contains(':')
        {
            return Err(format!("bad label name in {line:?}"));
        }
        if i >= b.len() || b[i] != b'=' {
            return Err(format!("expected '=' in label block: {line:?}"));
        }
        i += 1;
        if i >= b.len() || b[i] != b'"' {
            return Err(format!("expected '\"' in label block: {line:?}"));
        }
        i += 1;
        // escaped value
        loop {
            if i >= b.len() {
                return Err(format!("unterminated label value: {line:?}"));
            }
            match b[i] {
                b'"' => break,
                b'\\' => {
                    if i + 1 >= b.len() || !matches!(b[i + 1], b'\\' | b'"' | b'n') {
                        return Err(format!("bad escape in label value: {line:?}"));
                    }
                    i += 2;
                }
                b'\n' => return Err(format!("raw newline in label value: {line:?}")),
                _ => i += 1,
            }
        }
        i += 1; // closing quote
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {}
            _ => return Err(format!("expected ',' or '}}' in label block: {line:?}")),
        }
    }
}

/// Validates that `text` conforms to the Prometheus text exposition
/// grammar: every line is a comment, a well-formed `# TYPE` declaration
/// (at most one per metric name), or a `name[{labels}] value` sample with
/// a valid metric name, correctly escaped label values, and a parseable
/// float value. Returns the first violation.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut typed: BTreeSet<&str> = BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("malformed TYPE line: {line:?}"));
            };
            if !valid_name(name) {
                return Err(format!("bad metric name in TYPE line: {line:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return Err(format!("bad metric kind in TYPE line: {line:?}"));
            }
            if !typed.insert(name) {
                return Err(format!("duplicate TYPE declaration for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // Sample line: name[{labels}] value [timestamp]
        let b = line.as_bytes();
        let mut i = 0;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b':') {
            i += 1;
        }
        if !valid_name(&line[..i]) {
            return Err(format!("bad metric name in sample: {line:?}"));
        }
        if i < b.len() && b[i] == b'{' {
            i = parse_label_block(line, i)?;
        }
        let rest = &line[i..];
        let Some(value_part) = rest.strip_prefix(' ') else {
            return Err(format!("expected ' ' before value: {line:?}"));
        };
        let mut fields = value_part.split(' ');
        let Some(value) = fields.next() else {
            return Err(format!("missing value: {line:?}"));
        };
        let value_ok =
            value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "Nan" | "NaN");
        if !value_ok {
            return Err(format!("unparseable value {value:?} in {line:?}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("bad timestamp {ts:?} in {line:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("trailing fields in sample: {line:?}"));
        }
    }
    Ok(())
}

/// Finite numbers as shortest-roundtrip decimal; NaN (empty histograms)
/// rendered as 0 so scrapers never choke.
fn num_text(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// End-of-run summary for the global registry.
pub fn summary_table() -> Table {
    global().summary_table()
}

/// Text exposition of the global registry (the `/metrics` payload).
pub fn render_text() -> String {
    global().render_text()
}

/// Emits `summary` events for the global registry.
pub fn emit_summary_events() {
    global().emit_summary_events()
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1_000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_within_tolerance() {
        for &v in &[1e-6, 0.013, 0.5, 1.0, 7.3, 640.0, 1.5e7, -0.4, -123.0] {
            let slot = slot_of(v);
            let rep = slot_value(slot);
            assert!(
                (rep - v).abs() <= v.abs() * 0.13,
                "v={v} rep={rep} slot={slot}"
            );
            assert_eq!(rep.signum(), v.signum(), "sign preserved for {v}");
        }
        assert_eq!(slot_of(0.0), ZERO_SLOT);
        assert_eq!(slot_value(ZERO_SLOT), 0.0);
    }

    #[test]
    fn slots_are_monotonic_in_value() {
        let vals = [-1e4, -3.0, -0.2, 0.0, 1e-4, 0.7, 2.0, 5.5, 1e6];
        for w in vals.windows(2) {
            assert!(slot_of(w[0]) <= slot_of(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn ordered_bits_total_order() {
        let vals = [f64::NEG_INFINITY, -1e9, -1.0, -0.0, 0.0, 1e-9, 2.5, 1e300];
        for w in vals.windows(2) {
            assert!(
                ordered_bits(w[0]) <= ordered_bits(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
            assert_eq!(from_ordered_bits(ordered_bits(w[0])), w[0]);
        }
    }

    #[test]
    fn percentiles_track_uniform_data() {
        let h = Histogram::new("t".into());
        for i in 1..=1000 {
            h.record_silent(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert!((h.p50() - 500.0).abs() / 500.0 < 0.15, "p50={}", h.p50());
        assert!((h.p95() - 950.0).abs() / 950.0 < 0.15, "p95={}", h.p95());
        assert!((h.p99() - 990.0).abs() / 990.0 < 0.15, "p99={}", h.p99());
        assert_eq!(h.max(), 1000.0);
        assert_eq!(h.min(), 1.0);
    }

    #[test]
    fn negative_samples_sort_before_positive() {
        let h = Histogram::new("t".into());
        for v in [-10.0, -5.0, 1.0, 2.0, 3.0] {
            h.record_silent(v);
        }
        assert!(h.percentile(0.0) < 0.0);
        assert!(h.percentile(1.0) > 0.0);
        assert_eq!(h.min(), -10.0);
        assert_eq!(h.max(), 3.0);
    }

    #[test]
    fn summary_table_lists_instruments() {
        let r = Registry::default();
        r.counter("c.one").inc(3);
        r.gauge("g.one").set(1.25);
        r.histogram("h.one").record_silent(10.0);
        let md = r.summary_table().to_markdown();
        assert!(md.contains("c.one"), "{md}");
        assert!(md.contains("g.one"), "{md}");
        assert!(md.contains("h.one"), "{md}");
        assert!(md.contains("counter"), "{md}");
    }

    #[test]
    fn labels_render_sorted_and_escaped() {
        let l = Labels::new()
            .with("schema", "tp\"ch")
            .with("batch_width", "8");
        // Sorted by key regardless of insertion order; values escaped.
        assert_eq!(l.render(), "{batch_width=\"8\",schema=\"tp\\\"ch\"}");
        let q = l.render_with(Some(("quantile", "0.5")));
        assert!(q.ends_with(",quantile=\"0.5\"}"), "{q}");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn labeled_families_render_one_type_line_and_escape_values() {
        let r = Registry::default();
        r.counter_with(
            "serve.http.requests",
            &Labels::new()
                .with("endpoint", "generate")
                .with("status", "200"),
        )
        .inc(5);
        r.counter_with(
            "serve.http.requests",
            &Labels::new()
                .with("endpoint", "metrics")
                .with("status", "200"),
        )
        .inc(1);
        // Hostile label value: backslash, quote, newline.
        r.gauge_with("g.f", &Labels::new().with("schema", "a\"b\\c\nd"))
            .set(1.0);
        r.histogram_with("h.f", &Labels::new().with("batch_width", "8"))
            .record_silent(10.0);
        let text = r.render_text();
        assert_eq!(
            text.matches("# TYPE serve_http_requests counter").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains("serve_http_requests{endpoint=\"generate\",status=\"200\"} 5"),
            "{text}"
        );
        assert!(text.contains("g_f{schema=\"a\\\"b\\\\c\\nd\"} 1"), "{text}");
        assert!(text.contains("h_f_count{batch_width=\"8\"} 1"), "{text}");
        assert!(
            text.contains("h_f{batch_width=\"8\",quantile=\"0.5\"}"),
            "{text}"
        );
        validate_exposition(&text).expect("labeled rendering must validate");
    }

    #[test]
    fn label_cardinality_cap_overflows_into_one_series() {
        let r = Registry::default();
        for i in 0..(MAX_SERIES_PER_FAMILY + 40) {
            r.counter_with("f.capped", &Labels::new().with("id", &format!("{i}")))
                .inc(1);
        }
        // Cap series + the single overflow series.
        assert_eq!(r.family_cardinality("f.capped"), MAX_SERIES_PER_FAMILY + 1);
        let ov = r.counter_with("f.capped", &Labels::new().with("id", "overflowing"));
        assert_eq!(ov.name(), "f.capped{overflow=\"true\"}");
        // Every excess increment landed on the overflow series.
        assert_eq!(ov.get(), 40);
        validate_exposition(&r.render_text()).expect("capped family must validate");
    }

    #[test]
    fn histogram_edge_cases() {
        // Empty: all quantiles are 0, not NaN.
        let h = Histogram::standalone("edge");
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.percentile(1.0), 0.0);
        // Single sample: exact at every quantile (clamped to [min, max]).
        h.record_silent(42.0);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.percentile(q), 42.0, "q={q}");
        }
        // Saturated: values beyond the bucketed exponent range (2^±32)
        // clamp into the extreme buckets — min/max stay exact, quantiles
        // stay finite, sign-correct, and within the observed range.
        let h = Histogram::standalone("sat");
        h.record_silent(1e300);
        h.record_silent(-1e300);
        h.record_silent(1e-300);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1e300);
        assert_eq!(h.min(), -1e300);
        let hi = h.percentile(1.0);
        let lo = h.percentile(0.0);
        assert!(hi.is_finite() && hi > 0.0 && hi <= h.max(), "hi={hi}");
        assert!(lo.is_finite() && lo < 0.0 && lo >= h.min(), "lo={lo}");
    }

    #[test]
    fn validate_exposition_rejects_malformed_lines() {
        validate_exposition("# TYPE ok counter\nok 1\nok{a=\"b\"} 2\n").unwrap();
        for bad in [
            "1leading_digit 1",
            "name{a=\"unterminated} 1",
            "name{a=\"bad\\q\"} 1",
            "name{=\"v\"} 1",
            "name{a=\"v\"}1",
            "name notanumber",
            "# TYPE dup counter\n# TYPE dup counter",
            "# TYPE x nonsense",
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn render_text_exposes_all_instruments() {
        let r = Registry::default();
        r.counter("serve.requests.count").inc(2);
        r.gauge("serve.queue.depth").set(3.0);
        r.histogram("serve.latency.us").record_silent(50.0);
        let text = r.render_text();
        assert!(
            text.contains("# TYPE serve_requests_count counter"),
            "{text}"
        );
        assert!(text.contains("serve_requests_count 2"), "{text}");
        assert!(text.contains("serve_queue_depth 3"), "{text}");
        assert!(text.contains("serve_latency_us_count 1"), "{text}");
        assert!(text.contains("quantile=\"0.5\""), "{text}");
        // Empty histograms render finite values, not NaN.
        r.histogram("h.empty");
        assert!(!r.render_text().contains("NaN"));
    }
}
