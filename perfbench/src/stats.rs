//! Arithmetic the benchmark reports with: percentiles from raw samples,
//! the rate-ladder verdict, and before/after deltas of exported counters.

use std::collections::BTreeMap;

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples
/// (the "R-7" definition). `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as a fraction (`0.99` for p99). `None` when even the
/// median has fewer than ten samples above it.
pub fn reportable_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// One step of the fixed rate ladder as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Rung {
    pub offered_rps: f64,
    /// Completed requests per second over the rung's schedule span.
    pub achieved_rps: f64,
    /// Latency (ms, from the due time) at [`reportable_tail`] of the rung.
    pub tail_ms: f64,
    /// Median latency of the first and last quarter of the schedule; a
    /// backlog that grows through the rung shows as a rising median.
    pub first_quarter_p50_ms: f64,
    pub last_quarter_p50_ms: f64,
    pub failed: usize,
}

impl Rung {
    /// Meets the latency limit with no failed request and no backlog that
    /// grew by more than half the limit across the rung.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.tail_ms <= limit_ms
            && self.last_quarter_p50_ms - self.first_quarter_p50_ms <= limit_ms / 2.0
    }
}

/// The highest rung that passes with every lower rung passing too (rungs
/// sorted by offered rate). A pass above a failed rung is noise, not
/// capacity, so the ladder stops at the first failure.
pub fn max_passing_rung(rungs: &[Rung], limit_ms: f64) -> Option<&Rung> {
    let mut best = None;
    for r in rungs {
        if !r.passes(limit_ms) {
            break;
        }
        best = Some(r);
    }
    best
}

/// Prometheus text exposition flattened to `series -> value`, where the
/// series key is the metric name with its label set exactly as printed.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(key.to_string(), v);
            }
        }
    }
    out
}

/// `after - before` per series; a series absent before counts from 0.
pub fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Sum over every label set of a metric family: series named exactly
/// `name` or `name{...}`.
pub fn family_sum(series: &BTreeMap<String, f64>, name: &str) -> f64 {
    series
        .iter()
        .filter(|(k, _)| {
            k.strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// FNV-1a over a byte stream: the output digest recorded with every run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_tail(10_000), Some(0.999));
        assert_eq!(reportable_tail(1_000), Some(0.99));
        assert_eq!(reportable_tail(999), Some(0.95));
        assert_eq!(reportable_tail(200), Some(0.95));
        assert_eq!(reportable_tail(100), Some(0.9));
        assert_eq!(reportable_tail(40), Some(0.75));
        assert_eq!(reportable_tail(20), Some(0.5));
        assert_eq!(reportable_tail(19), None);
    }

    fn rung(rate: f64, tail: f64, first: f64, last: f64, failed: usize) -> Rung {
        Rung {
            offered_rps: rate,
            achieved_rps: rate,
            tail_ms: tail,
            first_quarter_p50_ms: first,
            last_quarter_p50_ms: last,
            failed,
        }
    }

    #[test]
    fn ladder_stops_at_first_failing_rung() {
        let rungs = [
            rung(100.0, 10.0, 5.0, 5.0, 0),
            rung(200.0, 20.0, 5.0, 6.0, 0),
            // Backlog: last-quarter median 40 ms above the first.
            rung(400.0, 45.0, 5.0, 45.0, 0),
            rung(800.0, 10.0, 5.0, 5.0, 0),
        ];
        assert_eq!(max_passing_rung(&rungs, 50.0).unwrap().offered_rps, 200.0);
        // A failed request fails the rung even within the latency limit.
        let failing = [rung(100.0, 10.0, 5.0, 5.0, 1)];
        assert!(max_passing_rung(&failing, 50.0).is_none());
        // Tail over the limit fails.
        assert!(!rung(100.0, 51.0, 5.0, 5.0, 0).passes(50.0));
        assert!(rung(100.0, 50.0, 5.0, 30.0, 0).passes(50.0));
    }

    #[test]
    fn deltas_are_per_series_and_families_sum_labels() {
        let before = parse_exposition(
            "# TYPE serve_cache_hits counter\n\
             serve_cache_hits{schema=\"TPC-H\"} 10\n\
             serve_phase_exec_us_sum{batch_width=\"8\",schema=\"TPC-H\"} 1000.5\n\
             serve_phase_exec_us_count{batch_width=\"8\",schema=\"TPC-H\"} 4\n",
        );
        let after = parse_exposition(
            "serve_cache_hits{schema=\"TPC-H\"} 25\n\
             serve_phase_exec_us_sum{batch_width=\"8\",schema=\"TPC-H\"} 3000.5\n\
             serve_phase_exec_us_count{batch_width=\"8\",schema=\"TPC-H\"} 6\n\
             serve_phase_exec_us_count{batch_width=\"16\",schema=\"TPC-H\"} 3\n\
             serve_phase_exec_us_count_extra 99\n",
        );
        let d = delta(&before, &after);
        assert_eq!(family_sum(&d, "serve_cache_hits"), 15.0);
        assert_eq!(family_sum(&d, "serve_phase_exec_us_sum"), 2000.0);
        // The new label set counts from zero; a longer name is another family.
        assert_eq!(family_sum(&d, "serve_phase_exec_us_count"), 5.0);
        assert_eq!(family_sum(&d, "serve_missing"), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Digest::default();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.update(b"ab");
        c.update(b"c");
        assert_eq!(a.hex(), c.hex());
    }
}
