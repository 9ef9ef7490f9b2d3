//! Minimal command-line flag parsing for the experiment binaries
//! (avoids pulling `clap` into the allowed dependency set).

/// Flags shared by every figure binary.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Queries per cell (the paper uses N = 1000; we default lower).
    pub n: usize,
    /// Data scale factor.
    pub scale: f64,
    pub seed: u64,
    /// Training episodes for the learned method.
    pub train: usize,
    /// Lockstep rollout lanes for training and generation (1 = one
    /// episode at a time, the golden-fixture streams).
    pub batch: usize,
    /// Quick mode: shrink everything for a smoke run.
    pub quick: bool,
    /// Restrict to one benchmark (tpch/job/xuetang); `None` = all.
    pub benchmark: Option<String>,
    /// Write observability events to this JSONL file.
    pub trace: Option<String>,
    /// Print the end-of-run metrics summary table.
    pub metrics: bool,
    /// Suppress informational progress output.
    pub quiet: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            n: 200,
            scale: 0.3,
            seed: 42,
            train: 400,
            batch: 1,
            quick: false,
            benchmark: None,
            trace: None,
            metrics: false,
            quiet: false,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`; panics with a usage message on bad input.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = HarnessArgs::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| panic!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--n" => args.n = value("--n").parse().expect("--n: integer"),
                "--scale" => args.scale = value("--scale").parse().expect("--scale: float"),
                "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
                "--train" => args.train = value("--train").parse().expect("--train: integer"),
                "--batch" => {
                    args.batch = value("--batch").parse().expect("--batch: integer");
                    args.batch = args.batch.max(1);
                }
                "--benchmark" => args.benchmark = Some(value("--benchmark")),
                "--quick" => args.quick = true,
                "--trace" => args.trace = Some(value("--trace")),
                "--metrics" => args.metrics = true,
                "--quiet" | "-q" => args.quiet = true,
                "--help" | "-h" => {
                    println!(
                        "flags: --n <queries> --scale <sf> --seed <u64> \
                         --train <episodes> --batch <lanes> \
                         --benchmark <tpch|job|xuetang> --quick \
                         --trace <path.jsonl> --metrics --quiet"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other} (try --help)"),
            }
        }
        if args.quick {
            args.n = args.n.min(40);
            args.train = args.train.min(120);
            args.scale = args.scale.min(0.15);
        }
        args
    }

    /// Applies the observability flags: call once at the top of `main`.
    pub fn init_obs(&self) {
        if self.quiet {
            sqlgen_obs::set_level(sqlgen_obs::Level::Warn);
        }
        if self.metrics {
            sqlgen_obs::enable_metrics();
        }
        if let Some(path) = &self.trace {
            match sqlgen_obs::JsonlSink::create(std::path::Path::new(path)) {
                Ok(sink) => sqlgen_obs::install_sink(std::sync::Arc::new(sink)),
                Err(e) => {
                    sqlgen_obs::obs_error!("cannot create trace file {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    /// Flushes the observability flags: call once at the end of `main`.
    pub fn finish_obs(&self) {
        if self.metrics {
            sqlgen_obs::metrics::summary_table().print();
        }
        if self.trace.is_some() {
            sqlgen_obs::metrics::emit_summary_events();
            sqlgen_obs::clear_sink();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse(&[]);
        assert_eq!(a.n, 200);
        let a = parse(&["--n", "50", "--seed", "7", "--scale", "1.5"]);
        assert_eq!(a.n, 50);
        assert_eq!(a.seed, 7);
        assert!((a.scale - 1.5).abs() < 1e-12);
        assert_eq!(a.batch, 1);
        // 0 is clamped to one lane rather than rejected.
        assert_eq!(parse(&["--batch", "8"]).batch, 8);
        assert_eq!(parse(&["--batch", "0"]).batch, 1);
    }

    #[test]
    fn quick_mode_shrinks() {
        let a = parse(&["--quick"]);
        assert!(a.n <= 40 && a.train <= 120);
    }

    #[test]
    fn benchmark_filter() {
        let a = parse(&["--benchmark", "tpch"]);
        assert_eq!(a.benchmark.as_deref(), Some("tpch"));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        parse(&["--bogus"]);
    }

    /// `--threads` is not a harness flag: rollout width is `--batch`.
    #[test]
    #[should_panic(expected = "unknown flag --threads")]
    fn rejects_threads() {
        parse(&["--threads", "4"]);
    }
}
