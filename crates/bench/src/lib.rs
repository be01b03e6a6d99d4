//! # sf2d-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§5). One binary per artefact:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table1` | Table 1 — matrix inventory |
//! | `table2` | Table 2 — 100×SpMV times, 6 layouts × 10 matrices × rank counts |
//! | `table3` | Table 3 — com-liveJournal metrics detail |
//! | `table4` | Table 4 — eigensolver times incl. multiconstraint layouts |
//! | `table5` | Table 5 — hollywood-2009 eigensolver metrics detail |
//! | `fig5`   | Figure 5 — SpMV strong scaling curves |
//! | `fig6_7` | Figures 6 & 7 — performance profiles |
//! | `fig8`   | Figure 8 — R-MAT weak scaling |
//! | `fig9`   | Figure 9 — eigensolver strong scaling curves |
//!
//! All binaries accept `--shrink <power-of-2>` (extra downscale of the
//! proxy matrices below their default 1/64-ish scale; default 2),
//! `--procs <csv>` (rank counts; default `64,256,1024,4096`), and
//! `--out <dir>` (where JSON-lines results land; default `results/`).
//! Figures that re-plot Table 2/4 data load those JSON files when present
//! instead of recomputing.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use sf2d_core::prelude::*;
use sf2d_core::sf2d_graph::io::binary;

pub mod perf;

/// The shared header every `BENCH_*.json` tracker file starts with, so
/// the [`perf`] harness (and a human reading a diff) can tell *what*
/// produced the numbers before comparing them: schema version, producing
/// binary, host core count, thread budget, git revision, and a unix
/// timestamp. Comparison excludes the header — it describes provenance,
/// not performance.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BenchMeta {
    /// Bumped when a tracker's row shape changes incompatibly.
    pub schema_version: u32,
    /// The producing binary (`bench_partition`, `bench_scale`, ...).
    pub bin: String,
    /// `available_parallelism` on the producing host.
    pub host_cpus: u64,
    /// The largest thread budget the run used (1 for single-threaded
    /// trackers).
    pub threads: u64,
    /// Short git revision of the producing tree, `"unknown"` outside a
    /// checkout.
    pub git_rev: String,
    /// Seconds since the unix epoch at collection time.
    pub timestamp_unix: u64,
}

/// Current `BenchMeta::schema_version` for all trackers.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

impl BenchMeta {
    /// Collects the header for `bin` with thread budget `threads`.
    pub fn collect(bin: &str, threads: usize) -> BenchMeta {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        BenchMeta {
            schema_version: BENCH_SCHEMA_VERSION,
            bin: bin.to_string(),
            host_cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1) as u64,
            threads: threads as u64,
            git_rev,
            timestamp_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }
}

/// Parsed command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Extra shrink factor on proxy matrices (power of two).
    pub shrink: usize,
    /// Rank counts to sweep.
    pub procs: Vec<usize>,
    /// Output directory for JSON-lines results.
    pub out: PathBuf,
    /// Seeds for eigensolver averaging (paper uses ten; default three).
    pub seeds: Vec<u64>,
    /// Chrome-trace destination (`--trace PATH`, or the `SF2D_TRACE`
    /// environment variable). `None` = tracing off, the default.
    pub trace: Option<PathBuf>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            shrink: 2,
            procs: vec![64, 256, 1024, 4096],
            out: PathBuf::from("results"),
            seeds: vec![11, 22, 33],
            trace: None,
        }
    }
}

/// What every rejected command line prints after its error.
const USAGE: &str = "usage: --shrink N --procs a,b,c --seeds s1,s2 --out DIR --trace FILE";

/// Parses one value of `flag`; `ok` rejects a parsed value.
fn parse_value<T: std::str::FromStr>(
    flag: &str,
    text: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let value = text.parse().ok().filter(ok);
    value.ok_or_else(|| format!("bad value {text:?} for {flag}"))
}

impl HarnessOpts {
    /// Parses `std::env::args()`; a bad command line prints the error and
    /// the usage message and exits with status 2. `SF2D_TRACE` sets the
    /// trace path when `--trace` does not.
    pub fn from_args() -> HarnessOpts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match HarnessOpts::parse(&args) {
            Ok(mut opts) => {
                opts.trace = opts
                    .trace
                    .or_else(|| std::env::var_os("SF2D_TRACE").map(PathBuf::from));
                opts
            }
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses the flags after the program name: `--shrink` a power of
    /// two, `--procs` positive rank counts and `--seeds` integers, both
    /// comma-separated, `--out` and `--trace` paths. Any other flag or
    /// value, or a missing value, is an error naming it.
    pub fn parse(args: &[String]) -> Result<HarnessOpts, String> {
        let mut opts = HarnessOpts::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("missing value after {flag}"));
            match flag.as_str() {
                "--shrink" => {
                    opts.shrink = parse_value(flag, value?, |s: &usize| s.is_power_of_two())?
                }
                "--procs" => {
                    let procs = value?.split(',');
                    opts.procs = procs
                        .map(|t| parse_value(flag, t, |&p: &usize| p > 0))
                        .collect::<Result<_, _>>()?;
                }
                "--seeds" => {
                    let seeds = value?.split(',');
                    opts.seeds = seeds
                        .map(|t| parse_value(flag, t, |_: &u64| true))
                        .collect::<Result<_, _>>()?;
                }
                "--out" => opts.out = PathBuf::from(value?),
                "--trace" => opts.trace = Some(PathBuf::from(value?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(opts)
    }

    /// Ensures the output directory exists and returns the path for a
    /// result file.
    pub fn out_file(&self, name: &str) -> PathBuf {
        fs::create_dir_all(&self.out).expect("create results dir");
        self.out.join(name)
    }
}

/// Median wall-clock nanoseconds of `samples` runs of `f`, after one
/// warmup run (populates caches, sizes workspaces). Shared by the
/// `bench_*` trackers so their numbers are comparable.
pub fn median_ns(samples: usize, mut f: impl FnMut()) -> u64 {
    f();
    let mut times: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Runs `f` with the tracing facade enabled and writes the captured events
/// as a Chrome `trace_event` file at `path` (open it in Perfetto /
/// `chrome://tracing`) plus a markdown critical-path summary next to it at
/// `<path>.md`, analyzed under `machine`'s α-β-γ parameters. Any counters
/// and histograms the traced run recorded are appended to the summary as
/// a "Metrics" section (with p50/p99 columns). Returns `f`'s result and
/// the number of captured events.
pub fn capture_trace<R>(path: &Path, machine: &Machine, f: impl FnOnce() -> R) -> (R, usize) {
    use sf2d_core::sf2d_obs as obs;
    obs::enable();
    let r = f();
    obs::disable();
    let events = obs::take_events();
    let registry = obs::take_registry();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir).expect("create trace dir");
        }
    }
    obs::write_events(path, obs::TraceFormat::Chrome, &events).expect("write chrome trace");
    let mut md = sf2d_core::report::trace_markdown(&events, machine, 5);
    let metrics = obs::sink::registry_markdown(&registry);
    if !metrics.is_empty() {
        md.push_str("\n## Metrics\n\n");
        md.push_str(&metrics);
    }
    fs::write(PathBuf::from(format!("{}.md", path.display())), md).expect("write trace summary");
    (r, events.len())
}

/// Loads (or generates and caches) a proxy matrix at the harness scale.
/// Cached under `target/sf2d-cache/` in the fast binary format so repeated
/// harness runs skip generation.
pub fn load_proxy(cfg: &ProxyConfig, shrink: usize) -> CsrMatrix {
    let scaled = cfg.scaled(shrink);
    let cache_dir = Path::new("target/sf2d-cache");
    // The config hash busts the cache whenever proxy parameters change.
    let cfg_hash = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{scaled:?}").hash(&mut h);
        h.finish()
    };
    let path = cache_dir.join(format!("{}_s{}_{:016x}.csr", cfg.name, shrink, cfg_hash));
    if let Ok(f) = fs::File::open(&path) {
        if let Ok(m) = binary::read_binary_csr(std::io::BufReader::new(f)) {
            return m;
        }
    }
    let m = proxy_matrix(&scaled, 0xF00D ^ shrink as u64);
    if fs::create_dir_all(cache_dir).is_ok() {
        if let Ok(f) = fs::File::create(&path) {
            let _ = binary::write_binary_csr(&m, std::io::BufWriter::new(f));
        }
    }
    m
}

/// The machine model for a proxy run: the base machine with its
/// workload-proportional terms scaled by `paper_nnz / proxy_nnz`, so each
/// proxy nonzero stands in for the right number of real ones and the
/// latency-vs-bandwidth-vs-compute regime matches the paper's full-size
/// runs (see `Machine::with_workload_scale`).
pub fn machine_for(cfg: &ProxyConfig, a: &CsrMatrix, base: Machine) -> Machine {
    let s = cfg.paper_nnz as f64 / a.nnz().max(1) as f64;
    base.with_workload_scale(s.max(1.0))
}

/// Appends JSON-lines records to a results file.
pub fn write_jsonl<T: serde::Serialize>(path: &Path, rows: &[T]) {
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open results file");
    for r in rows {
        writeln!(f, "{}", serde_json::to_string(r).unwrap()).expect("write row");
    }
}

/// Reads JSON-lines records back (for figures that re-plot table data).
pub fn read_jsonl<T: serde::de::DeserializeOwned>(path: &Path) -> Option<Vec<T>> {
    let text = fs::read_to_string(path).ok()?;
    let rows: Result<Vec<T>, _> = text.lines().map(serde_json::from_str).collect();
    rows.ok()
}

/// Renders a crude ASCII log-log strong-scaling chart: one line per method,
/// columns = rank counts. Good enough to see who scales and who flattens.
pub fn ascii_scaling_chart(title: &str, procs: &[usize], series: &[(String, Vec<f64>)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = write!(out, "{:<12}", "method");
    for p in procs {
        let _ = write!(out, "{p:>12}");
    }
    let _ = writeln!(out);
    for (name, times) in series {
        let _ = write!(out, "{name:<12}");
        for t in times {
            let _ = write!(out, "{:>12}", sf2d_core::report::fmt_secs(*t));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<HarnessOpts, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        HarnessOpts::parse(&args)
    }

    #[test]
    fn parse_accepts_a_full_command_line() {
        let opts =
            parse("--shrink 8 --procs 64,4096 --seeds 1,2,3 --out o --trace t.json").unwrap();
        assert_eq!(opts.shrink, 8);
        assert_eq!(opts.procs, [64, 4096]);
        assert_eq!(opts.seeds, [1, 2, 3]);
        assert_eq!(opts.out, PathBuf::from("o"));
        assert_eq!(opts.trace, Some(PathBuf::from("t.json")));
        let defaults = parse("").unwrap();
        assert_eq!((defaults.shrink, defaults.trace), (2, None));
    }

    #[test]
    fn parse_rejects_every_bad_value_with_an_error() {
        for (line, want) in [
            ("--shrink abc", "bad value \"abc\" for --shrink"),
            ("--shrink 0", "bad value \"0\" for --shrink"),
            ("--shrink 6", "bad value \"6\" for --shrink"),
            ("--shrink -2", "bad value \"-2\" for --shrink"),
            ("--procs 64,x", "bad value \"x\" for --procs"),
            ("--procs 64,0", "bad value \"0\" for --procs"),
            ("--procs ,", "bad value \"\" for --procs"),
            ("--seeds 1,,2", "bad value \"\" for --seeds"),
            ("--seeds 1,-2", "bad value \"-2\" for --seeds"),
            ("--shrink", "missing value after --shrink"),
            ("--out o --trace", "missing value after --trace"),
            ("--bogus 1", "unknown flag --bogus"),
        ] {
            assert_eq!(parse(line).unwrap_err(), want, "{line}");
        }
    }

    #[test]
    fn load_proxy_caches_and_roundtrips() {
        let cfg = sf2d_core::sf2d_gen::proxy::by_name("cit-Patents").unwrap();
        let a = load_proxy(cfg, 64);
        let b = load_proxy(cfg, 64); // from cache
        assert_eq!(a, b);
        assert_eq!(a.nrows(), cfg.scaled(64).rows);
    }

    #[test]
    fn jsonl_roundtrip() {
        let dir = std::env::temp_dir().join("sf2d_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.jsonl");
        let _ = std::fs::remove_file(&path);
        let rows = vec![1i32, 2, 3];
        write_jsonl(&path, &rows);
        let back: Vec<i32> = read_jsonl(&path).unwrap();
        assert_eq!(back, rows);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn capture_trace_writes_valid_chrome_json_and_summary() {
        use sf2d_core::sf2d_sim::{Phase, PhaseCost};

        let dir = std::env::temp_dir().join("sf2d_bench_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let machine = Machine::cab();
        let (total, n) = capture_trace(&path, &machine, || {
            let mut ledger = CostLedger::new(machine);
            ledger.superstep_uniform(
                Phase::Expand,
                PhaseCost {
                    msgs: 3,
                    bytes: 4096,
                    flops: 0,
                },
                4,
            );
            ledger.total
        });
        assert!(total > 0.0);
        assert!(n >= 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let x_events = sf2d_core::sf2d_obs::sink::validate_chrome_trace(&text).unwrap();
        assert!(x_events >= 4, "one slice per rank expected, got {x_events}");
        let md = std::fs::read_to_string(format!("{}.md", path.display())).unwrap();
        assert!(md.contains("# Trace summary"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{}.md", path.display()));
    }

    #[test]
    fn chart_renders_all_series() {
        let s = ascii_scaling_chart(
            "demo",
            &[64, 256],
            &[
                ("1D-Block".into(), vec![1.0, 2.0]),
                ("2D-GP".into(), vec![0.5, 0.2]),
            ],
        );
        assert!(s.contains("1D-Block") && s.contains("2D-GP") && s.contains("0.20"));
    }
}
