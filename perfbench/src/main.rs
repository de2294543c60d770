//! Time-to-answer benchmark of the Synchroscalar graph-to-silicon
//! pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload map_suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process drives the public API as a closed loop: one client, one
//! request in flight, explorer calls on the library's default thread
//! count.  Set-up (input generation plus a warm-up that calls every
//! layer once) runs several times and is timed separately; the timed
//! region then cycles through the workload's requests for `--seconds`.
//! Host times are the process's CPU time, which leaves out what other
//! guests of a shared host steal, and each request's figure is its
//! fastest run over the passes.  With `--trace 0` the last stdout line
//! reports the end-to-end metrics; with `--trace 1` every other pass
//! records spans around each layer call and the line reports the
//! per-layer metrics.
//! See `METRICS.md`.

mod harness;
mod inputs;
mod pipeline;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use synchroscalar::explorer::ExplorerConfig;
use synchroscalar::trace::json::{self, Value};

use harness::{cpu_ns, Answer, Counts, Ctx};
use stats::{fold, median, percentile, sorted, tail_percentile};
use workloads::{FaultRecovery, LongTrace, MapSuite, Workload};

/// End-to-end metrics: (name, unit, better).  Must match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("answers_per_s", "requests/s", "higher"),
    ("answer_ms_p50", "ms", "lower"),
    ("answer_ms_p90", "ms", "lower"),
    ("sim_cycles_per_s", "cycles/s", "higher"),
    ("board_cycles_per_s", "cycles/s", "higher"),
    ("mapped_power_mw", "mW", "lower"),
    ("recovered_rate_frac", "fraction", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: (name, unit, better).  Must match `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("sdf.busy_ms", "ms", "lower"),
    ("explore.busy_ms", "ms", "lower"),
    ("explore.calls", "count", "lower"),
    ("explore.call_ms_p50", "ms", "lower"),
    ("explore.call_ms_p90", "ms", "lower"),
    ("explore.mappings_evaluated", "count", "lower"),
    ("explore.groupings_examined", "count", "lower"),
    ("explore.states_pruned", "count", "lower"),
    ("explore.threads_used", "count", "higher"),
    ("explore.useful_ratio", "ratio", "higher"),
    ("explore.degraded.busy_ms", "ms", "lower"),
    ("explore.board.busy_ms", "ms", "lower"),
    ("explore.board.splits_tried", "count", "lower"),
    ("explore.comm_pruned", "count", "lower"),
    ("realize.busy_us", "us", "lower"),
    ("route.busy_us", "us", "lower"),
    ("route.frame_slots", "count", "higher"),
    ("route.occupied_slots", "count", "lower"),
    ("route.rejects", "count", "lower"),
    ("compile.busy_ms", "ms", "lower"),
    ("compile.calls", "count", "lower"),
    ("compile_board.busy_ms", "ms", "lower"),
    ("execute.fast.busy_ms", "ms", "lower"),
    ("execute.interpreted.busy_ms", "ms", "lower"),
    ("execute.board.busy_ms", "ms", "lower"),
    ("execute.faulted.busy_ms", "ms", "lower"),
    ("sim.ns_per_cycle", "ns", "lower"),
    ("sim.board_ns_per_cycle", "ns", "lower"),
    ("sim.stalls", "count", "lower"),
    ("sim.detect_ticks", "ticks", "lower"),
    ("sim.column_cycles", "cycles", "lower"),
    ("sim.firings", "count", "lower"),
    ("sim.reference_ticks", "ticks", "lower"),
    ("sim.bus_slots_scheduled", "count", "lower"),
    ("sim.bus_slots_occupied", "count", "lower"),
    ("sim.bridge_words", "words", "lower"),
    ("analyze.busy_us", "us", "lower"),
    ("analyze.events", "count", "lower"),
    ("analyze.unpriced_events", "count", "lower"),
    ("analyze.ring_dropped", "count", "lower"),
    ("analyze.energy_gap_max", "fraction", "lower"),
    ("price.busy_us", "us", "lower"),
    ("bench.span_overhead_pct", "%", "lower"),
    ("bench.unattributed_pct", "%", "lower"),
];

const WORKLOADS: [&str; 3] = ["map_suite", "long_trace", "fault_recovery"];
/// Set-up runs at least this many times, and until it has used this much
/// CPU time; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 9;
const SETUP_MIN_CPU_S: f64 = 1.0;
/// Enough samples that at least ten lie beyond p90.
const MIN_SAMPLES: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_owned());
    }
    Ok(args)
}

fn build(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "map_suite" => Box::new(MapSuite::new(seed)),
        "long_trace" => Box::new(LongTrace::new(seed)?),
        "fault_recovery" => Box::new(FaultRecovery::new(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The (name, unit, better) triples one section of `BENCHMARK.json` lists.
fn declared_metrics(text: &str, section: &str) -> Result<Vec<(String, String, String)>, String> {
    let parsed = json::parse(text)?;
    let entries = parsed
        .get(section)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("a {section} entry lacks {key}"))
            };
            Ok((field("name")?, field("unit")?, field("better")?))
        })
        .collect()
}

fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
    table
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
        .collect()
}

/// Refuse to run when the metric tables drift from `BENCHMARK.json`.
fn check_declared(text: &str) -> Result<(), String> {
    for (section, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        if declared_metrics(text, section)? != owned(table) {
            return Err(format!("the {section} metrics differ from BENCHMARK.json"));
        }
    }
    Ok(())
}

fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".to_owned();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative (steal, total) CPU ticks of the host, from `/proc/stat`.
/// On a shared VM, time stolen by other guests is the main source of
/// run-to-run spread, so the header reports it.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A request's fastest run in the timed region: the least CPU time of
/// the whole request and of its simulation, and its simulated cycles,
/// which are the same on every run.
#[derive(Debug, Clone, Copy)]
struct Fastest {
    cpu_ns: u64,
    chip_exec_ns: u64,
    chip_cycles: u64,
    board_exec_ns: u64,
    board_cycles: u64,
}

impl Fastest {
    fn new(cpu_ns: u64, answer: &Answer) -> Self {
        Fastest {
            cpu_ns,
            chip_exec_ns: answer.chip_exec_ns,
            chip_cycles: answer.chip_cycles,
            board_exec_ns: answer.board_exec_ns,
            board_cycles: answer.board_cycles,
        }
    }

    fn merge(&mut self, other: Fastest) {
        self.cpu_ns = self.cpu_ns.min(other.cpu_ns);
        self.chip_exec_ns = self.chip_exec_ns.min(other.chip_exec_ns);
        self.board_exec_ns = self.board_exec_ns.min(other.board_exec_ns);
    }
}

/// Each request's fastest run over the traced or the untraced passes.
#[derive(Debug, Default)]
struct Tally {
    fastest: Vec<Option<Fastest>>,
    passes: usize,
}

impl Tally {
    fn new(requests: usize) -> Self {
        Tally {
            fastest: vec![None; requests],
            passes: 0,
        }
    }

    fn add(&mut self, index: usize, run: Fastest) {
        match &mut self.fastest[index] {
            Some(best) => best.merge(run),
            slot => *slot = Some(run),
        }
    }

    fn runs(&self) -> impl Iterator<Item = &Fastest> {
        self.fastest.iter().flatten()
    }

    /// CPU time of each answered request's fastest run, ms, ascending.
    fn cpu_ms(&self) -> Vec<f64> {
        sorted(
            &self
                .runs()
                .map(|f| f.cpu_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn cpu_secs(&self) -> f64 {
        self.runs().map(|f| f.cpu_ns as f64 / 1e9).sum()
    }

    fn answers_per_s(&self) -> f64 {
        ratio(self.runs().count() as f64, self.cpu_secs())
    }

    /// Nearest-rank percentile `p` of the fastest request CPU times; 0
    /// when no request was answered.
    fn latency_ms(&self, p: f64) -> f64 {
        let cpu_ms = self.cpu_ms();
        if cpu_ms.is_empty() {
            0.0
        } else {
            percentile(&cpu_ms, p)
        }
    }

    /// Simulated cycles per CPU second of single-chip execution.
    fn chip_rate(&self) -> f64 {
        let (cycles, ns) = self
            .runs()
            .fold((0, 0), |(c, n), f| (c + f.chip_cycles, n + f.chip_exec_ns));
        ratio(cycles as f64 * 1e9, ns as f64)
    }

    /// The same for boards.
    fn board_rate(&self) -> f64 {
        let (cycles, ns) = self.runs().fold((0, 0), |(c, n), f| {
            (c + f.board_cycles, n + f.board_exec_ns)
        });
        ratio(cycles as f64 * 1e9, ns as f64)
    }
}

/// What the timed region measured.
struct Timed {
    attempted: u64,
    failed: u64,
    untraced: Tally,
    traced: Tally,
    /// Answers and layer counts of the first complete pass: one answer per
    /// request, so the modelled quantities repeat exactly for a seed.
    first_answers: Vec<Answer>,
    first_counts: Option<Counts>,
}

/// Cycle through the workload's requests for `seconds`.  A pass is one
/// run over every request in a fixed order; with `trace`, every other
/// pass records spans.  Host figures come from each request's fastest
/// run: on a shared host the same code runs up to 1.7× slower for
/// seconds at a time while a sibling hardware thread is busy, and
/// every run of the benchmark sees some of the undisturbed speed.
fn timed_region(workload: &dyn Workload, ctx: &mut Ctx, seconds: f64, trace: bool) -> Timed {
    let n = workload.len();
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut timed = Timed {
        attempted: 0,
        failed: 0,
        untraced: Tally::new(n),
        traced: Tally::new(n),
        first_answers: Vec::new(),
        first_counts: None,
    };
    let mut traced = false;
    while start.elapsed() < deadline {
        let i = timed.attempted as usize;
        if i.is_multiple_of(n) {
            traced = trace && (i / n).is_multiple_of(2);
            ctx.recorder.enabled = traced;
        }
        ctx.label = workload.label(i % n);
        ctx.recorder.begin_request(timed.attempted);
        let began = cpu_ns();
        let outcome = workload.request(i % n, ctx);
        let cpu = cpu_ns() - began;
        ctx.recorder.end_request();
        timed.attempted += 1;
        let tally = if traced {
            &mut timed.traced
        } else {
            &mut timed.untraced
        };
        match outcome {
            Ok(answer) => {
                tally.add(i % n, Fastest::new(cpu, &answer));
                if timed.first_counts.is_none() {
                    timed.first_answers.push(answer);
                }
            }
            Err(_) => timed.failed += 1,
        }
        if (timed.attempted as usize).is_multiple_of(n) {
            tally.passes += 1;
            if timed.first_counts.is_none() {
                timed.first_counts = Some(ctx.counts.clone());
            }
        }
    }
    timed
}

fn end_to_end(timed: &Timed, setup_s: &[f64]) -> BTreeMap<&'static str, f64> {
    let first = &timed.first_answers;
    let fastest = &timed.untraced;
    let mut m = BTreeMap::new();
    m.insert("answers_per_s", fastest.answers_per_s());
    m.insert("answer_ms_p50", fastest.latency_ms(50.0));
    m.insert("answer_ms_p90", fastest.latency_ms(90.0));
    m.insert("sim_cycles_per_s", fastest.chip_rate());
    m.insert("board_cycles_per_s", fastest.board_rate());
    m.insert("mapped_power_mw", first.iter().map(|a| a.power_mw).sum());
    m.insert(
        "recovered_rate_frac",
        ratio(first.iter().map(|a| a.rate_frac).sum(), first.len() as f64),
    );
    m.insert("setup_s", median(setup_s));
    m.insert("peak_rss_mb", peak_rss_mb());
    m
}

fn per_layer(ctx: &Ctx, timed: &Timed) -> BTreeMap<&'static str, f64> {
    let folded = fold(&ctx.recorder.spans);
    let requests = folded.get("request").map_or(0, |f| f.durations_ns.len()) as f64;
    let per_request = |name: &str, unit_ns: f64| {
        ratio(
            folded.get(name).map_or(0, |f| f.busy_ns) as f64 / unit_ns,
            requests,
        )
    };
    let explore_ms: Vec<f64> = sorted(
        &folded
            .get("explore")
            .map(|f| {
                f.durations_ns
                    .iter()
                    .map(|&ns| ns as f64 / 1e6)
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default(),
    );
    let c = timed.first_counts.as_ref().unwrap_or(&ctx.counts);
    let request_busy = folded.get("request").map_or(0, |f| f.busy_ns) as f64;
    let request_self = folded.get("request").map_or(0, |f| f.self_ns) as f64;

    let mut m = BTreeMap::new();
    m.insert("sdf.busy_ms", per_request("sdf", 1e6));
    m.insert("explore.busy_ms", per_request("explore", 1e6));
    m.insert("explore.calls", c.explore_calls as f64);
    m.insert(
        "explore.call_ms_p50",
        if explore_ms.is_empty() {
            0.0
        } else {
            percentile(&explore_ms, 50.0)
        },
    );
    m.insert(
        "explore.call_ms_p90",
        if explore_ms.is_empty() {
            0.0
        } else {
            percentile(&explore_ms, 90.0)
        },
    );
    m.insert("explore.mappings_evaluated", c.mappings_evaluated as f64);
    m.insert("explore.groupings_examined", c.groupings_examined as f64);
    m.insert("explore.states_pruned", c.states_pruned as f64);
    m.insert("explore.threads_used", c.threads_used as f64);
    m.insert(
        "explore.useful_ratio",
        ratio(c.frontier_points as f64, c.mappings_evaluated as f64),
    );
    m.insert(
        "explore.degraded.busy_ms",
        per_request("explore.degraded", 1e6),
    );
    m.insert("explore.board.busy_ms", per_request("explore.board", 1e6));
    m.insert("explore.board.splits_tried", c.splits_tried as f64);
    m.insert("explore.comm_pruned", c.comm_pruned as f64);
    m.insert("realize.busy_us", per_request("realize", 1e3));
    m.insert("route.busy_us", per_request("route", 1e3));
    m.insert("route.frame_slots", c.route_frame_slots as f64);
    m.insert("route.occupied_slots", c.route_occupied_slots as f64);
    m.insert("route.rejects", c.route_rejects as f64);
    m.insert("compile.busy_ms", per_request("compile", 1e6));
    m.insert("compile.calls", c.compile_calls as f64);
    m.insert("compile_board.busy_ms", per_request("compile_board", 1e6));
    m.insert("execute.fast.busy_ms", per_request("execute.fast", 1e6));
    m.insert(
        "execute.interpreted.busy_ms",
        per_request("execute.interpreted", 1e6),
    );
    m.insert("execute.board.busy_ms", per_request("execute.board", 1e6));
    m.insert(
        "execute.faulted.busy_ms",
        per_request("execute.faulted", 1e6),
    );
    m.insert("sim.ns_per_cycle", ratio(1e9, timed.traced.chip_rate()));
    m.insert(
        "sim.board_ns_per_cycle",
        ratio(1e9, timed.traced.board_rate()),
    );
    m.insert("sim.stalls", c.stalls as f64);
    m.insert(
        "sim.detect_ticks",
        ratio(c.detect_ticks as f64, c.stalls as f64),
    );
    m.insert("sim.column_cycles", c.column_cycles as f64);
    m.insert("sim.firings", c.firings as f64);
    m.insert("sim.reference_ticks", c.reference_ticks as f64);
    m.insert("sim.bus_slots_scheduled", c.bus_slots_scheduled as f64);
    m.insert("sim.bus_slots_occupied", c.bus_slots_occupied as f64);
    m.insert("sim.bridge_words", c.bridge_words as f64);
    m.insert("analyze.busy_us", per_request("analyze", 1e3));
    m.insert("analyze.events", c.analyze_events as f64);
    m.insert("analyze.unpriced_events", c.unpriced_events as f64);
    m.insert("analyze.ring_dropped", c.ring_dropped as f64);
    m.insert("analyze.energy_gap_max", c.energy_gap_max);
    m.insert("price.busy_us", per_request("price", 1e3));
    m.insert(
        "bench.span_overhead_pct",
        (ratio(timed.traced.cpu_secs(), timed.untraced.cpu_secs()) - 1.0) * 100.0,
    );
    m.insert(
        "bench.unattributed_pct",
        ratio(request_self, request_busy) * 100.0,
    );
    m
}

/// The workload-specific name of a metric, printed beside the generic one.
fn alias(workload: &str, name: &str) -> Option<&'static str> {
    match (workload, name) {
        ("fault_recovery", "answers_per_s") => Some("recoveries_per_s"),
        ("fault_recovery", "answer_ms_p50") => Some("recovery_ms_p50"),
        ("fault_recovery", "answer_ms_p90") => Some("recovery_ms_p90"),
        _ => None,
    }
}

fn write_spans(args: &Args, workload: &dyn Workload, ctx: &Ctx) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let spans = ctx
        .recorder
        .spans
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("name".to_owned(), Value::str(s.name)),
                ("start_ns".to_owned(), Value::num(s.start_ns)),
                ("end_ns".to_owned(), Value::num(s.end_ns)),
                (
                    "parent".to_owned(),
                    s.parent.map_or(Value::Null, |p| Value::num(p as u64)),
                ),
                ("request".to_owned(), Value::num(s.request)),
            ])
        })
        .collect();
    let document = Value::Obj(vec![
        ("workload".to_owned(), Value::str(args.workload.as_str())),
        ("seed".to_owned(), Value::num(args.seed)),
        // Request `r` ran request `r % labels.len()` of the pass.
        (
            "labels".to_owned(),
            Value::Arr(
                (0..workload.len())
                    .map(|i| Value::str(workload.label(i)))
                    .collect(),
            ),
        ),
        ("spans".to_owned(), Value::Arr(spans)),
    ]);
    std::fs::write(&path, document.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match std::fs::read_to_string(benchmark_json_path()) {
        Ok(text) => check_declared(&text)?,
        Err(_) => eprintln!("perfbench: BENCHMARK.json not found; metric names unchecked"),
    }
    // Panics are caught per layer call and booked as failed operations;
    // the first message per layer is printed at the end instead.
    std::panic::set_hook(Box::new(|_| {}));

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ExplorerConfig::new(1e6, 64).resolved_threads();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host: nproc={nproc} explorer_threads={threads} rustc=\"{}\" commit={} profile={}",
        env!("PERFBENCH_RUSTC"),
        git_commit(),
        env!("PERFBENCH_PROFILE")
    );
    if threads == 1 {
        println!(
            "# WARNING: the explorer resolves to one thread, so the thread-pool trade-off \
             between map_suite and fault_recovery cannot show on this host"
        );
    }

    let mut setup_s: Vec<f64> = Vec::new();
    let mut prepared = None;
    while setup_s.len() < SETUP_MIN_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_CPU_S {
        let began = cpu_ns();
        let workload = build(&args.workload, args.seed)?;
        // Warm-up, outside the timed region: the first call into a
        // layer costs several times a warm one.
        let mut warm = Ctx::new();
        let warm_up = workload.warm_up();
        let warm_failed = warm_up
            .iter()
            .filter(|&&i| {
                warm.label = workload.label(i);
                workload.request(i, &mut warm).is_err()
            })
            .count() as u64;
        setup_s.push((cpu_ns() - began) as f64 / 1e9);
        prepared = Some((workload, warm, warm_up.len() as u64, warm_failed));
    }
    let (workload, warm, warm_attempted, warm_failed) = prepared.expect("set-up ran");
    println!(
        "# inputs: digest={} requests_per_pass={} setup_repeats={}",
        workload.digest(),
        workload.len(),
        setup_s.len()
    );
    for note in workload.notes() {
        println!("#   {note}");
    }

    let mut ctx = Ctx::new();
    let ticks_before = cpu_ticks();
    let timed = timed_region(workload.as_ref(), &mut ctx, args.seconds, args.trace);
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, cpu_ticks()) {
        println!(
            "# host: {:.1}% of CPU time stolen by other guests during the timed region",
            ratio((steal1 - steal0) as f64, (total1 - total0) as f64) * 100.0
        );
    }
    println!(
        "# timed region: {} untraced and {} traced complete passes; host figures take each request's fastest run",
        timed.untraced.passes, timed.traced.passes
    );
    let attempted = timed.attempted + warm_attempted;
    let failed = timed.failed + warm_failed;

    let metrics = if args.trace {
        per_layer(&ctx, &timed)
    } else {
        end_to_end(&timed, &setup_s)
    };
    let table: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = failed == 0;
    let samples = (timed.attempted - timed.failed) as usize;
    println!(
        "# samples={samples} tail_percentile={} (highest with >=10 samples beyond it)",
        tail_percentile(samples).map_or("none".to_owned(), |p| format!("p{p}"))
    );
    if samples < MIN_SAMPLES {
        println!("# ERROR: {samples} samples leave fewer than ten beyond p90");
        correct = false;
    }
    if timed.first_counts.is_none() {
        println!("# ERROR: no complete pass, so the modelled quantities are partial");
        correct = false;
    }
    let mut reported = Vec::with_capacity(table.len());
    for &(name, unit, _) in table {
        let value = metrics[name];
        if !value.is_finite() {
            println!("# ERROR: {name} is not finite");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        match alias(&args.workload, name) {
            Some(other) => println!("{name:<28} {value:>16.6} {unit}   ({other})"),
            None => println!("{name:<28} {value:>16.6} {unit}"),
        }
        reported.push((
            name.to_owned(),
            Value::Obj(vec![
                ("value".to_owned(), Value::Num(value)),
                ("unit".to_owned(), Value::str(unit)),
            ]),
        ));
    }
    println!(
        "{:<28} {:>16.6} fraction   ({failed} of {attempted} requests failed)",
        "failed_frac",
        failed as f64 / attempted as f64
    );
    for (layer, failures) in ctx.failures.iter().chain(&warm.failures) {
        println!(
            "# FAILED {layer}: {} op(s), first: {}",
            failures.count, failures.first
        );
    }
    if args.trace {
        let path = write_spans(&args, workload.as_ref(), &ctx)?;
        println!(
            "# spans: {} written to {}",
            ctx.recorder.spans.len(),
            path.display()
        );
    }
    let result = Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::num(attempted)),
        ("failed".to_owned(), Value::num(failed)),
        ("metrics".to_owned(), Value::Obj(reported)),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json");
        check_declared(&text).expect("metric tables match");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn figures_take_each_requests_fastest_run() {
        let mut tally = Tally::new(10);
        for scale in [3, 1, 2] {
            for ms in 1..=10u64 {
                let answer = Answer::simulated(0.0, 1.0, ms == 10, 1_000, ms * scale * 100_000);
                tally.add(
                    ms as usize - 1,
                    Fastest::new(ms * scale * 1_000_000, &answer),
                );
            }
        }
        assert_eq!(tally.latency_ms(50.0), 5.0);
        assert_eq!(tally.latency_ms(90.0), 9.0);
        assert_eq!(tally.answers_per_s(), 10.0 / 0.055);
        assert_eq!(tally.chip_rate(), 2_000_000.0);
        assert_eq!(tally.board_rate(), 1_000_000.0);
        assert_eq!(Tally::new(3).latency_ms(90.0), 0.0);
    }

    #[test]
    fn every_metric_is_computed() {
        let timed = Timed {
            attempted: 1,
            failed: 0,
            untraced: Tally::new(1),
            traced: Tally::new(1),
            first_answers: vec![Answer::default()],
            first_counts: None,
        };
        let e2e = end_to_end(&timed, &[0.5]);
        assert!(END_TO_END.iter().all(|m| e2e.contains_key(m.0)));
        assert_eq!(e2e.len(), END_TO_END.len());
        let layers = per_layer(&Ctx::new(), &timed);
        assert!(PER_LAYER.iter().all(|m| layers.contains_key(m.0)));
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
