//! Fast-tier simulation throughput on the paper's reference applications.
//!
//! For the DDC and 802.11a receive chains this bench compiles the
//! reference mapping twice — once per execution tier — runs a
//! million-frame trace on each, asserts the two chips finish **bit
//! identical** (execution report, chip statistics, per-column statistics,
//! horizontal-bus counters), and records the wall-clock speedup of the
//! fast tier, which jumps repeated firings, over the interpreter in
//! `BENCH_sim.json`.  Pass `--quick` to shrink the trace to a thousand
//! frames so CI can smoke the path without timing noise; a quick run
//! prints its record and leaves `BENCH_sim.json` alone.  The committed
//! record is the full run, which must show at least a 100× speedup on
//! the million-frame 802.11a trace.
//!
//! The bench also guards the observability substrate: it times the
//! interpreted DDC with a [`NullSink`] installed against the default
//! disabled trace and requires the overhead below
//! [`MAX_TRACE_OVERHEAD_PCT`] (full runs only).  Pass `--trace <path>`
//! to additionally record a short traced DDC run and write its Chrome
//! `trace_event` timeline to `<path>` (load it in Perfetto or
//! `chrome://tracing`).
//!
//! The fault path is benched too (always on full runs, on quick runs
//! only with `--fault`): a fault-injected DDC — the CFIR column killed
//! mid-run — must reach the same structured [`SimFault`] stall
//! bit-identically on both tiers, and the degraded-mode summary
//! (`experiments::degraded_mode_summary`) is timed and its per-profile
//! recovery shape recorded under the `degraded` key.
//!
//! Trace analytics (always on full runs, on quick runs only with
//! `--analyze`): every traced event of all six reference profiles is
//! priced through the `synchro-power` models on both tiers
//! (`experiments::energy_attribution_summary`) and the event-priced
//! total must agree with the independent report-counter energy within
//! 0.1%; the binding resource and deadline headroom are recorded per
//! profile, and `experiments::explain_infeasibility` must blame the
//! router's `period_overflow` for the single-chip deep pipeline.  Pass
//! `--analyze <path>` to additionally write a Chrome trace of a short
//! DDC run with the attributed power appended as Perfetto counter
//! tracks.

use std::sync::Arc;
use std::time::Instant;

use bench::rule;
use synchroscalar::apps::{deep_pipeline, DEEP_PIPELINE_RATE_HZ};
use synchroscalar::experiments::{
    degraded_mode_summary, energy_attribution_summary, explain_infeasibility, EnergyAttributionRow,
    InfeasibilityExplanation,
};
use synchroscalar::mapper::{
    self, BoardConfig, BoardExecutionReport, CompiledBoard, CompiledChip, ExecutionReport,
    ExecutionTier, FaultedRun, MapperOptions,
};
use synchroscalar::power::Technology;
use synchroscalar::sdf::{ActorId, Mapping, SdfGraph};
use synchroscalar::sim::{FaultPlan, SimFault};
use synchroscalar::trace::analyze::power_timeline;
use synchroscalar::trace::chrome::{chrome_trace, chrome_trace_with_power};
use synchroscalar::trace::{NullSink, RingBufferSink, Trace};

/// Measurement repetitions per tier; the fastest run is recorded (least
/// scheduler interference).
const RUNS: usize = 3;

/// The acceptance floor: the fast tier must beat the interpreter by at
/// least this factor on the full million-frame 802.11a trace.
const REQUIRED_SPEEDUP: f64 = 100.0;

/// Largest tolerated throughput regression from an installed-but-disabled
/// trace sink, in percent of the interpreted DDC run time.
const MAX_TRACE_OVERHEAD_PCT: f64 = 2.0;

struct AppRow {
    application: &'static str,
    frames: u64,
    hyperperiod: u64,
    reference_ticks: u64,
    interpreted_seconds: f64,
    fast_seconds: f64,
    speedup: f64,
}

fn compile_tier(
    graph: &SdfGraph,
    mapping: &Mapping,
    rate: f64,
    frames: u64,
    tier: ExecutionTier,
) -> CompiledChip {
    let options = MapperOptions {
        iterations: frames,
        iteration_rate_hz: rate,
        tier,
        ..MapperOptions::default()
    };
    mapper::compile(graph, mapping, &options).expect("reference mapping compiles")
}

/// Time `execute` on a freshly compiled chip, best of [`RUNS`]; returns
/// the report of the fastest run and its wall-clock seconds.
fn measure(
    graph: &SdfGraph,
    mapping: &Mapping,
    rate: f64,
    frames: u64,
    tier: ExecutionTier,
) -> (ExecutionReport, CompiledChip, f64) {
    let mut best: Option<(ExecutionReport, CompiledChip, f64)> = None;
    for _ in 0..RUNS {
        let mut compiled = compile_tier(graph, mapping, rate, frames, tier);
        let start = Instant::now();
        let report = compiled.execute().expect("reference trace executes");
        let elapsed = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, _, b)| elapsed < *b) {
            best = Some((report, compiled, elapsed));
        }
    }
    best.expect("at least one run")
}

fn measure_app(
    application: &'static str,
    graph: &SdfGraph,
    mapping: &Mapping,
    rate: f64,
    frames: u64,
) -> AppRow {
    let (interpreted_report, interpreted, interpreted_seconds) =
        measure(graph, mapping, rate, frames, ExecutionTier::Interpreted);
    let (fast_report, fast, fast_seconds) =
        measure(graph, mapping, rate, frames, ExecutionTier::Fast);
    // The speedup only counts if the tiers are indistinguishable at the
    // measured scale.
    assert_eq!(
        interpreted_report, fast_report,
        "{application}: execution reports diverge between tiers"
    );
    assert_eq!(
        interpreted.chip().stats(),
        fast.chip().stats(),
        "{application}: chip statistics diverge between tiers"
    );
    assert_eq!(
        interpreted.chip().column_stats(),
        fast.chip().column_stats(),
        "{application}: column statistics diverge between tiers"
    );
    assert_eq!(
        interpreted.chip().horizontal_stats(),
        fast.chip().horizontal_stats(),
        "{application}: horizontal-bus counters diverge between tiers"
    );
    assert!(interpreted_report.firings_exact());
    AppRow {
        application,
        frames,
        hyperperiod: fast_report.hyperperiod,
        reference_ticks: fast_report.reference_ticks,
        interpreted_seconds,
        fast_seconds,
        speedup: interpreted_seconds / fast_seconds.max(1e-12),
    }
}

/// The 24-stage deep pipeline split 12/12 across a 2-chip board (the
/// single-chip mapping is communication-infeasible): times the board
/// driver's co-advance on both tiers.  The board frame is 960 reference
/// ticks, so the trace is shorter than the single-chip ones.
fn measure_board(frames: u64) -> AppRow {
    let graph = deep_pipeline();
    let mut mapping = Mapping::new();
    for (i, actor) in graph.actors().iter().enumerate() {
        mapping.place_on_chip(i / 12, ActorId(i), actor.max_parallel_tiles, 1.0);
    }
    let compile_on = |tier| -> CompiledBoard {
        let options = MapperOptions {
            iterations: frames,
            iteration_rate_hz: DEEP_PIPELINE_RATE_HZ,
            tier,
            ..MapperOptions::default()
        };
        mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default())
            .expect("the 12/12 split compiles")
    };
    let measure_tier = |tier| -> (BoardExecutionReport, CompiledBoard, f64) {
        let mut best: Option<(BoardExecutionReport, CompiledBoard, f64)> = None;
        for _ in 0..RUNS {
            let mut compiled = compile_on(tier);
            let start = Instant::now();
            let report = compiled.execute().expect("board traces execute");
            let elapsed = start.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(_, _, b)| elapsed < *b) {
                best = Some((report, compiled, elapsed));
            }
        }
        best.expect("at least one run")
    };
    let (interpreted_report, interpreted, interpreted_seconds) =
        measure_tier(ExecutionTier::Interpreted);
    let (fast_report, fast, fast_seconds) = measure_tier(ExecutionTier::Fast);
    assert_eq!(
        interpreted_report, fast_report,
        "board: execution reports diverge between tiers"
    );
    for chip in 0..interpreted.chips() {
        assert_eq!(
            interpreted.board().chip(chip).unwrap().stats(),
            fast.board().chip(chip).unwrap().stats(),
            "board: chip {chip} statistics diverge between tiers"
        );
    }
    assert_eq!(
        interpreted.board().bridge_stats(),
        fast.board().bridge_stats(),
        "board: bridge counters diverge between tiers"
    );
    assert!(interpreted_report.firings_exact());
    AppRow {
        application: "board 2x12",
        frames,
        hyperperiod: fast_report.hyperperiod,
        reference_ticks: fast_report.reference_ticks,
        interpreted_seconds,
        fast_seconds,
        speedup: interpreted_seconds / fast_seconds.max(1e-12),
    }
}

struct FaultRow {
    frames: u64,
    killed_column: usize,
    kill_tick: u64,
    stall_tick: u64,
    watchdog_window: u64,
    interpreted_seconds: f64,
    fast_seconds: f64,
}

/// Kill the DDC's CFIR column two frames into a fault-injected run on
/// both tiers.  A killed column never halts, so the chip cannot drain:
/// both tiers must abandon the run with the same structured
/// [`SimFault::Stalled`] outcome, bit identical, and each tier's wall
/// clock is recorded.
fn measure_fault(graph: &SdfGraph, mapping: &Mapping, rate: f64, frames: u64) -> FaultRow {
    let killed_column = 3; // CFIR
    let measure_tier = |tier| -> (FaultedRun, f64) {
        let mut best: Option<(FaultedRun, f64)> = None;
        for _ in 0..RUNS {
            let mut compiled = compile_tier(graph, mapping, rate, frames, tier);
            let mut plan = FaultPlan::none();
            plan.kill_column(0, killed_column, compiled.hyperperiod() * 2);
            let start = Instant::now();
            let run = compiled
                .execute_faulted(&plan)
                .expect("faulted runs terminate with a structured outcome");
            let elapsed = start.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(_, b)| elapsed < *b) {
                best = Some((run, elapsed));
            }
        }
        best.expect("at least one run")
    };
    let (interpreted_run, interpreted_seconds) = measure_tier(ExecutionTier::Interpreted);
    let (fast_run, fast_seconds) = measure_tier(ExecutionTier::Fast);
    assert_eq!(
        interpreted_run, fast_run,
        "fault-injected runs diverge between tiers"
    );
    let SimFault::Stalled {
        reference_cycles,
        window,
    } = interpreted_run
        .fault
        .expect("a dead column starves the chip");
    FaultRow {
        frames,
        killed_column,
        kill_tick: interpreted_run.report.hyperperiod * 2,
        stall_tick: reference_cycles,
        watchdog_window: window,
        interpreted_seconds,
        fast_seconds,
    }
}

struct DegradedSummary {
    seconds: f64,
    rows_json: Vec<String>,
}

/// Time [`degraded_mode_summary`] — the full six-profile + board
/// degradation sweep — and render each row's recovery shape for the
/// perf record: how many single-column losses remap at full rate, the
/// worst rate any loss degrades to, and whether the static fault
/// rejection held.
fn measure_degraded() -> DegradedSummary {
    let start = Instant::now();
    let rows = degraded_mode_summary(&Technology::isca2004());
    let seconds = start.elapsed().as_secs_f64();
    let rows_json = rows
        .iter()
        .map(|row| {
            let full_rate = row.curve.points.iter().filter(|p| p.is_full_rate()).count();
            let worst = row
                .curve
                .points
                .iter()
                .min_by(|a, b| a.rate_hz.total_cmp(&b.rate_hz))
                .expect("curves are non-empty");
            assert!(
                row.curve.is_monotone(),
                "{}: curve not monotone",
                row.application
            );
            assert!(
                row.fault_rejected,
                "{}: static rejection failed",
                row.application
            );
            format!(
                concat!(
                    "      {{\n",
                    "        \"application\": \"{}\",\n",
                    "        \"losses\": {},\n",
                    "        \"full_rate_remaps\": {},\n",
                    "        \"worst_rate\": \"{}/{}\",\n",
                    "        \"infeasible_losses\": {},\n",
                    "        \"fault_rejected\": true\n",
                    "      }}"
                ),
                row.application,
                row.curve.points.len(),
                full_rate,
                worst.rate_num,
                worst.rate_den,
                row.curve.infeasible_losses().len(),
            )
        })
        .collect();
    DegradedSummary { seconds, rows_json }
}

struct AnalysisSection {
    seconds: f64,
    rows: Vec<EnergyAttributionRow>,
    explanation: InfeasibilityExplanation,
}

/// Price every traced event of the six reference profiles on both tiers
/// and gate the event-priced energy against the independent
/// report-counter energy (within 0.1%), then ask the rejection ledger
/// why the 24-stage deep pipeline refuses a single chip: the answer
/// must be the router's `period_overflow`.
fn measure_analysis() -> AnalysisSection {
    let start = Instant::now();
    let rows = energy_attribution_summary(&Technology::isca2004());
    for row in &rows {
        assert_eq!(
            row.unpriced_events, 0,
            "{} [{}]: events escaped the price spec",
            row.application, row.tier
        );
        assert!(
            row.relative_error <= 1e-3,
            "{} [{}]: attribution {:.4}% off the report counters",
            row.application,
            row.tier,
            row.relative_error * 100.0
        );
    }
    let explanation = explain_infeasibility(&deep_pipeline(), DEEP_PIPELINE_RATE_HZ, 64);
    assert!(!explanation.feasible, "the single-chip split must fail");
    assert_eq!(
        explanation.classes.first().map(|c| c.code.as_str()),
        Some("period_overflow"),
        "the dominant rejection must be the router's period overflow"
    );
    AnalysisSection {
        seconds: start.elapsed().as_secs_f64(),
        rows,
        explanation,
    }
}

/// Record a short traced interpreted DDC run and write a Chrome trace
/// with the attributed power appended as Perfetto counter tracks.
fn export_power_timeline(graph: &SdfGraph, mapping: &Mapping, rate: f64, path: &str) {
    let tech = Technology::isca2004();
    let ring = Arc::new(RingBufferSink::new(1 << 22));
    let options = MapperOptions {
        iterations: 8,
        iteration_rate_hz: rate,
        tier: ExecutionTier::Interpreted,
        trace: Trace::to(ring.clone()),
        ..MapperOptions::default()
    };
    let mut compiled =
        mapper::compile(graph, mapping, &options).expect("reference mapping compiles");
    let report = compiled.execute().expect("reference trace executes");
    assert_eq!(ring.dropped(), 0, "trace ring overflowed");
    let events = ring.events();
    let spec = compiled.price_spec(&tech);
    let power = power_timeline(&events, &spec, report.reference_ticks, 64);
    std::fs::write(path, chrome_trace_with_power(&events, &power)).expect("write power timeline");
    println!("Chrome trace with power counter tracks written to {path}");
}

/// Least repetitions per arm for the NullSink overhead measurement.  The
/// two arms run identical code (see below), so the gate is pure
/// noise-rejection: many short repetitions rather than a few long ones,
/// run in interleaved pairs that alternate which arm goes first, so
/// background load and cache warm-up hit both arms of a pair alike.  The
/// gate reads the median of the pairs' time ratios.  A slow host state
/// slows both runs of a pair alike, even one that outlasts the whole
/// measurement, where the ratio of the two arms' fastest repetitions
/// can stray past the bound.
const OVERHEAD_MIN_RUNS: usize = 101;

/// Least timed seconds per arm on a full run.  Repetitions continue past
/// [`OVERHEAD_MIN_RUNS`] until each arm has spent this long, so the pairs
/// span the same stretch of host time however fast a repetition gets.
const OVERHEAD_MIN_SECONDS: f64 = 2.0;

/// Time the interpreted DDC in interleaved pairs — default disabled trace
/// vs an installed [`NullSink`] — for at least [`OVERHEAD_MIN_RUNS`]
/// pairs and until each arm has spent `min_seconds`, and return
/// `(off_seconds, null_seconds, overhead_pct, runs)`: each arm's fastest
/// repetition, the median over pairs of the NullSink run's extra time in
/// percent, and the pairs run.  [`Trace::to`] collapses disabled sinks,
/// so the two arms must be indistinguishable; the gate catches any change
/// that lets a disabled sink reach the hot loops.
fn measure_trace_overhead(
    graph: &SdfGraph,
    mapping: &Mapping,
    rate: f64,
    frames: u64,
    min_seconds: f64,
) -> (f64, f64, f64, usize) {
    let time_once = |trace: &Trace| -> f64 {
        let options = MapperOptions {
            iterations: frames,
            iteration_rate_hz: rate,
            tier: ExecutionTier::Interpreted,
            trace: trace.clone(),
            ..MapperOptions::default()
        };
        let mut compiled =
            mapper::compile(graph, mapping, &options).expect("reference mapping compiles");
        let start = Instant::now();
        compiled.execute().expect("reference trace executes");
        start.elapsed().as_secs_f64()
    };
    // Arm 0 is the default disabled trace, arm 1 the installed NullSink.
    let arms = [Trace::off(), Trace::to(Arc::new(NullSink))];
    let mut best = [f64::INFINITY; 2];
    let mut spent = [0.0f64; 2];
    let mut ratios = Vec::new();
    while ratios.len() < OVERHEAD_MIN_RUNS || spent[0].min(spent[1]) < min_seconds {
        let run = ratios.len();
        let mut pair = [0.0f64; 2];
        for arm in [run % 2, 1 - run % 2] {
            pair[arm] = time_once(&arms[arm]);
            best[arm] = best[arm].min(pair[arm]);
            spent[arm] += pair[arm];
        }
        ratios.push(pair[1] / pair[0].max(1e-12));
    }
    ratios.sort_by(f64::total_cmp);
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    (best[0], best[1], overhead_pct, ratios.len())
}

/// Record a short traced interpreted DDC run and write its Chrome
/// `trace_event` timeline to `path`.
fn export_timeline(graph: &SdfGraph, mapping: &Mapping, rate: f64, path: &str) {
    let ring = Arc::new(RingBufferSink::new(1 << 22));
    let options = MapperOptions {
        iterations: 8,
        iteration_rate_hz: rate,
        tier: ExecutionTier::Interpreted,
        trace: Trace::to(ring.clone()),
        ..MapperOptions::default()
    };
    let mut compiled =
        mapper::compile(graph, mapping, &options).expect("reference mapping compiles");
    compiled.execute().expect("reference trace executes");
    assert_eq!(ring.dropped(), 0, "trace ring overflowed");
    std::fs::write(path, chrome_trace(&ring.events())).expect("write Chrome trace");
    println!("Chrome trace timeline written to {path}");
}

fn row_json(row: &AppRow) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"application\": \"{}\",\n",
            "      \"frames\": {},\n",
            "      \"hyperperiod\": {},\n",
            "      \"reference_ticks\": {},\n",
            "      \"interpreted_seconds\": {:.6},\n",
            "      \"fast_seconds\": {:.9},\n",
            "      \"speedup\": {:.1},\n",
            "      \"bit_identical\": true\n",
            "    }}"
        ),
        row.application,
        row.frames,
        row.hyperperiod,
        row.reference_ticks,
        row.interpreted_seconds,
        row.fast_seconds,
        row.speedup,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // The fault path always runs on full records; quick runs opt in.
    let fault = !quick || args.iter().any(|a| a == "--fault");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace requires a path").clone());
    // Trace analytics mirror the fault path: always on full records,
    // opt-in on quick runs.  The path operand is optional (`--analyze`
    // alone gates without exporting).
    let analyze_flag = args.iter().position(|a| a == "--analyze");
    let analyze = !quick || analyze_flag.is_some();
    let analyze_path = analyze_flag
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned();
    let frames: u64 = if quick { 1_000 } else { 1_000_000 };

    let ddc = mapper::ddc_reference();
    let wifi = mapper::wifi_reference();
    let apps: [(&'static str, &SdfGraph, &Mapping, f64); 2] = [
        ("ddc", &ddc.0, &ddc.1, ddc.2),
        ("802.11a", &wifi.0, &wifi.1, wifi.2),
    ];

    println!(
        "Fast-tier simulation throughput ({} frames per application, best of {RUNS} runs):",
        frames
    );
    rule(92);
    println!(
        "{:<12} {:>12} {:>14} {:>16} {:>14} {:>14}",
        "Application", "Frames", "Hyperperiod", "Interpreted s", "Fast s", "Speedup"
    );
    rule(92);
    let mut rows = Vec::new();
    for (application, graph, mapping, rate) in apps {
        let row = measure_app(application, graph, mapping, rate, frames);
        println!(
            "{:<12} {:>12} {:>14} {:>16.4} {:>14.6} {:>13.0}x",
            row.application,
            row.frames,
            row.hyperperiod,
            row.interpreted_seconds,
            row.fast_seconds,
            row.speedup
        );
        rows.push(row);
    }
    // The multi-chip board row: a 960-tick frame makes full traces far
    // heavier per frame than the single-chip apps, so it runs 1% of the
    // frames.
    let board_row = measure_board(frames / 100);
    println!(
        "{:<12} {:>12} {:>14} {:>16.4} {:>14.6} {:>13.0}x",
        board_row.application,
        board_row.frames,
        board_row.hyperperiod,
        board_row.interpreted_seconds,
        board_row.fast_seconds,
        board_row.speedup
    );
    rows.push(board_row);
    rule(92);

    // Disabled-path trace overhead: an installed NullSink must not slow
    // the interpreted DDC measurably.  2,500 frames per repetition on a
    // full run, repeated until each arm has spent `OVERHEAD_MIN_SECONDS`;
    // quick runs, which do not gate, stop at `OVERHEAD_MIN_RUNS`.
    let overhead_frames = frames / 400;
    let overhead_seconds = if quick { 0.0 } else { OVERHEAD_MIN_SECONDS };
    let (trace_off_seconds, trace_null_seconds, trace_overhead_pct, overhead_runs) =
        measure_trace_overhead(&ddc.0, &ddc.1, ddc.2, overhead_frames, overhead_seconds);
    println!(
        "NullSink overhead (interpreted ddc, {} frames, {} interleaved pairs): \
         best off {:.4}s, best null {:.4}s, median pair {:+.2}%",
        overhead_frames, overhead_runs, trace_off_seconds, trace_null_seconds, trace_overhead_pct
    );

    // The fault row (injected CFIR kill, both tiers) and the degraded-
    // mode sweep.  The faulted run executes nearly the whole trace
    // before the watchdog verdict, so it uses 1% of the frames.
    let fault_section = fault.then(|| {
        let row = measure_fault(&ddc.0, &ddc.1, ddc.2, frames / 100);
        println!(
            "Fault injection (ddc, {} frames, column {} killed at tick {}): stalled at tick {}, \
             interpreted {:.4}s, fast {:.4}s, bit identical",
            row.frames,
            row.killed_column,
            row.kill_tick,
            row.stall_tick,
            row.interpreted_seconds,
            row.fast_seconds
        );
        let degraded = measure_degraded();
        println!(
            "Degraded-mode sweep ({} profiles): {:.3}s",
            degraded.rows_json.len(),
            degraded.seconds
        );
        (row, degraded)
    });

    // Trace analytics: attribution-vs-counters agreement across all
    // profiles and tiers, plus the ranked infeasibility explanation.
    let analysis_section = analyze.then(|| {
        let section = measure_analysis();
        let worst = section
            .rows
            .iter()
            .map(|r| r.relative_error)
            .fold(0.0f64, f64::max);
        println!(
            "Energy attribution ({} profile/tier rows): worst disagreement {:.4}%, {:.3}s",
            section.rows.len(),
            worst * 100.0,
            section.seconds
        );
        for row in &section.rows {
            println!(
                "  {:<14} [{:<11}] {:>9.3} µJ  {:>8.1} mW  binding {} ({:.0}%, {} ticks headroom)",
                row.application,
                row.tier,
                row.attributed_j * 1e6,
                row.average_power_mw,
                row.binding,
                row.binding_utilization * 100.0,
                row.headroom_ticks
            );
        }
        let dominant = section.explanation.classes.first().expect("rejections");
        println!(
            "Explain infeasibility (deep pipeline, 1 chip): {} ×{} — {}",
            dominant.code, dominant.count, dominant.example
        );
        section
    });

    if let Some(path) = &trace_path {
        export_timeline(&ddc.0, &ddc.1, ddc.2, path);
    }
    if let Some(path) = &analyze_path {
        export_power_timeline(&ddc.0, &ddc.1, ddc.2, path);
    }

    if !quick {
        assert!(
            trace_overhead_pct < MAX_TRACE_OVERHEAD_PCT,
            "disabled trace sink must cost under {MAX_TRACE_OVERHEAD_PCT}% on the interpreted \
             DDC trace, measured {trace_overhead_pct:+.2}%"
        );
        let wifi_row = rows
            .iter()
            .find(|r| r.application == "802.11a")
            .expect("802.11a row");
        assert!(
            wifi_row.speedup >= REQUIRED_SPEEDUP,
            "fast tier must be at least {REQUIRED_SPEEDUP}x faster on the million-frame \
             802.11a trace, measured {:.1}x",
            wifi_row.speedup
        );
    }

    // The fault and degraded blocks are `null` when the fault path was
    // skipped (quick runs without `--fault`), so the schema is stable.
    let (fault_json, degraded_json) = match &fault_section {
        Some((row, degraded)) => (
            format!(
                concat!(
                    "{{\n",
                    "    \"application\": \"ddc\",\n",
                    "    \"frames\": {},\n",
                    "    \"killed_column\": {},\n",
                    "    \"kill_tick\": {},\n",
                    "    \"stall_tick\": {},\n",
                    "    \"watchdog_window\": {},\n",
                    "    \"interpreted_seconds\": {:.6},\n",
                    "    \"fast_seconds\": {:.6},\n",
                    "    \"bit_identical\": true\n",
                    "  }}"
                ),
                row.frames,
                row.killed_column,
                row.kill_tick,
                row.stall_tick,
                row.watchdog_window,
                row.interpreted_seconds,
                row.fast_seconds,
            ),
            format!(
                concat!(
                    "{{\n",
                    "    \"seconds\": {:.6},\n",
                    "    \"profiles\": [\n",
                    "{}\n",
                    "    ]\n",
                    "  }}"
                ),
                degraded.seconds,
                degraded.rows_json.join(",\n"),
            ),
        ),
        None => ("null".to_owned(), "null".to_owned()),
    };

    // The analysis block is `null` when analytics were skipped (quick
    // runs without `--analyze`), so the schema is stable.
    let analysis_json = match &analysis_section {
        Some(section) => {
            let profile_rows: Vec<String> = section
                .rows
                .iter()
                .map(|row| {
                    format!(
                        concat!(
                            "      {{\n",
                            "        \"application\": \"{}\",\n",
                            "        \"tier\": \"{}\",\n",
                            "        \"attributed_uj\": {:.6},\n",
                            "        \"report_uj\": {:.6},\n",
                            "        \"relative_error_pct\": {:.6},\n",
                            "        \"average_power_mw\": {:.3},\n",
                            "        \"binding\": \"{}\",\n",
                            "        \"binding_utilization\": {:.4},\n",
                            "        \"headroom_ticks\": {},\n",
                            "        \"unpriced_events\": 0\n",
                            "      }}"
                        ),
                        row.application,
                        row.tier,
                        row.attributed_j * 1e6,
                        row.report_j * 1e6,
                        row.relative_error * 100.0,
                        row.average_power_mw,
                        row.binding,
                        row.binding_utilization,
                        row.headroom_ticks,
                    )
                })
                .collect();
            let dominant = section.explanation.classes.first().expect("rejections");
            format!(
                concat!(
                    "{{\n",
                    "    \"seconds\": {:.6},\n",
                    "    \"infeasibility\": {{\n",
                    "      \"case\": \"deep_pipeline on 1 chip\",\n",
                    "      \"dominant_code\": \"{}\",\n",
                    "      \"dominant_count\": {},\n",
                    "      \"example\": \"{}\"\n",
                    "    }},\n",
                    "    \"profiles\": [\n",
                    "{}\n",
                    "    ]\n",
                    "  }}"
                ),
                section.seconds,
                dominant.code,
                dominant.count,
                dominant.example,
                profile_rows.join(",\n"),
            )
        }
        None => "null".to_owned(),
    };

    let rows_json: Vec<String> = rows.iter().map(row_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sim\",\n",
            "  \"schema_version\": 6,\n",
            "  \"generated_at\": \"{}\",\n",
            "  \"quick\": {},\n",
            "  \"runs_per_tier\": {},\n",
            "  \"required_speedup\": {:.1},\n",
            "  \"trace_overhead\": {{\n",
            "    \"frames\": {},\n",
            "    \"runs\": {},\n",
            "    \"min_seconds_per_arm\": {:.1},\n",
            "    \"off_seconds\": {:.6},\n",
            "    \"null_sink_seconds\": {:.6},\n",
            "    \"overhead_pct\": {:.3},\n",
            "    \"max_overhead_pct\": {:.1}\n",
            "  }},\n",
            "  \"fault\": {},\n",
            "  \"degraded\": {},\n",
            "  \"analysis\": {},\n",
            "  \"applications\": [\n",
            "{}\n",
            "  ]\n",
            "}}\n"
        ),
        synchroscalar::trace::iso8601_utc_now(),
        quick,
        RUNS,
        REQUIRED_SPEEDUP,
        overhead_frames,
        overhead_runs,
        overhead_seconds,
        trace_off_seconds,
        trace_null_seconds,
        trace_overhead_pct,
        MAX_TRACE_OVERHEAD_PCT,
        fault_json,
        degraded_json,
        analysis_json,
        rows_json.join(",\n"),
    );
    if quick {
        // A quick run's thousand-frame figures are a smoke check, not a
        // record: print them and leave the committed record alone.
        println!("\nQuick run record (BENCH_sim.json left unchanged):\n{json}");
    } else {
        std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
        println!("\nPerf record written to BENCH_sim.json");
    }
}
