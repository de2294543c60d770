//! Integration tests spanning the Synchroscalar crates: SDF graphs mapped
//! to columns, cycle-accurate simulation feeding the power pipeline, and
//! the evaluation reproducing the paper's headline behaviour end to end.

use synchro_apps::{Application, ApplicationProfile};
use synchro_bus::BusOp;
use synchro_dou::{PatternCycle, ScheduleCompiler};
use synchro_isa::{assemble, DataReg};
use synchro_power::{Technology, VfCurve};
use synchro_sdf::{Mapping, SdfGraph};
use synchro_sim::{Chip, Column, ColumnConfig};
use synchro_simd::RateMatcher;
use synchroscalar::experiments;
use synchroscalar::mapper::{self, MapperOptions};
use synchroscalar::pipeline::{
    evaluate_application, evaluate_voltage_scaling, savings_percent, EvaluationOptions,
};

/// Build an SDF description of the 802.11a receiver, map it, and check the
/// derived frequencies land on the same voltage steps the paper uses.
#[test]
fn sdf_mapping_feeds_the_voltage_assignment() {
    let mut g = SdfGraph::new();
    // Per OFDM symbol (4 µs, 250 k symbols/s at 54 Mbps): cycle costs are
    // chosen so the aggregate work matches the Table 4 operating points.
    let fft = g.add_actor("fft", 720, 8);
    let demod = g.add_actor("demod", 240, 4);
    let acs = g.add_actor("viterbi-acs", 34_560, 32);
    let traceback = g.add_actor("viterbi-tb", 1_320, 1);
    g.add_edge(fft, demod, 1, 1, 0).unwrap();
    g.add_edge(demod, acs, 1, 1, 0).unwrap();
    g.add_edge(acs, traceback, 1, 1, 0).unwrap();

    assert_eq!(g.repetition_vector().unwrap(), vec![1, 1, 1, 1]);
    let schedule = g.schedule().unwrap();
    assert_eq!(schedule.len(), 4);

    let mut mapping = Mapping::new();
    mapping.place(fft, 2, 1.0);
    mapping.place(demod, 1, 1.0);
    mapping.place(acs, 16, 1.0);
    mapping.place(traceback, 1, 1.0);
    let requirements = mapping.requirements(&g, 250e3).unwrap();

    let tech = Technology::isca2004();
    let curve = VfCurve::fo4_20(&tech);
    let voltages: Vec<f64> = requirements
        .iter()
        .map(|r| curve.voltage_for_frequency(r.frequency_mhz).unwrap())
        .collect();
    assert!((requirements[0].frequency_mhz - 90.0).abs() < 1.0);
    assert!((requirements[2].frequency_mhz - 540.0).abs() < 1.0);
    assert_eq!(voltages, vec![0.8, 0.7, 1.7, 1.2]);
}

/// Run a SIMD kernel on the cycle-accurate column, derive the frequency a
/// column would need for a given sample rate from the measured cycle count,
/// and confirm the rate matcher can throttle a faster column to match.
#[test]
fn simulated_cycle_counts_drive_rate_matching() {
    let program = assemble(
        "setp p0, 0\nsetp p1, 64\nclracc a0\nloop 21, 5\nld r0, p0, 0\nld r1, p1, 0\nmac a0, r0, r1\naddp p0, 1\naddp p1, 1\nmovacc r2, a0\nhalt\n",
    )
    .unwrap();
    let mut column = Column::new(ColumnConfig::isca2004(), program, None);
    let cycles = column.run(10_000).unwrap();
    // 3 setup + 21 taps × 5 + 1 move = 109 issue slots, no stalls; the
    // step on which the controller merely discovers the HALT is not billed.
    assert_eq!(cycles, 109);

    // A 21-tap CFIR at 4 MS/s therefore needs 109 cycles × 4 MHz = 436 MHz
    // on one tile; on a column clocked at 500 MHz the ZORM counter throttles
    // the surplus.
    let required_mhz = cycles as f64 * 4.0;
    let matcher = RateMatcher::for_rates(500.0, required_mhz).unwrap();
    assert!((matcher.stall_fraction() - (1.0 - required_mhz / 500.0)).abs() < 1e-3);
}

/// Two columns in rationally-related clock domains exchange a value through
/// their DOUs and the horizontal bus accounting, and both finish.
#[test]
fn multi_clock_domain_chip_runs_dou_schedules() {
    let producer = assemble("li r7, 77\nsend\nnop\nhalt\n").unwrap();
    let consumer = assemble("nop\nnop\nrecv r4\nhalt\n").unwrap();

    let mut schedule = ScheduleCompiler::new();
    schedule.idle();
    schedule.push(PatternCycle {
        segments: None,
        ops: vec![BusOp {
            split: 2,
            producer: 0,
            consumers: vec![1, 2, 3],
        }],
    });
    schedule.idle();
    let dou = schedule.compile(1).unwrap();

    let mut chip = Chip::new();
    chip.add_column(Column::new(ColumnConfig::isca2004(), producer, Some(dou)));
    chip.add_column(Column::new(
        ColumnConfig::isca2004().with_divider(3),
        consumer,
        None,
    ));
    chip.horizontal_transfer(0, &[1]).unwrap();
    chip.run(1_000).unwrap();
    assert!(chip.all_halted());
    assert_eq!(
        chip.column(0)
            .unwrap()
            .tile(3)
            .unwrap()
            .reg(DataReg::new(7)),
        77,
        "SIMD broadcast loads R7 everywhere"
    );
    assert_eq!(chip.stats().horizontal_transfers, 1);
    let stats = chip.column_stats();
    // Both columns execute the same number of their own clock cycles, but
    // the divider-3 column needs roughly three reference ticks per cycle,
    // so the chip's reference clock runs well past either column count.
    assert!(chip.stats().reference_cycles >= 3 * (stats[1].cycles - 1));
    assert!(chip.stats().reference_cycles > stats[0].cycles);
}

/// The mapper compiles the DDC SDF graph into a five-column chip whose
/// measured behaviour agrees with the analytic pipeline: firing counts
/// match the repetition vector exactly, bus traffic matches the balance
/// equations, and the mapped frequencies land on the Table 4 operating
/// points of the `ApplicationReport`.
#[test]
fn ddc_graph_compiles_runs_and_cross_validates() {
    let (graph, mapping, rate) = mapper::ddc_reference();
    assert_eq!(graph.repetition_vector().unwrap(), vec![4, 4, 1, 1, 1]);
    let options = MapperOptions {
        iterations: 6,
        iteration_rate_hz: rate,
        ..MapperOptions::default()
    };
    let mut compiled = mapper::compile(&graph, &mapping, &options).unwrap();
    assert_eq!(compiled.chip().columns(), 5, "one column per actor");

    let execution = compiled.execute().unwrap();
    assert!(compiled.chip().all_halted());
    assert_eq!(execution.firing_counts, vec![24, 24, 6, 6, 6]);
    assert!(execution.firings_exact());
    // 4 + 4 + 1 + 1 tokens cross the columns per iteration.
    assert_eq!(execution.predicted_horizontal_words, 10 * 6);
    assert!(execution.horizontal_traffic_error() <= 0.10);

    let tech = Technology::isca2004();
    let profile = ApplicationProfile::of(Application::Ddc);
    let report = evaluate_application(&profile, &tech, &EvaluationOptions::default());
    let validation = mapper::cross_validate(&compiled, &execution, &report);
    assert!(
        validation.agrees_within(0.10),
        "worlds disagree: {validation:?}"
    );
    // The mapped frequencies are not merely within 10 % — they reproduce
    // the published operating points exactly.
    for block in &validation.blocks {
        assert!(
            block.frequency_error < 1e-9,
            "{}: mapped {} vs analytic {}",
            block.name,
            block.mapped_frequency_mhz,
            block.analytic_frequency_mhz
        );
    }
}

/// Same cross-validation for the 802.11a receive chain.
#[test]
fn wifi_graph_compiles_runs_and_cross_validates() {
    let (graph, mapping, rate) = mapper::wifi_reference();
    let options = MapperOptions {
        iterations: 4,
        iteration_rate_hz: rate,
        ..MapperOptions::default()
    };
    let mut compiled = mapper::compile(&graph, &mapping, &options).unwrap();
    assert_eq!(compiled.chip().columns(), 4);

    let execution = compiled.execute().unwrap();
    assert!(execution.firings_exact());
    assert_eq!(execution.firing_counts, vec![4, 4, 4, 4]);
    assert!(execution.horizontal_traffic_error() <= 0.10);

    let tech = Technology::isca2004();
    let profile = ApplicationProfile::of(Application::Wifi80211a);
    let report = evaluate_application(&profile, &tech, &EvaluationOptions::default());
    let validation = mapper::cross_validate(&compiled, &execution, &report);
    assert!(
        validation.agrees_within(0.10),
        "worlds disagree: {validation:?}"
    );
    // The Viterbi ACS dominates: its column must carry the smallest
    // divider (fastest clock) and the highest voltage.
    let plans = compiled.plans();
    let acs = &plans[2];
    assert!(plans.iter().all(|p| p.clock_divider >= acs.clock_divider));
    assert!(plans.iter().all(|p| p.voltage <= acs.voltage));
}

/// The full evaluation reproduces the paper's three headline claims:
/// voltage scaling saves 3–32 % per application, Synchroscalar sits within
/// an order of magnitude of ASICs, and it is far better than the DSP.
#[test]
fn headline_claims_hold_end_to_end() {
    let tech = Technology::isca2004();
    let mut savings = Vec::new();
    for app in Application::all() {
        let profile = ApplicationProfile::of(app);
        let (per_column, single) =
            evaluate_voltage_scaling(&profile, &tech, &EvaluationOptions::default());
        savings.push(savings_percent(&per_column, &single));
    }
    assert!(savings.iter().all(|&s| (0.0..60.0).contains(&s)));
    assert!(
        savings.iter().any(|&s| s > 15.0),
        "some application saves a lot"
    );
    assert!(
        savings.iter().any(|&s| s < 10.0),
        "some application saves little"
    );

    for app in [Application::Wifi80211a, Application::Ddc] {
        let ratios = experiments::efficiency_ratios(&tech, app).unwrap();
        assert!(ratios.vs_asic > 1.0, "ASICs stay ahead of Synchroscalar");
        assert!(
            ratios.vs_dsp > 3.0,
            "Synchroscalar beats the DSP comfortably"
        );
    }
}

/// Table 4's reference operating points all fit the supply envelope and the
/// reproduced application totals are within 25 % of the published values.
#[test]
fn table4_totals_track_the_paper() {
    let tech = Technology::isca2004();
    let published = [
        (Application::Ddc, 2427.23),
        (Application::StereoVision, 857.40),
        (Application::Wifi80211a, 3930.53),
        // The paper's printed 802.11a+AES total (2443.68 mW) does not match
        // the sum of its own component rows (4088.09 mW); we compare against
        // the component sum.
        (Application::Wifi80211aAes, 4088.09),
        (Application::Mpeg4Qcif, 47.24),
        (Application::Mpeg4Cif, 370.03),
    ];
    for (app, paper_mw) in published {
        let profile = ApplicationProfile::of(app);
        let report = evaluate_application(&profile, &tech, &EvaluationOptions::default());
        assert!(
            report.feasible(),
            "{} must fit the envelope",
            report.application
        );
        let ratio = report.total_mw() / paper_mw;
        // The AES composition row uses a different FFT mapping in the paper,
        // so give it (and the small MPEG-4 QCIF total) a wider band.
        let (lo, hi) = match app {
            Application::Wifi80211aAes => (0.5, 1.6),
            Application::Mpeg4Qcif => (0.6, 2.0),
            Application::Mpeg4Cif => (0.6, 1.6),
            _ => (0.75, 1.25),
        };
        assert!(
            ratio > lo && ratio < hi,
            "{}: reproduced {:.1} mW vs published {paper_mw} mW (ratio {ratio:.2})",
            report.application,
            report.total_mw()
        );
    }
}

/// The DDC golden chain and the MPEG-4 encoder produce sensible output on
/// generated workloads while their profiles drive the power model — the
/// "same application, two views" consistency check.
#[test]
fn golden_kernels_and_profiles_describe_the_same_applications() {
    use synchro_apps::ddc::DdcChain;
    use synchro_apps::mpeg4::{encode_inter_frame, Frame};

    // DDC: 16× decimation means 1024 ADC samples → 64 baseband samples.
    let mut chain = DdcChain::new(8e6);
    let adc: Vec<i16> = (0..1024)
        .map(|k| ((2.0 * std::f64::consts::PI * 8e6 * k as f64 / 64e6).cos() * 9000.0) as i16)
        .collect();
    assert_eq!(chain.process(&adc).len(), 64);
    let ddc_profile = ApplicationProfile::of(Application::Ddc);
    assert_eq!(
        ddc_profile.algorithms.len(),
        5,
        "five pipeline stages in both views"
    );

    // MPEG-4: a QCIF frame has 99 macroblocks; the profile maps the encoder
    // of exactly that frame size.
    let reference = Frame::qcif();
    let mut current = Frame::qcif();
    current.fill_with(|x, y| ((x + 2 * y) % 256) as u8);
    let (_, stats) = encode_inter_frame(&current, &reference, 4, 1);
    assert_eq!(stats.macroblocks, 99);
    let qcif_profile = ApplicationProfile::of(Application::Mpeg4Qcif);
    assert_eq!(qcif_profile.algorithms.len(), 2);
}
