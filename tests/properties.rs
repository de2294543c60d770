//! Property-based tests (proptest) on the core invariants: the
//! voltage/frequency curve, the power model, the SDF balance equations,
//! the segmented bus, the DOU, the rate matcher, the SDF→chip mapper and
//! the DSP kernels.

use proptest::prelude::*;
use std::sync::Arc;
use synchro_apps::aes::{decrypt_block, encrypt_block, KeySchedule};
use synchro_apps::mpeg4::{dct8x8, dequantize, idct8x8, quantize};
use synchro_apps::wifi::{convolutional_encode, demodulate, modulate, Modulation, ViterbiDecoder};
use synchro_bus::{BusOp, SegmentConfig, SegmentedBus};
use synchro_dou::ScheduleCompiler;
use synchro_isa::{assemble, DataReg, ProgramBuilder};
use synchro_power::{ColumnActivity, ColumnPower, Technology, TilePowerModel, VfCurve};
use synchro_sdf::{Mapping, SdfGraph};
use synchro_sim::{BusProgram, BusSlot, Chip, Column, ColumnConfig};
use synchro_simd::RateMatcher;
use synchroscalar::mapper::{self, MapperOptions};
use synchroscalar::trace::{normalize, RingBufferSink, Trace, TraceEvent};

proptest! {
    /// The VF curve is monotone and `voltage_for_frequency` always returns a
    /// supply able to sustain the requested frequency.
    #[test]
    fn vf_curve_assignment_is_sufficient(freq in 1.0f64..560.0) {
        let tech = Technology::isca2004();
        let curve = VfCurve::fo4_20(&tech);
        let v = curve.voltage_for_frequency(freq).unwrap();
        prop_assert!(v >= tech.min_voltage - 1e-9);
        prop_assert!(v <= tech.max_voltage + 1e-9);
        prop_assert!(curve.interpolate(v) + 1e-6 >= freq);
        // One step lower must not be sufficient (unless already at the floor).
        if v > tech.min_voltage + 1e-9 {
            prop_assert!(curve.interpolate(v - tech.voltage_step) < freq + 1e-6);
        }
    }

    /// Dynamic power is monotone in tiles, frequency and voltage.
    #[test]
    fn tile_power_is_monotone(
        tiles in 1u32..64,
        freq in 10.0f64..600.0,
        volt in 0.7f64..1.7,
    ) {
        let model = TilePowerModel::new(&Technology::isca2004());
        let p = model.power_mw(tiles, freq, volt);
        prop_assert!(p > 0.0);
        prop_assert!(model.power_mw(tiles + 1, freq, volt) > p);
        prop_assert!(model.power_mw(tiles, freq * 1.1, volt) > p);
        prop_assert!(model.power_mw(tiles, freq, volt + 0.1) > p);
    }

    /// Total column power equals the sum of its parts and never decreases
    /// with extra bus traffic.
    #[test]
    fn column_power_is_consistent(
        tiles in 1u32..32,
        freq in 10.0f64..560.0,
        words in 0.0f64..1e9,
    ) {
        let tech = Technology::isca2004();
        let curve = VfCurve::fo4_20(&tech);
        let voltage = curve.voltage_for_frequency(freq).unwrap();
        let base = ColumnActivity {
            tiles,
            frequency_mhz: freq,
            voltage,
            bus_words_per_second: words,
            bus_length_mm: tech.column_bus_length_mm,
        };
        let p = ColumnPower::estimate(&tech, &base);
        prop_assert!((p.total_mw() - (p.tile_mw + p.interconnect_mw + p.leakage_mw)).abs() < 1e-9);
        let busier = ColumnActivity { bus_words_per_second: words + 1e8, ..base };
        prop_assert!(ColumnPower::estimate(&tech, &busier).total_mw() >= p.total_mw());
    }

    /// For any two-actor SDF edge the repetition vector satisfies the
    /// balance equation exactly and is minimal.
    #[test]
    fn sdf_balance_equation_holds(produce in 1u64..40, consume in 1u64..40) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1, 1);
        let b = g.add_actor("b", 1, 1);
        g.add_edge(a, b, produce, consume, 0).unwrap();
        let reps = g.repetition_vector().unwrap();
        prop_assert_eq!(reps[0] * produce, reps[1] * consume);
        let g_ab = {
            fn gcd(a: u64, b: u64) -> u64 { if b == 0 { a } else { gcd(b, a % b) } }
            gcd(reps[0], reps[1])
        };
        prop_assert_eq!(g_ab, 1, "repetition vector must be minimal");
        // A consistent graph always schedules (it is acyclic).
        prop_assert!(g.schedule().is_ok());
    }

    /// A three-actor chain's buffer bounds are finite and at least the
    /// consumption rate of the downstream actor.
    #[test]
    fn sdf_buffer_bounds_cover_consumption(rate in 1u64..16) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1, 1);
        let b = g.add_actor("b", 1, 1);
        let c = g.add_actor("c", 1, 1);
        g.add_edge(a, b, 1, 1, 0).unwrap();
        g.add_edge(b, c, 1, rate, 0).unwrap();
        let bounds = g.buffer_bounds().unwrap();
        prop_assert!(bounds[1] >= rate);
    }

    /// Disjoint segment groups on the same split never conflict; overlapping
    /// groups always do.
    #[test]
    fn bus_segmentation_isolates_disjoint_groups(gap in 1usize..3) {
        let mut bus = SegmentedBus::isca2004();
        let mut cfg = SegmentConfig::all_closed(8, 4);
        cfg.set(0, gap, false);
        let left_producer = 0usize;
        let right_producer = 3usize;
        let left_consumer = gap.saturating_sub(1).min(gap);
        let right_consumer = gap + 1;
        let ops = [
            BusOp { split: 0, producer: left_producer, consumers: vec![left_consumer] },
            BusOp { split: 0, producer: right_producer, consumers: vec![right_consumer] },
        ];
        prop_assert!(bus.cycle(&cfg, &ops).is_ok());
        // Re-closing the gap makes the same pair of transfers conflict.
        let closed = SegmentConfig::all_closed(8, 4);
        prop_assert!(bus.cycle(&closed, &ops).is_err());
    }

    /// The ZORM rate matcher never exceeds a one-in-1024 error on the
    /// requested stall fraction.
    #[test]
    fn rate_matcher_error_is_bounded(column in 101.0f64..600.0, effective in 100.0f64..600.0) {
        prop_assume!(effective < column);
        let matcher = RateMatcher::for_rates(column, effective).unwrap();
        let want = 1.0 - effective / column;
        prop_assert!((matcher.stall_fraction() - want).abs() <= 1.0 / 1024.0 + 1e-9);
        prop_assert!(matcher.stalls < matcher.period);
    }

    /// The mapper's core invariants across randomized small chains: every
    /// column fires exactly `iterations × reps` times, column cycles equal
    /// `firings × slots` (halt observation is free), and horizontal bus
    /// traffic matches the balance-equation prediction exactly.
    #[test]
    fn mapper_firing_counts_match_repetition_vector(
        p1 in 1u64..4, c1 in 1u64..4,
        p2 in 1u64..4, c2 in 1u64..4,
        cost_a in 1u64..6, cost_b in 1u64..6, cost_c in 1u64..6,
        tiles_a in 1u32..5, tiles_b in 1u32..5, tiles_c in 1u32..5,
        iterations in 1u64..4,
    ) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", cost_a, 4);
        let b = g.add_actor("b", cost_b, 4);
        let c = g.add_actor("c", cost_c, 4);
        g.add_edge(a, b, p1, c1, 0).unwrap();
        g.add_edge(b, c, p2, c2, 0).unwrap();
        let mut m = Mapping::new();
        m.place(a, tiles_a, 1.0);
        m.place(b, tiles_b, 1.0);
        m.place(c, tiles_c, 1.0);
        let options = MapperOptions { iterations, ..MapperOptions::default() };
        let mut compiled = mapper::compile(&g, &m, &options).unwrap();
        let execution = compiled.execute().unwrap();

        let reps = g.repetition_vector().unwrap();
        let expected: Vec<u64> = reps.iter().map(|&r| r * iterations).collect();
        prop_assert_eq!(&execution.firing_counts, &expected);
        prop_assert!(execution.firings_exact());
        for (plan, (&cycles, &firings)) in compiled
            .plans()
            .iter()
            .zip(execution.column_cycles.iter().zip(&expected))
        {
            prop_assert_eq!(cycles, firings * plan.sim_cycles_per_firing);
        }

        // Bus traffic: the simulated words (accounted from measured
        // firings) must equal the tokens-per-iteration analytic model.
        let tokens = g.tokens_per_iteration().unwrap();
        let predicted: u64 = tokens.iter().sum::<u64>() * iterations;
        prop_assert_eq!(execution.predicted_horizontal_words, predicted);
        prop_assert_eq!(execution.simulated_horizontal_words, predicted);
        prop_assert_eq!(execution.horizontal_traffic_error(), 0.0);
    }

    /// `Chip::run`, which advances each column through a whole window in
    /// one loop and issues NOP loops in batches, is bit-identical to the
    /// naive tick-by-tick loop for any divider mix and any cut of the run
    /// into windows, down to every tile's state.  The chip holds three
    /// counting columns (one of which may end in a tile fault), a
    /// mapper-shaped firing column with a DOU on 2-4 tiles with random
    /// enable bits, a ZORM column without a DOU and a random horizontal
    /// bus program; one column may be killed between the first and second
    /// windows.
    #[test]
    fn chip_fast_path_is_bit_identical_to_ticked_run(
        d1 in 1u32..48, d2 in 1u32..48, d3 in 1u32..48,
        iters in 1u32..24,
        first_window in 1u64..1500, second_window in 1u64..1500,
        third_window in 0u64..1500,
        nops in 1u32..64,
        dou_tiles in 2usize..5,
        dou_enabled in any::<u8>(),
        zorm_fraction in 0.3f64..0.95,
        bus_bits in prop::collection::vec(any::<u64>(), 0..4),
        bus_period in 1u64..64,
        bus_iterations in 0u64..8,
        kill in 0usize..10,
        fault in 0usize..6,
    ) {
        const COLUMNS: usize = 5;
        let mut slots: Vec<BusSlot> = bus_bits
            .iter()
            .map(|&bits| BusSlot {
                tick: bits % bus_period,
                from: (bits >> 8) as usize % COLUMNS,
                to: vec![(bits >> 16) as usize % COLUMNS],
                words: 1 + (bits >> 24) % 3,
            })
            .collect();
        slots.sort_by_key(|slot| slot.tick);
        let bus_program = BusProgram::new(bus_period, bus_iterations, 2 * bus_period, slots);
        // The mapper's firing: tag, send, compute, receive; its DOU
        // broadcasts tile 0's word one cycle after the send.
        let mut firing = ProgramBuilder::new();
        firing.counted_loop(iters, |b| {
            b.load_imm(DataReg::new(7), 5);
            b.send();
            b.counted_loop(nops, |b| {
                b.nop();
            });
            b.recv(DataReg::new(2));
        });
        firing.halt();
        let firing = firing.build().unwrap();
        let mut schedule = ScheduleCompiler::new();
        schedule.idle_for(2).push_op(BusOp {
            split: 0,
            producer: 0,
            consumers: (1..dou_tiles).collect(),
        });
        schedule.idle_for(nops as usize);
        let dou = schedule.compile(iters).unwrap();

        let build = |ring: &Arc<RingBufferSink>| {
            let mut chip = Chip::new();
            chip.set_trace(Trace::to(ring.clone()), 0);
            for (i, &d) in [d1, d2, d3].iter().enumerate() {
                let tail = if fault == i { "setp p0, 20000\nld r0, p0, 0\n" } else { "" };
                let src = format!("loop {iters}, 2\nli r0, 1\nadd r1, r1, r0\n{tail}halt\n");
                chip.add_column(Column::new(
                    ColumnConfig::isca2004().with_divider(d),
                    assemble(&src).unwrap(),
                    None,
                ));
            }
            let mut dou_config = ColumnConfig::isca2004().with_divider(d2);
            dou_config.tiles = dou_tiles;
            dou_config.enabled_tiles = (0..dou_tiles).map(|i| dou_enabled >> i & 1 == 1).collect();
            chip.add_column(Column::new(dou_config, firing.clone(), Some(dou.clone())));
            let mut zorm_config = ColumnConfig::isca2004().with_divider(d3);
            zorm_config.rate_matcher = RateMatcher::for_rates(1.0, zorm_fraction);
            chip.add_column(Column::new(zorm_config, firing.clone(), None));
            chip.load_bus_program(bus_program.clone()).unwrap();
            chip
        };
        let (fast_ring, slow_ring) = (
            Arc::new(RingBufferSink::new(1 << 20)),
            Arc::new(RingBufferSink::new(1 << 20)),
        );
        let mut fast = build(&fast_ring);
        let mut slow = build(&slow_ring);
        for (index, window) in [first_window, second_window, third_window].into_iter().enumerate() {
            if index == 1 && kill < COLUMNS {
                for chip in [&mut fast, &mut slow] {
                    let now = chip.stats().reference_cycles;
                    chip.fail_column(kill, now);
                }
            }
            match (fast.run(window), slow.run_ticked(window)) {
                (Ok(fast_ticks), Ok(slow_ticks)) => prop_assert_eq!(fast_ticks, slow_ticks),
                // Chip state after an error is unspecified; the error is not.
                (fast_result, slow_result) => {
                    prop_assert_eq!(format!("{fast_result:?}"), format!("{slow_result:?}"));
                    return Ok(());
                }
            }
            prop_assert_eq!(fast.stats(), slow.stats());
            prop_assert_eq!(fast.column_stats(), slow.column_stats());
            prop_assert_eq!(fast.column_bus_stats(), slow.column_bus_stats());
            prop_assert_eq!(fast.horizontal_stats(), slow.horizontal_stats());
            for index in 0..COLUMNS {
                let (fast_column, slow_column) = (fast.column(index).unwrap(), slow.column(index).unwrap());
                for tile in 0..fast_column.config().tiles {
                    prop_assert_eq!(fast_column.tile(tile), slow_column.tile(tile), "column {} tile {}", index, tile);
                }
            }
            let (fast_events, slow_events) = (fast_ring.events(), slow_ring.events());
            prop_assert_eq!(normalize(&fast_events), normalize(&slow_events));
            // The same events with the same ticks, in any order.  A window
            // issues a bus slot over its whole periods as one event that
            // counts them, stamped at the last, so each such event is
            // first expanded into its occurrences, one period apart.
            let sorted = |events: &[TraceEvent]| {
                let mut keys = Vec::new();
                for event in events {
                    let TraceEvent::BusSlot { chip, tick, from, to, words, count } = event else {
                        keys.push(format!("{event:?}"));
                        continue;
                    };
                    for k in 0..*count {
                        keys.push(format!("{:?}", TraceEvent::BusSlot {
                            chip: *chip,
                            tick: tick - k * bus_period,
                            from: *from,
                            to: to.clone(),
                            words: words / count,
                            count: 1,
                        }));
                    }
                }
                keys.sort();
                keys
            };
            prop_assert_eq!(sorted(&fast_events), sorted(&slow_events));
        }
        prop_assert_eq!(fast_ring.dropped() + slow_ring.dropped(), 0);
    }

    /// AES encryption followed by decryption is the identity for any block
    /// and key.
    #[test]
    fn aes_roundtrip(key in prop::array::uniform16(any::<u8>()), block in prop::array::uniform16(any::<u8>())) {
        let keys = KeySchedule::new(&key);
        prop_assert_eq!(decrypt_block(&encrypt_block(&block, &keys), &keys), block);
    }

    /// DCT → quantise → dequantise → IDCT reconstructs every pixel within
    /// the quantiser's error bound.
    #[test]
    fn dct_quant_roundtrip_error_is_bounded(
        seed in 0u32..10_000,
        qp in 1i32..16,
    ) {
        let mut block = [0i32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            let h = seed
                .wrapping_mul(2654435761)
                .wrapping_add((i as u32).wrapping_mul(2246822519));
            *v = ((h >> 8) % 256) as i32 - 128;
        }
        let recon = idct8x8(&dequantize(&quantize(&dct8x8(&block), qp), qp));
        for (a, b) in block.iter().zip(&recon) {
            // The quantiser loses at most 2·qp per coefficient; the IDCT
            // basis functions have magnitude ≤ 0.25, so the worst-case
            // per-pixel error over 64 coefficients is 64 × 2·qp × 0.25.
            prop_assert!((a - b).abs() <= 32 * qp + 8);
        }
    }

    /// Hard-decision demapping inverts the mapper for every modulation.
    #[test]
    fn modulation_roundtrip(bits in prop::collection::vec(0u8..2, 6)) {
        for modulation in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let n = modulation.bits_per_symbol();
            let symbol = modulate(&bits[..n], modulation);
            prop_assert_eq!(demodulate(symbol, modulation), bits[..n].to_vec());
        }
    }

    /// The Viterbi decoder inverts the convolutional encoder on any clean
    /// input stream.
    #[test]
    fn viterbi_inverts_encoder(info in prop::collection::vec(0u8..2, 1..200)) {
        let coded = convolutional_encode(&info);
        prop_assert_eq!(ViterbiDecoder::decode(&coded), info);
    }
}
