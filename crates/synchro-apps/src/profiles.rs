//! Synchroscalar mappings of the application suite.
//!
//! An [`AlgorithmProfile`] captures how one algorithmic block of an
//! application was mapped in the paper's evaluation: the tiles it occupies,
//! the per-tile frequency that mapping must sustain to meet the
//! application's data rate (Table 4), the amount of column-bus traffic the
//! mapping generates, and how far the block can usefully be parallelised.
//! [`ApplicationProfile`] groups the blocks of one application together
//! with its throughput target.
//!
//! The per-tile frequencies are the paper's published operating points;
//! the *aggregate work* (`frequency × tiles`) is held constant when a
//! block is re-mapped onto more or fewer tiles, which is how the
//! parallelisation sweeps of Figures 7–10 are generated.  Bus traffic at
//! the reference mapping was calibrated so that the power model reproduces
//! the Table 4 rows; when a block spreads over more tiles its traffic
//! grows proportionally, modelling the communication overhead the paper
//! identifies as a source of diminishing returns.

/// The applications evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Application {
    /// GSM digital down conversion at 64 MS/s.
    Ddc,
    /// Stereo vision at 10 frames/s over 256×256 stereo pairs.
    StereoVision,
    /// 802.11a receive chain at 54 Mbps.
    Wifi80211a,
    /// 802.11a receive chain composed with an AES-based MAC.
    Wifi80211aAes,
    /// MPEG-4 QCIF encoding at 30 frames/s.
    Mpeg4Qcif,
    /// MPEG-4 CIF encoding at 30 frames/s.
    Mpeg4Cif,
}

impl Application {
    /// Every application in Table 4 order.
    pub fn all() -> [Application; 6] {
        [
            Application::Ddc,
            Application::StereoVision,
            Application::Wifi80211a,
            Application::Wifi80211aAes,
            Application::Mpeg4Qcif,
            Application::Mpeg4Cif,
        ]
    }

    /// Human-readable name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Application::Ddc => "DDC",
            Application::StereoVision => "Stereo Vision",
            Application::Wifi80211a => "802.11a",
            Application::Wifi80211aAes => "802.11a + AES",
            Application::Mpeg4Qcif => "MPEG4 QCIF",
            Application::Mpeg4Cif => "MPEG4 CIF",
        }
    }
}

/// One algorithmic block's Synchroscalar mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmProfile {
    /// Block name as it appears in Table 4.
    pub name: &'static str,
    /// Tiles the block occupies in the reference (Table 4) mapping.
    pub reference_tiles: u32,
    /// Per-tile frequency (MHz) the reference mapping requires.
    pub reference_frequency_mhz: f64,
    /// The largest tile count across which the block's work can usefully be
    /// split (1 for serial blocks such as the SVD or Viterbi traceback).
    pub max_parallel_tiles: u32,
    /// Column-bus word traffic (32-bit words per second) generated by the
    /// reference mapping.
    pub reference_bus_words_per_second: f64,
}

impl AlgorithmProfile {
    /// The block's aggregate work in MHz·tiles, invariant under re-mapping.
    pub fn work_mhz_tiles(&self) -> f64 {
        self.reference_frequency_mhz * f64::from(self.reference_tiles)
    }

    /// Per-tile frequency (MHz) required when the block runs on `tiles`
    /// tiles.  Tiles beyond `max_parallel_tiles` sit idle and do not reduce
    /// the frequency further.
    pub fn frequency_for_tiles(&self, tiles: u32) -> f64 {
        let effective = tiles.clamp(1, self.max_parallel_tiles);
        self.work_mhz_tiles() / f64::from(effective)
    }

    /// Column-bus traffic (words per second) when the block runs on `tiles`
    /// tiles.  Traffic scales with the number of communicating tiles.
    pub fn bus_words_for_tiles(&self, tiles: u32) -> f64 {
        let effective = f64::from(tiles.clamp(1, self.max_parallel_tiles));
        self.reference_bus_words_per_second * effective / f64::from(self.reference_tiles.max(1))
    }
}

/// An application's full mapping: its blocks plus the throughput target.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationProfile {
    /// Which application this is.
    pub application: Application,
    /// Throughput description used in reports ("64 MS/s", "54 Mbps", ...).
    pub throughput: &'static str,
    /// The algorithmic blocks in Table 4 order.
    pub algorithms: Vec<AlgorithmProfile>,
    /// The tile-count variants studied in Figure 7 (the first entry is the
    /// reference configuration's total).
    pub parallelization_variants: Vec<u32>,
}

impl ApplicationProfile {
    /// Total tiles of the reference (Table 4) mapping.
    pub fn reference_tiles(&self) -> u32 {
        self.algorithms.iter().map(|a| a.reference_tiles).sum()
    }

    /// Scale the reference allocation to a different total tile budget,
    /// distributing tiles proportionally to each block's reference share
    /// (at least one tile per block, serial blocks never grow beyond their
    /// parallelism limit).  This is how the Figure 7/9/10 parallelisation
    /// variants are constructed.
    pub fn allocation_for_total(&self, total_tiles: u32) -> Vec<u32> {
        let reference_total = self.reference_tiles().max(1);
        let mut allocation: Vec<u32> = self
            .algorithms
            .iter()
            .map(|a| {
                let share = f64::from(a.reference_tiles) / f64::from(reference_total);
                let tiles = (share * f64::from(total_tiles)).round() as u32;
                tiles.clamp(1, a.max_parallel_tiles)
            })
            .collect();
        // Nudge the allocation so it sums to the requested total where
        // possible (never exceeding per-block parallelism limits).
        let mut sum: i64 = allocation.iter().map(|&t| i64::from(t)).sum();
        let target = i64::from(total_tiles);
        let mut guard = 0;
        while sum != target && guard < 256 {
            guard += 1;
            if sum < target {
                // Give a tile to the block with the highest per-tile load
                // that can still grow.
                if let Some((idx, _)) = self
                    .algorithms
                    .iter()
                    .enumerate()
                    .filter(|(i, a)| allocation[*i] < a.max_parallel_tiles)
                    .max_by(|(i, a), (j, b)| {
                        a.frequency_for_tiles(allocation[*i])
                            .partial_cmp(&b.frequency_for_tiles(allocation[*j]))
                            .unwrap()
                    })
                {
                    allocation[idx] += 1;
                    sum += 1;
                } else {
                    break;
                }
            } else {
                // Take a tile from the block with the lowest per-tile load
                // that has more than one tile.
                if let Some((idx, _)) = self
                    .algorithms
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| allocation[*i] > 1)
                    .min_by(|(i, a), (j, b)| {
                        a.frequency_for_tiles(allocation[*i])
                            .partial_cmp(&b.frequency_for_tiles(allocation[*j]))
                            .unwrap()
                    })
                {
                    allocation[idx] -= 1;
                    sum -= 1;
                } else {
                    break;
                }
            }
        }
        allocation
    }

    /// The profile for a given application, with the Table 4 reference
    /// mapping and calibrated bus traffic.
    pub fn of(application: Application) -> Self {
        match application {
            Application::Ddc => ApplicationProfile {
                application,
                throughput: "64 MS/s",
                algorithms: vec![
                    AlgorithmProfile {
                        name: "Digital Mixer",
                        reference_tiles: 8,
                        reference_frequency_mhz: 120.0,
                        max_parallel_tiles: 16,
                        reference_bus_words_per_second: 1.23e8,
                    },
                    AlgorithmProfile {
                        name: "CIC Integrator",
                        reference_tiles: 8,
                        reference_frequency_mhz: 200.0,
                        max_parallel_tiles: 16,
                        reference_bus_words_per_second: 1.04e9,
                    },
                    AlgorithmProfile {
                        name: "CIC Comb",
                        reference_tiles: 2,
                        reference_frequency_mhz: 40.0,
                        max_parallel_tiles: 4,
                        reference_bus_words_per_second: 3.92e8,
                    },
                    AlgorithmProfile {
                        name: "CFIR",
                        reference_tiles: 16,
                        reference_frequency_mhz: 380.0,
                        max_parallel_tiles: 32,
                        reference_bus_words_per_second: 1.11e8,
                    },
                    AlgorithmProfile {
                        name: "PFIR",
                        reference_tiles: 16,
                        reference_frequency_mhz: 370.0,
                        max_parallel_tiles: 32,
                        reference_bus_words_per_second: 6.2e5,
                    },
                ],
                parallelization_variants: vec![14, 26, 50],
            },
            Application::StereoVision => ApplicationProfile {
                application,
                throughput: "10 f/s 256x256 stereo",
                algorithms: vec![
                    AlgorithmProfile {
                        name: "SVD",
                        reference_tiles: 1,
                        reference_frequency_mhz: 500.0,
                        max_parallel_tiles: 1,
                        reference_bus_words_per_second: 1.0e6,
                    },
                    AlgorithmProfile {
                        name: "PFE",
                        reference_tiles: 16,
                        reference_frequency_mhz: 310.0,
                        max_parallel_tiles: 32,
                        reference_bus_words_per_second: 1.0e7,
                    },
                ],
                parallelization_variants: vec![5, 9, 17],
            },
            Application::Wifi80211a => ApplicationProfile {
                application,
                throughput: "54 Mbps RX",
                algorithms: vec![
                    AlgorithmProfile {
                        name: "FFT",
                        reference_tiles: 2,
                        reference_frequency_mhz: 90.0,
                        max_parallel_tiles: 8,
                        reference_bus_words_per_second: 6.6e7,
                    },
                    AlgorithmProfile {
                        name: "De-mod/De-Interleave",
                        reference_tiles: 1,
                        reference_frequency_mhz: 60.0,
                        max_parallel_tiles: 4,
                        reference_bus_words_per_second: 2.2e7,
                    },
                    AlgorithmProfile {
                        name: "Viterbi ACS",
                        reference_tiles: 16,
                        reference_frequency_mhz: 540.0,
                        max_parallel_tiles: 32,
                        reference_bus_words_per_second: 6.78e9,
                    },
                    AlgorithmProfile {
                        name: "Viterbi Traceback",
                        reference_tiles: 1,
                        reference_frequency_mhz: 330.0,
                        max_parallel_tiles: 1,
                        reference_bus_words_per_second: 1.22e8,
                    },
                ],
                parallelization_variants: vec![12, 20, 36],
            },
            Application::Wifi80211aAes => {
                let mut base = ApplicationProfile::of(Application::Wifi80211a);
                base.application = application;
                base.throughput = "54 Mbps RX + AES MAC";
                base.algorithms.push(AlgorithmProfile {
                    name: "AES",
                    reference_tiles: 16,
                    reference_frequency_mhz: 110.0,
                    max_parallel_tiles: 16,
                    reference_bus_words_per_second: 6.46e8,
                });
                base.parallelization_variants = vec![24, 36, 52];
                base
            }
            Application::Mpeg4Qcif => ApplicationProfile {
                application,
                throughput: "QCIF @ 30 f/s",
                algorithms: vec![
                    AlgorithmProfile {
                        name: "Motion Estimation",
                        reference_tiles: 8,
                        reference_frequency_mhz: 70.0,
                        max_parallel_tiles: 32,
                        reference_bus_words_per_second: 2.04e8,
                    },
                    AlgorithmProfile {
                        name: "DCT, Quant, IQ, IDCT",
                        reference_tiles: 2,
                        reference_frequency_mhz: 60.0,
                        max_parallel_tiles: 8,
                        reference_bus_words_per_second: 1.0e7,
                    },
                ],
                parallelization_variants: vec![8, 10, 12],
            },
            Application::Mpeg4Cif => ApplicationProfile {
                application,
                throughput: "CIF @ 30 f/s",
                algorithms: vec![
                    AlgorithmProfile {
                        name: "Motion Estimation",
                        reference_tiles: 8,
                        reference_frequency_mhz: 280.0,
                        max_parallel_tiles: 32,
                        reference_bus_words_per_second: 8.28e8,
                    },
                    AlgorithmProfile {
                        name: "DCT, Quant, IQ, IDCT",
                        reference_tiles: 8,
                        reference_frequency_mhz: 60.0,
                        max_parallel_tiles: 16,
                        reference_bus_words_per_second: 1.0e7,
                    },
                ],
                // Figure 7/10 study MPEG-4 at 8, 12, 20 and 36 tiles.
                parallelization_variants: vec![8, 12, 20, 36],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tile_totals_match_table4() {
        assert_eq!(
            ApplicationProfile::of(Application::Ddc).reference_tiles(),
            50
        );
        assert_eq!(
            ApplicationProfile::of(Application::StereoVision).reference_tiles(),
            17
        );
        assert_eq!(
            ApplicationProfile::of(Application::Wifi80211a).reference_tiles(),
            20
        );
        assert_eq!(
            ApplicationProfile::of(Application::Wifi80211aAes).reference_tiles(),
            36
        );
        assert_eq!(
            ApplicationProfile::of(Application::Mpeg4Qcif).reference_tiles(),
            10
        );
        assert_eq!(
            ApplicationProfile::of(Application::Mpeg4Cif).reference_tiles(),
            16
        );
    }

    #[test]
    fn reference_frequencies_match_table4() {
        let ddc = ApplicationProfile::of(Application::Ddc);
        let freqs: Vec<f64> = ddc
            .algorithms
            .iter()
            .map(|a| a.reference_frequency_mhz)
            .collect();
        assert_eq!(freqs, vec![120.0, 200.0, 40.0, 380.0, 370.0]);
        let wifi = ApplicationProfile::of(Application::Wifi80211a);
        assert_eq!(wifi.algorithms[2].name, "Viterbi ACS");
        assert_eq!(wifi.algorithms[2].reference_frequency_mhz, 540.0);
    }

    #[test]
    fn work_is_invariant_under_remapping() {
        let ddc = ApplicationProfile::of(Application::Ddc);
        let mixer = &ddc.algorithms[0];
        let work = mixer.work_mhz_tiles();
        assert!((work - 960.0).abs() < 1e-9);
        assert!((mixer.frequency_for_tiles(4) - 240.0).abs() < 1e-9);
        assert!((mixer.frequency_for_tiles(16) - 60.0).abs() < 1e-9);
        // Beyond the parallelism limit the frequency stops dropping.
        assert!((mixer.frequency_for_tiles(64) - mixer.frequency_for_tiles(16)).abs() < 1e-9);
    }

    #[test]
    fn serial_blocks_do_not_parallelize() {
        let sv = ApplicationProfile::of(Application::StereoVision);
        let svd = &sv.algorithms[0];
        assert_eq!(svd.max_parallel_tiles, 1);
        assert!((svd.frequency_for_tiles(8) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn bus_traffic_grows_with_parallelism() {
        let wifi = ApplicationProfile::of(Application::Wifi80211a);
        let acs = &wifi.algorithms[2];
        let at_16 = acs.bus_words_for_tiles(16);
        let at_32 = acs.bus_words_for_tiles(32);
        assert!(at_32 > at_16);
        assert!((at_32 / at_16 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_scaling_hits_the_requested_total_when_feasible() {
        let ddc = ApplicationProfile::of(Application::Ddc);
        for &total in &[14u32, 26, 50] {
            let alloc = ddc.allocation_for_total(total);
            assert_eq!(alloc.len(), ddc.algorithms.len());
            let sum: u32 = alloc.iter().sum();
            assert_eq!(sum, total, "allocation {alloc:?} for total {total}");
            assert!(alloc.iter().all(|&t| t >= 1));
        }
        // The reference total reproduces the reference allocation.
        let reference = ddc.allocation_for_total(50);
        let expected: Vec<u32> = ddc.algorithms.iter().map(|a| a.reference_tiles).collect();
        assert_eq!(reference, expected);
    }

    #[test]
    fn allocation_never_exceeds_parallelism_limits() {
        let sv = ApplicationProfile::of(Application::StereoVision);
        let alloc = sv.allocation_for_total(40);
        assert!(alloc[0] <= 1, "SVD must stay on one tile");
        for (a, &t) in sv.algorithms.iter().zip(&alloc) {
            assert!(t <= a.max_parallel_tiles);
        }
    }

    #[test]
    fn aes_composition_extends_the_wifi_profile() {
        let plain = ApplicationProfile::of(Application::Wifi80211a);
        let composed = ApplicationProfile::of(Application::Wifi80211aAes);
        assert_eq!(composed.algorithms.len(), plain.algorithms.len() + 1);
        assert_eq!(composed.algorithms.last().unwrap().name, "AES");
        assert_eq!(composed.reference_tiles(), 36);
    }

    #[test]
    fn application_names_and_enumeration() {
        assert_eq!(Application::all().len(), 6);
        assert_eq!(Application::Ddc.name(), "DDC");
        assert_eq!(Application::Mpeg4Cif.name(), "MPEG4 CIF");
    }

    #[test]
    fn parallelization_variants_match_figure7() {
        assert_eq!(
            ApplicationProfile::of(Application::Ddc).parallelization_variants,
            vec![14, 26, 50]
        );
        assert_eq!(
            ApplicationProfile::of(Application::Wifi80211a).parallelization_variants,
            vec![12, 20, 36]
        );
        assert_eq!(
            ApplicationProfile::of(Application::Mpeg4Cif).parallelization_variants,
            vec![8, 12, 20, 36]
        );
    }
}
