//! Property-style tests for the approximate-DRAM error substrate:
//! the BER(V) curve must be monotonically non-increasing in voltage, and
//! uniform injection must flip a number of bits consistent with the
//! configured BER within statistical bounds.

use proptest::prelude::*;
use sparkxd::circuit::Volt;
use sparkxd::error::{BerCurve, ErrorModel, Injector};

proptest! {
    /// Raising the supply voltage never raises the bit-error rate, for any
    /// pair of voltages across (and beyond) the paper's operating window.
    #[test]
    fn ber_monotone_non_increasing_in_voltage(v1 in 0.90f64..1.40, v2 in 0.90f64..1.40) {
        let curve = BerCurve::paper_default();
        let (lo, hi) = if v1 < v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(
            curve.ber_at(Volt(hi)) <= curve.ber_at(Volt(lo)),
            "BER rose with voltage: BER({hi}) > BER({lo})"
        );
    }

    /// BERs are probabilities: finite and within [0, 1] over a generous
    /// voltage span.
    #[test]
    fn ber_is_a_probability(v in 0.5f64..2.0) {
        let ber = BerCurve::paper_default().ber_at(Volt(v));
        prop_assert!(ber.is_finite());
        prop_assert!((0.0..=1.0).contains(&ber), "BER {ber} outside [0,1] at {v} V");
    }
}

#[test]
fn ber_curve_anchors_match_paper_fig2c() {
    // Fig. 2(c): nominal voltage is error-free; the lowest operating point
    // (1.025 V) sits around 1e-3.
    let curve = BerCurve::paper_default();
    assert!(curve.ber_at(Volt(1.35)) < 1e-9);
    let lowest = curve.ber_at(Volt(1.025));
    assert!(
        (1e-4..1e-2).contains(&lowest),
        "BER at 1.025 V out of band: {lowest}"
    );
}

/// The inverse lookup must agree with the forward curve: for each paper
/// operating point, `voltage_for_ber(ber_at(v)) ≈ v`.
#[test]
fn voltage_for_ber_inverts_ber_at() {
    let curve = BerCurve::paper_default();
    for v in [1.025, 1.1, 1.175, 1.25] {
        let ber = curve.ber_at(Volt(v));
        let back = curve.voltage_for_ber(ber);
        assert!(
            (back.0 - v).abs() < 0.01,
            "round-trip {v} V -> BER {ber:.3e} -> {} V",
            back.0
        );
    }
}

/// Flip counts follow Binomial(n_bits, ber): the empirical rate averaged
/// over many independent injections must land within 5 sigma of the
/// configured BER. Per-seed draws are checked loosely (8 sigma) so a single
/// unlucky-but-legal draw cannot fail CI while a biased injector still will.
#[test]
fn injected_flip_count_consistent_with_ber() {
    let words = 8192usize;
    let bits_per_word = 32u64;
    let n_bits = (words as u64 * bits_per_word) as f64;

    for ber in [1e-4, 1e-3, 1e-2] {
        let trials = 24;
        let mut total_flips = 0u64;
        for seed in 0..trials {
            let mut weights = vec![0.37f32; words];
            let mut injector = Injector::new(ErrorModel::Model0, 1000 + seed);
            let report = injector.inject_uniform(weights.as_mut_slice(), ber);
            assert_eq!(report.words as usize, words);

            let expected = n_bits * ber;
            let sigma = (n_bits * ber * (1.0 - ber)).sqrt();
            assert!(
                (report.flips as f64 - expected).abs() <= 8.0 * sigma + 1.0,
                "seed {seed}: {} flips vs expected {expected:.1} (sigma {sigma:.1}) at ber {ber}",
                report.flips
            );
            total_flips += report.flips as u64;
        }

        let n = trials as f64;
        let expected = n_bits * n * ber;
        let sigma = (n_bits * n * ber * (1.0 - ber)).sqrt();
        assert!(
            (total_flips as f64 - expected).abs() <= 5.0 * sigma,
            "aggregate {total_flips} flips vs expected {expected:.1} (sigma {sigma:.1}) at ber {ber}"
        );
    }
}

/// Zero BER must flip nothing; the domain's upper edge (BER 0.5, the
/// highest rate `inject_uniform` accepts) must flip close to half of all
/// bits.
#[test]
fn injection_extremes() {
    let mut weights = vec![0.5f32; 256];
    let mut injector = Injector::new(ErrorModel::Model0, 3);
    let report = injector.inject_uniform(weights.as_mut_slice(), 0.0);
    assert_eq!(report.flips, 0);
    assert!(weights.iter().all(|w| *w == 0.5));

    let n_bits = (256 * 32) as f64;
    let mut injector = Injector::new(ErrorModel::Model0, 3);
    let report = injector.inject_uniform(weights.as_mut_slice(), 0.5);
    let expected = n_bits * 0.5;
    let sigma = (n_bits * 0.25).sqrt();
    assert!(
        (report.flips as f64 - expected).abs() <= 6.0 * sigma,
        "BER=0.5 flipped {} bits, expected about {expected:.0}",
        report.flips
    );
}

/// Each injection round advances the injector's internal stream: repeated
/// rounds at the same BER must not reuse the same flip positions (the
/// fault-aware trainer injects every epoch).
#[test]
fn successive_rounds_draw_fresh_errors() {
    let mut injector = Injector::new(ErrorModel::Model0, 11);
    let mut first = vec![0.25f32; 4096];
    injector.inject_uniform(first.as_mut_slice(), 1e-3);
    let mut second = vec![0.25f32; 4096];
    injector.inject_uniform(second.as_mut_slice(), 1e-3);
    assert_ne!(first, second, "two rounds produced identical corruption");
}
