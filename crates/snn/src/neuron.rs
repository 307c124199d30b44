//! Leaky Integrate-and-Fire neuron with adaptive threshold
//! (paper Fig. 4b dynamics).
//!
//! [`LifConfig`] holds the population's parameters. The dynamics run as
//! SoA lanes in the simulation core: [`Kernel::integrate_lanes`] leaks,
//! integrates and tests the threshold, the network's firing commit
//! resets a spiking lane, raises its threshold and starts its refractory
//! period, and [`Kernel::inhibit_lanes`] applies lateral inhibition.
//!
//! [`Kernel::integrate_lanes`]: crate::kernels::Kernel::integrate_lanes
//! [`Kernel::inhibit_lanes`]: crate::kernels::Kernel::inhibit_lanes

/// How far below `v_rest` lateral inhibition may drive a membrane (mV):
/// the biological hyperpolarisation bound of the inhibition sweep — see
/// [`LifConfig::inhibition_floor`] for the derived absolute floor.
pub const INHIBITION_FLOOR_BELOW_REST_MV: f32 = 20.0;

/// Parameters of the LIF neuron population (millivolts / milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifConfig {
    /// Resting potential the membrane decays towards.
    pub v_rest: f32,
    /// Potential after a spike.
    pub v_reset: f32,
    /// Base firing threshold (before the adaptive component).
    pub v_thresh: f32,
    /// Membrane time constant (ms).
    pub tau_membrane: f32,
    /// Refractory period (ms).
    pub refractory_ms: f32,
    /// Adaptive-threshold increment per spike (homeostasis).
    pub theta_plus: f32,
    /// Adaptive-threshold decay time constant (ms).
    pub tau_theta: f32,
}

impl LifConfig {
    /// Diehl & Cook-style excitatory neuron parameters.
    pub fn excitatory() -> Self {
        Self {
            v_rest: -65.0,
            v_reset: -60.0,
            v_thresh: -52.0,
            tau_membrane: 100.0,
            refractory_ms: 5.0,
            theta_plus: 0.05,
            tau_theta: 1.0e5,
        }
    }

    /// The absolute membrane floor lateral inhibition clamps to:
    /// [`INHIBITION_FLOOR_BELOW_REST_MV`] below `v_rest`.
    pub fn inhibition_floor(&self) -> f32 {
        self.v_rest - INHIBITION_FLOOR_BELOW_REST_MV
    }
}

impl Default for LifConfig {
    fn default() -> Self {
        Self::excitatory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Kernel, LifLanes};
    use crate::network::{commit_firing_slab, SnnConfig};

    fn cfg() -> LifConfig {
        LifConfig::excitatory()
    }

    /// One neuron as one-lane slabs, stepped through the portable
    /// kernel and the network's firing commit — the simulation core's
    /// own calls, at population size 1.
    struct Neuron {
        v: [f32; 1],
        theta: [f32; 1],
        refractory: [f32; 1],
    }

    impl Neuron {
        fn resting(c: &LifConfig) -> Self {
            Self::with_theta(c, 0.0)
        }

        fn with_theta(c: &LifConfig, theta: f32) -> Self {
            Self {
                v: [c.v_rest],
                theta: [theta],
                refractory: [0.0],
            }
        }

        /// Advances 1 ms with drive `input_mv`; `true` if it fired.
        fn step(&mut self, c: &LifConfig, input_mv: f32) -> bool {
            let mut crossed = [false];
            let any = Kernel::Scalar.integrate_lanes(
                c,
                1.0,
                LifLanes {
                    v: &mut self.v,
                    theta: &mut self.theta,
                    refractory: &mut self.refractory,
                    drive: &[input_mv],
                    crossed: &mut crossed,
                },
            );
            let config = SnnConfig {
                lif: *c,
                ..SnnConfig::for_neurons(1)
            };
            let mut counts = [0u32];
            commit_firing_slab(
                &config,
                &mut self.v,
                &mut self.theta,
                &mut self.refractory,
                &crossed,
                &mut Vec::new(),
                &mut counts,
            );
            assert_eq!(any, counts[0] == 1, "a crossing lane fires");
            any
        }

        fn inhibit(&mut self, c: &LifConfig, inhibition_mv: f32) {
            Kernel::Scalar.inhibit_lanes(&mut self.v, inhibition_mv, c.inhibition_floor());
        }
    }

    #[test]
    fn resting_neuron_stays_at_rest() {
        let c = cfg();
        let mut n = Neuron::resting(&c);
        for _ in 0..100 {
            assert!(!n.step(&c, 0.0));
        }
        assert!((n.v[0] - c.v_rest).abs() < 1e-3);
    }

    #[test]
    fn sufficient_input_fires_and_resets() {
        let c = cfg();
        let mut n = Neuron::resting(&c);
        let fired = n.step(&c, 20.0); // 20 mV >> threshold gap (13 mV)
        assert!(fired);
        assert_eq!(n.v[0], c.v_reset);
        assert!(n.theta[0] > 0.0);
    }

    #[test]
    fn refractory_period_blocks_firing() {
        let c = cfg();
        let mut n = Neuron::resting(&c);
        assert!(n.step(&c, 20.0));
        // During the 5 ms refractory window, huge input cannot fire it.
        for _ in 0..5 {
            assert!(!n.step(&c, 50.0));
        }
        // After the window it can fire again.
        assert!(n.step(&c, 50.0));
    }

    #[test]
    fn threshold_adapts_upwards_with_spikes() {
        let c = cfg();
        let count_spikes = |theta: f32| {
            let mut n = Neuron::with_theta(&c, theta);
            (0..50).filter(|_| n.step(&c, 14.0)).count()
        };
        // A raised adaptive threshold must reduce the firing rate for the
        // same drive (homeostasis).
        assert!(count_spikes(10.0) < count_spikes(0.0));
    }

    #[test]
    fn membrane_decays_between_inputs() {
        let c = cfg();
        let mut n = Neuron::resting(&c);
        n.step(&c, 5.0); // sub-threshold kick
        let v_after_kick = n.v[0];
        for _ in 0..50 {
            n.step(&c, 0.0);
        }
        assert!(n.v[0] < v_after_kick, "decays towards rest");
        assert!(n.v[0] > c.v_rest - 0.5);
    }

    #[test]
    fn inhibition_lowers_membrane_with_floor() {
        let c = cfg();
        let mut n = Neuron::resting(&c);
        n.inhibit(&c, 5.0);
        assert!((n.v[0] - (c.v_rest - 5.0)).abs() < 1e-4);
        n.inhibit(&c, 100.0);
        assert!(n.v[0] >= c.inhibition_floor());
    }

    #[test]
    fn inhibition_floor_is_pinned_twenty_mv_below_rest() {
        // Regression pin: the floor used to be a magic `v_rest - 20.0`
        // duplicated across two inhibition paths; it now derives from
        // this one constant, and the excitatory defaults put it at
        // exactly -85 mV.
        assert_eq!(INHIBITION_FLOOR_BELOW_REST_MV, 20.0);
        assert_eq!(cfg().inhibition_floor(), -85.0);
        let mut n = Neuron::resting(&cfg());
        n.inhibit(&cfg(), 1.0e9);
        assert_eq!(
            n.v[0],
            cfg().inhibition_floor(),
            "saturates exactly at the floor"
        );
    }
}
