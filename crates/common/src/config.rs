//! Configuration for the cloud model, the tuner and the experiments.
//!
//! Defaults reproduce Table 3 of the paper.

use crate::money::Money;
use crate::time::SimDuration;

/// Cloud provider model: container capacity and pricing.
///
/// Containers are homogeneous (one CPU, one disk), as the paper assumes.
/// Pricing is pluggable: the scheduler and tuner only ever read
/// `vm_price_per_quantum` and `storage_price_per_mb_quantum`, so a
/// different provider model is a matter of constructing a different
/// `CloudConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudConfig {
    /// Billing quantum `Q` (default 60 s).
    pub quantum: SimDuration,
    /// Price `Mc` of one container for one quantum (default $0.1).
    pub vm_price_per_quantum: Money,
    /// Price `Mst` of storing one MB for one quantum (default $1e-4).
    pub storage_price_per_mb_quantum: Money,
    /// Maximum number of containers the service may lease (default 100).
    pub max_containers: u32,
    /// Capacity of each container's local disk cache in bytes
    /// (default 100 GB).
    pub disk_capacity_bytes: u64,
    /// Network bandwidth between containers and the storage service in
    /// bytes/second (default 1 Gbps = 125 MB/s).
    pub network_bandwidth: f64,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            quantum: SimDuration::from_secs(60),
            vm_price_per_quantum: Money::from_dollars(0.1),
            storage_price_per_mb_quantum: Money::from_dollars(1e-4),
            max_containers: 100,
            disk_capacity_bytes: 100 * 1024 * 1024 * 1024,
            network_bandwidth: 1e9 / 8.0,
        }
    }
}

impl CloudConfig {
    /// Seconds needed to move `bytes` over the network.
    pub fn network_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.network_bandwidth)
    }
}

/// Online auto-tuner parameters (§4–5).
#[derive(Debug, Clone, PartialEq)]
pub struct TunerConfig {
    /// Time–money trade-off `α ∈ [0,1]`; large α favours time (default 0.5).
    pub alpha: f64,
    /// Gain fading controller `D` in quanta: `dc(t) = e^{-t/D}`
    /// (default 1 quantum).
    pub fading_d: f64,
    /// Sliding-window size `W` in quanta over which historical dataflows
    /// contribute gain when evaluating an index (default 120 quanta —
    /// long enough that an index reused every several dataflows survives
    /// between uses in a saturated service, short enough that a phase
    /// change still retires the previous phase's index set; the paper
    /// leaves its experimental `W` unstated).
    pub window_w: f64,
    /// Horizon in quanta over which `st(idx, W)` charges storage in the
    /// money gain (default 4, the paper's "e.g., two quanta" ballpark).
    /// Decoupled from `window_w`: an online policy re-decides every few
    /// quanta, so its marginal storage commitment is short even when its
    /// memory of past usefulness is long.
    pub storage_window_w: f64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            alpha: 0.5,
            fading_d: 1.0,
            window_w: 120.0,
            storage_window_w: 4.0,
        }
    }
}

impl TunerConfig {
    /// Validate parameter ranges. NaN fails every check.
    pub fn validate(&self) -> crate::Result<()> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(crate::FlowtuneError::config(format!(
                "alpha must be in [0,1], got {}",
                self.alpha
            )));
        }
        if self.fading_d.is_nan() || self.fading_d <= 0.0 {
            return Err(crate::FlowtuneError::config(format!(
                "fading D must be positive, got {}",
                self.fading_d
            )));
        }
        if self.window_w.is_nan() || self.window_w <= 0.0 {
            return Err(crate::FlowtuneError::config(format!(
                "window W must be positive, got {}",
                self.window_w
            )));
        }
        if self.storage_window_w.is_nan() || self.storage_window_w <= 0.0 {
            return Err(crate::FlowtuneError::config(format!(
                "storage window must be positive, got {}",
                self.storage_window_w
            )));
        }
        Ok(())
    }
}

/// Full experiment parameter set (Table 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentParams {
    /// Cloud model.
    pub cloud: CloudConfig,
    /// Tuner model.
    pub tuner: TunerConfig,
    /// Number of operators per generated dataflow (default 100).
    pub ops_per_dataflow: usize,
    /// Mean inter-arrival of dataflows, in quanta (Poisson λ, default 1).
    pub poisson_lambda_quanta: f64,
    /// Total simulated horizon in quanta (default 720).
    pub total_quanta: u64,
    /// Seed for all workload randomness.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            cloud: CloudConfig::default(),
            tuner: TunerConfig::default(),
            ops_per_dataflow: 100,
            poisson_lambda_quanta: 1.0,
            total_quanta: 720,
            seed: 0x00F1_077E,
        }
    }
}

impl ExperimentParams {
    /// The simulated horizon as a duration, saturating at
    /// [`SimDuration::MAX`]; a horizon that does not fit fails
    /// `ServiceConfig::validate`.
    pub fn horizon(&self) -> SimDuration {
        self.cloud
            .quantum
            .checked_mul(self.total_quanta)
            .unwrap_or(SimDuration::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let p = ExperimentParams::default();
        assert_eq!(p.cloud.quantum, SimDuration::from_secs(60));
        assert_eq!(p.cloud.vm_price_per_quantum, Money::from_dollars(0.1));
        assert_eq!(
            p.cloud.storage_price_per_mb_quantum,
            Money::from_dollars(1e-4)
        );
        assert_eq!(p.cloud.max_containers, 100);
        assert_eq!(p.ops_per_dataflow, 100);
        assert!((p.tuner.alpha - 0.5).abs() < 1e-12);
        assert!((p.tuner.fading_d - 1.0).abs() < 1e-12);
        assert!((p.poisson_lambda_quanta - 1.0).abs() < 1e-12);
        assert_eq!(p.total_quanta, 720);
        assert_eq!(p.horizon(), SimDuration::from_secs(60 * 720));
    }

    #[test]
    fn transfer_times() {
        let c = CloudConfig::default();
        // 125 MB over 1 Gbps (125 MB/s) ≈ 1.048576 s (MB here is 2^20).
        let t = c.network_transfer(125 * 1024 * 1024);
        assert!((t.as_secs_f64() - 125.0 * 1024.0 * 1024.0 / (1e9 / 8.0)).abs() < 1e-3);
    }

    #[test]
    fn tuner_validation() {
        assert!(TunerConfig::default().validate().is_ok());
        assert!(TunerConfig {
            alpha: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TunerConfig {
            fading_d: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TunerConfig {
            window_w: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn tuner_validation_rejects_nan() {
        for field in 0..4 {
            let mut c = TunerConfig::default();
            match field {
                0 => c.alpha = f64::NAN,
                1 => c.fading_d = f64::NAN,
                2 => c.window_w = f64::NAN,
                _ => c.storage_window_w = f64::NAN,
            }
            assert!(c.validate().is_err(), "NaN in field {field} accepted");
        }
    }
}
